// FIFO baseline (paper §6: "for the FIFO scheduler, we insert operators into
// the global run queue and extract them in FIFO order; an operator processes
// its messages in FIFO order"). Quantum semantics match the other schedulers:
// a worker drains its current operator within the re-scheduling grain, then
// moves the operator to the tail and takes the head (round-robin).
//
// Built on the sharded control plane: lock-free per-operator mailboxes plus
// a FifoReadyQueue of operator ids behind its own small lock, with lazy
// deletion validated by mailbox state CASes.
#pragma once

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class FifoScheduler final : public Scheduler {
 public:
  explicit FifoScheduler(SchedulerConfig config = {});

  void Enqueue(Message m, WorkerId producer, SimTime now) override;

  std::string name() const override { return "FIFO"; }

 protected:
  void PurgeReady(const std::vector<OperatorId>& ops) override;
  void Release(OperatorId op, Mailbox& mb, WorkerId w) override;
  std::size_t Continue(Mailbox& mb, WorkerId w, SimTime now, std::size_t max,
                       std::vector<Message>& out) override;
  std::size_t DequeueReady(WorkerId w, SimTime now, std::size_t max,
                           std::vector<Message>& out) override;

 private:
  std::size_t Dispatch(Mailbox& mb, WorkerId w, std::size_t max,
                       std::vector<Message>& out);

  FifoReadyQueue ready_;
};

}  // namespace cameo
