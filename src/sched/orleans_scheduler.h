// Model of the default Orleans scheduler (paper §6): a global run queue
// backed by a ConcurrentBag, which "optimizes processing throughput by
// prioritizing processing thread-local tasks over the global ones".
//
// Behavioural model:
//  - work produced by an invocation on worker w lands in w's local bag,
//    consumed LIFO (ConcurrentBag's same-thread fast path);
//  - external arrivals land in the global FIFO queue;
//  - a worker takes local work first, then global, then steals the oldest
//    entry from another worker's bag;
//  - at quantum expiry the current operator yields to the *global* tail.
//
// This reproduces the depth-first, locality-chasing behaviour that gives
// Orleans good single-query cache locality (paper: IPQ4) but deadline-blind
// tail latency under multi-tenancy. Built on the sharded control plane:
// lock-free mailboxes + OrleansReadyState (bags/global/steal) under its own
// small lock.
#pragma once

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class OrleansScheduler final : public Scheduler {
 public:
  explicit OrleansScheduler(SchedulerConfig config = {});

  void Enqueue(Message m, WorkerId producer, SimTime now) override;

  std::string name() const override { return "Orleans"; }

 protected:
  void PurgeReady(const std::vector<OperatorId>& ops) override;
  /// Remaining work goes to worker `w`'s bag (bag locality).
  void Release(OperatorId op, Mailbox& mb, WorkerId w) override {
    ReleaseTo(op, mb, w, /*to_global=*/false);
  }
  std::size_t Continue(Mailbox& mb, WorkerId w, SimTime now, std::size_t max,
                       std::vector<Message>& out) override;
  std::size_t DequeueReady(WorkerId w, SimTime now, std::size_t max,
                           std::vector<Message>& out) override;

 private:
  /// Releases a claimed mailbox; remaining work goes to worker `w`'s bag
  /// or, when `to_global` is set, to the global tail.
  void ReleaseTo(OperatorId op, Mailbox& mb, WorkerId w, bool to_global);
  std::size_t Dispatch(Mailbox& mb, WorkerId w, std::size_t max,
                       std::vector<Message>& out);

  OrleansReadyState ready_;
};

}  // namespace cameo
