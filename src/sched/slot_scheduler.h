// Slot-based scheduler modeling Flink-style static resource allocation
// (paper §1, Fig. 1): every operator is pinned to one worker ("task slot")
// and workers only execute their own operators, FIFO. Isolation is perfect
// but idle slots cannot help overloaded ones, which is the low-utilization /
// over-provisioning pathology Cameo targets.
//
// Built on the sharded control plane: lock-free mailboxes plus one
// SlotReadyQueues run queue per pinned worker.
#pragma once

#include <mutex>
#include <unordered_map>

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class SlotScheduler final : public Scheduler {
 public:
  /// Operators are assigned to `num_workers` slots round-robin at first
  /// sight, unless pinned beforehand with Assign().
  SlotScheduler(int num_workers, SchedulerConfig config = {});

  /// Pins `op` to `worker` (call before the first message for `op`).
  void Assign(OperatorId op, WorkerId worker);

  void Enqueue(Message m, WorkerId producer, SimTime now) override;

  std::string name() const override { return "Slot"; }

  WorkerId SlotOf(OperatorId op);

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

  std::mutex assign_mu_;
  const int num_workers_;
  std::int64_t next_slot_ = 0;
  std::unordered_map<OperatorId, WorkerId> assignment_;
  SlotReadyQueues ready_;
};

}  // namespace cameo
