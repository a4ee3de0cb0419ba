#include "sched/slot_scheduler.h"

#include <unordered_set>

#include "common/check.h"

namespace cameo {

SlotScheduler::SlotScheduler(int num_workers, SchedulerConfig config)
    : Scheduler(config, MailboxOrder::kFifo), num_workers_(num_workers) {
  CAMEO_EXPECTS(num_workers >= 1);
}

void SlotScheduler::Assign(OperatorId op, WorkerId worker) {
  std::lock_guard lock(assign_mu_);
  CAMEO_EXPECTS(worker.valid() && worker.value < num_workers_);
  assignment_[op] = worker;
}

WorkerId SlotScheduler::SlotOf(OperatorId op) {
  std::lock_guard lock(assign_mu_);
  auto it = assignment_.find(op);
  if (it != assignment_.end()) return it->second;
  WorkerId w{next_slot_ % num_workers_};
  ++next_slot_;
  assignment_[op] = w;
  return w;
}

void SlotScheduler::PurgeReady(const std::vector<OperatorId>& ops) {
  ready_.EraseOps(std::unordered_set<OperatorId>(ops.begin(), ops.end()));
}

void SlotScheduler::Release(OperatorId op, Mailbox& mb, WorkerId w) {
  ReleaseClaimed(
      mb, w, [](Mailbox&) { return 0; },
      [this, op](int, std::uint64_t epoch) {
        ready_.Push(SlotOf(op), op, epoch);
      });
}

std::size_t SlotScheduler::Dispatch(Mailbox& mb, WorkerId w, std::size_t max,
                                    std::vector<Message>& out) {
  // Within a slot operators run FIFO; the batch is simply the claimed
  // operator's next `max` messages.
  return DrainClaimed(mb, w, max, out, [](Mailbox&) { return true; });
}

void SlotScheduler::Enqueue(Message m, WorkerId producer, SimTime now) {
  m.enqueue_time = now;
  const OperatorId op = m.target;
  Mailbox& mb = table_.Get(op);
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (!mb.Push(std::move(m))) {  // operator retired: reject, with accounting
    pending_.fetch_sub(1, std::memory_order_relaxed);
    shards_.rejected.Inc(shard_of(producer));
    return;
  }
  shards_.enqueued.Inc(shard_of(producer));
  for (;;) {
    Mailbox::State s = mb.state();
    if (s == Mailbox::State::kRetired) {
      DiscardIntoRetired(mb, producer);
      return;
    }
    if (s != Mailbox::State::kIdle) return;
    std::uint64_t epoch = 0;
    if (mb.TryMarkQueued(epoch)) {
      ready_.Push(SlotOf(op), op, epoch);
      shards_.ready_inserts.Inc(shard_of(producer));
      return;
    }
  }
}

std::size_t SlotScheduler::Continue(Mailbox& mb, WorkerId w, SimTime now,
                                    std::size_t max,
                                    std::vector<Message>& out) {
  WorkerSlot& sl = slot(w);
  auto live = [this, w](OperatorId id, std::uint64_t epoch) {
    return LiveEntry(id, epoch, w);
  };
  bool cont = now - sl.quantum_start < config_.quantum;
  if (!cont && ready_.CleanEmpty(w, live)) {
    cont = true;  // the slot has nothing else: keep going
    sl.quantum_start = now;
  }
  if (!cont) {
    Release(sl.current, mb, w);  // rotate within the slot
    return 0;
  }
  shards_.continuations.Inc(shard_of(w));
  return Dispatch(mb, w, max, out);
}

std::size_t SlotScheduler::DequeueReady(WorkerId w, SimTime now,
                                        std::size_t max,
                                        std::vector<Message>& out) {
  while (auto e = ready_.Pop(w)) {
    Mailbox* mb = ClaimEntry(e->op, e->epoch, w);
    if (mb == nullptr || !BeginActivation(e->op, *mb, w, now)) continue;
    return Dispatch(*mb, w, max, out);
  }
  return 0;
}

}  // namespace cameo
