#include "sched/fifo_scheduler.h"

#include <unordered_set>

namespace cameo {

FifoScheduler::FifoScheduler(SchedulerConfig config)
    : Scheduler(config, MailboxOrder::kFifo) {}

void FifoScheduler::Release(OperatorId op, Mailbox& mb, WorkerId w) {
  ReleaseClaimed(
      mb, w, [](Mailbox&) { return 0; },
      [this, op](int, std::uint64_t epoch) { ready_.Push(op, epoch); });
}

void FifoScheduler::PurgeReady(const std::vector<OperatorId>& ops) {
  ready_.EraseOps(std::unordered_set<OperatorId>(ops.begin(), ops.end()));
}

std::size_t FifoScheduler::Dispatch(Mailbox& mb, WorkerId w, std::size_t max,
                                    std::vector<Message>& out) {
  // FIFO has no cross-operator urgency to re-check: the batch is simply the
  // next `max` messages of the claimed operator.
  return DrainClaimed(mb, w, max, out, [](Mailbox&) { return true; });
}

void FifoScheduler::Enqueue(Message m, WorkerId producer, SimTime now) {
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
      ready_.Push(op, epoch);
      shards_.ready_inserts.Inc(shard_of(producer));
      return;
    }
  }
}

std::size_t FifoScheduler::Continue(Mailbox& mb, WorkerId w, SimTime now,
                                    std::size_t max,
                                    std::vector<Message>& out) {
  WorkerSlot& sl = slot(w);
  auto live = [this, w](OperatorId id, std::uint64_t epoch) {
    return LiveEntry(id, epoch, w);
  };
  bool cont = now - sl.quantum_start < config_.quantum;
  if (!cont && ready_.CleanEmpty(live)) {
    cont = true;  // nothing else to run: keep going, fresh quantum
    sl.quantum_start = now;
  }
  if (!cont) {
    Release(sl.current, mb, w);  // quantum expired: rotate to the tail
    return 0;
  }
  shards_.continuations.Inc(shard_of(w));
  return Dispatch(mb, w, max, out);
}

std::size_t FifoScheduler::DequeueReady(WorkerId w, SimTime now,
                                        std::size_t max,
                                        std::vector<Message>& out) {
  while (auto e = ready_.Pop()) {
    Mailbox* mb = ClaimEntry(e->op, e->epoch, w);
    if (mb == nullptr || !BeginActivation(e->op, *mb, w, now)) continue;
    return Dispatch(*mb, w, max, out);
  }
  return 0;
}

}  // namespace cameo
