#include "sched/orleans_scheduler.h"

#include <unordered_set>

namespace cameo {

OrleansScheduler::OrleansScheduler(SchedulerConfig config)
    : Scheduler(config, MailboxOrder::kFifo) {}

void OrleansScheduler::ReleaseTo(OperatorId op, Mailbox& mb, WorkerId w,
                                 bool to_global) {
  ReleaseClaimed(
      mb, w, [](Mailbox&) { return 0; },
      [this, op, w, to_global](int, std::uint64_t epoch) {
        if (to_global || !w.valid()) {
          ready_.PushGlobal(op, epoch);
        } else {
          ready_.PushLocal(w, op, epoch);  // work stays near its worker
        }
      });
}

void OrleansScheduler::PurgeReady(const std::vector<OperatorId>& ops) {
  ready_.EraseOps(std::unordered_set<OperatorId>(ops.begin(), ops.end()));
}

std::size_t OrleansScheduler::Dispatch(Mailbox& mb, WorkerId w,
                                       std::size_t max,
                                       std::vector<Message>& out) {
  // The bag model has no cross-operator urgency: drain the claimed
  // activation's next `max` messages unconditionally.
  return DrainClaimed(mb, w, max, out, [](Mailbox&) { return true; });
}

void OrleansScheduler::Enqueue(Message m, WorkerId producer, SimTime now) {
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
      if (producer.valid()) {
        ready_.PushLocal(producer, op, epoch);  // thread-local fast path
      } else {
        ready_.PushGlobal(op, epoch);
      }
      shards_.ready_inserts.Inc(shard_of(producer));
      return;
    }
  }
}

std::size_t OrleansScheduler::Continue(Mailbox& mb, WorkerId w, SimTime now,
                                       std::size_t max,
                                       std::vector<Message>& out) {
  WorkerSlot& sl = slot(w);
  if (now - sl.quantum_start >= config_.quantum) {
    // Quantum expired: yield the turn to the global tail.
    ReleaseTo(sl.current, mb, w, /*to_global=*/true);
    return 0;
  }
  shards_.continuations.Inc(shard_of(w));
  return Dispatch(mb, w, max, out);
}

std::size_t OrleansScheduler::DequeueReady(WorkerId w, SimTime now,
                                           std::size_t max,
                                           std::vector<Message>& out) {
  ready_.RegisterWorker(w);
  for (;;) {
    auto next = ready_.Take(w, [this, w](OperatorId id, std::uint64_t epoch) {
      return ClaimEntry(id, epoch, w) != nullptr;
    });
    if (!next.has_value()) break;
    Mailbox& mb = *table_.Find(*next);
    if (!BeginActivation(*next, mb, w, now)) continue;
    return Dispatch(mb, w, max, out);
  }

  // Nothing anywhere else: resume the current operator if it still has work
  // (its yielded entry may have been claimed and exhausted above).
  if (Mailbox* mb = ReclaimCurrent(w)) {
    slot(w).quantum_start = now;
    shards_.continuations.Inc(shard_of(w));
    return Dispatch(*mb, w, max, out);
  }
  return 0;
}

}  // namespace cameo
