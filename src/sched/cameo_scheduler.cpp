#include "sched/cameo_scheduler.h"

#include <algorithm>
#include <unordered_set>

namespace cameo {

CameoScheduler::CameoScheduler(SchedulerConfig config)
    : Scheduler(config, MailboxOrder::kLocalPriority) {}

Priority CameoScheduler::EffectivePri(const Message& m) const {
  Priority pri = m.pc.pri_global;
  if (config_.starvation_limit != kTimeMax) {
    pri = std::min(pri, SatAdd(m.enqueue_time, config_.starvation_limit));
  }
  return pri;
}

void CameoScheduler::Release(OperatorId op, Mailbox& mb, WorkerId w) {
  ReleaseClaimed(
      mb, w,
      [this](Mailbox& m) {  // owner-side: safe to peek the buffer
        ReadyKey key = KeyFor(m.PeekBest());
        m.set_registered_pri(key.pri);
        return key;
      },
      [this, op](ReadyKey key, std::uint64_t epoch) {
        ready_.Push(key, op, epoch);
      });
}

std::optional<ReadyKey> CameoScheduler::CleanTop(WorkerId w) {
  return ready_.CleanTopKey([this, w](OperatorId id, std::uint64_t epoch) {
    return LiveEntry(id, epoch, w);
  });
}

void CameoScheduler::PurgeReady(const std::vector<OperatorId>& ops) {
  ready_.EraseOps(std::unordered_set<OperatorId>(ops.begin(), ops.end()));
}

std::size_t CameoScheduler::Dispatch(Mailbox& mb, WorkerId w, std::size_t max,
                                     std::vector<Message>& out) {
  // The ready-queue head is re-fetched before *every* message after the
  // first, so an urgent arrival mid-batch bounds its wait at one message,
  // not batch_size. CleanTopKey is one small-lock peek; like the quantum
  // yield check the result is advisory (the head can move the instant the
  // lock drops), but the drain never runs past a head it has seen.
  return DrainClaimed(mb, w, max, out, [this, w](Mailbox& m) {
    auto top = CleanTop(w);
    return !top.has_value() || !(*top < KeyFor(m.PeekBest()));
  });
}

void CameoScheduler::Enqueue(Message m, WorkerId producer, SimTime now) {
  m.enqueue_time = now;
  const OperatorId op = m.target;
  const ReadyKey key = KeyFor(m);
  Mailbox& mb = table_.Get(op);
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (!mb.Push(std::move(m))) {  // operator retired: reject, with accounting
    pending_.fetch_sub(1, std::memory_order_relaxed);
    shards_.rejected.Inc(shard_of(producer));
    return;
  }
  shards_.enqueued.Inc(shard_of(producer));
  for (;;) {
    switch (mb.state()) {
      case Mailbox::State::kActive:
        return;  // the owner's release re-check will pick the message up
      case Mailbox::State::kRetired:
        // Retirement finished after our push slipped past the flag; purge
        // the stragglers back out.
        DiscardIntoRetired(mb, producer);
        return;
      case Mailbox::State::kQueued: {
        // Touch the ReadyQueue only when this arrival strictly improves the
        // operator's registered priority (paper: "head may have changed").
        auto epoch = mb.QueuedEpoch();
        if (!epoch.has_value()) break;  // session moved; re-read the state
        if (mb.TryLowerRegisteredPri(key.pri)) {
          // A raced-away epoch only strands a stale entry; the message
          // itself is covered by the owner's release re-queue.
          ready_.Push(key, op, *epoch);
          shards_.ready_inserts.Inc(shard_of(producer));
        }
        return;
      }
      case Mailbox::State::kIdle: {
        std::uint64_t epoch = 0;
        if (mb.TryMarkQueued(epoch)) {
          mb.set_registered_pri(key.pri);
          ready_.Push(key, op, epoch);
          shards_.ready_inserts.Inc(shard_of(producer));
          return;
        }
        break;  // lost the transition race; re-read the state
      }
    }
  }
}

std::size_t CameoScheduler::Continue(Mailbox& mb, WorkerId w, SimTime now,
                                     std::size_t max,
                                     std::vector<Message>& out) {
  // Keep draining the current operator within the quantum, or past it when
  // no strictly higher-priority operator waits (paper §5.2).
  WorkerSlot& sl = slot(w);
  mb.set_registered_pri(kPriorityFloor);
  bool cont = now - sl.quantum_start < config_.quantum;
  if (!cont) {
    auto top = CleanTop(w);
    cont = !top.has_value() || !(*top < KeyFor(mb.PeekBest()));
    if (cont) sl.quantum_start = now;  // start a fresh quantum
  }
  if (!cont) {
    Release(sl.current, mb, w);  // yield: back into the ready queue
    return 0;
  }
  shards_.continuations.Inc(shard_of(w));
  return Dispatch(mb, w, max, out);
}

std::size_t CameoScheduler::DequeueReady(WorkerId w, SimTime now,
                                         std::size_t max,
                                         std::vector<Message>& out) {
  // Dispatch the most urgent runnable operator; stale entries fail the
  // kQueued -> kActive claim and are skipped (lazy deletion).
  while (auto e = ready_.Pop()) {
    Mailbox* mb = ClaimEntry(e->op, e->epoch, w);
    if (mb == nullptr || !BeginActivation(e->op, *mb, w, now)) continue;
    mb->set_registered_pri(kPriorityFloor);
    return Dispatch(*mb, w, max, out);
  }
  return 0;
}

std::optional<Priority> CameoScheduler::TopPriority() {
  auto top = CleanTop(WorkerId{});
  if (!top.has_value()) return std::nullopt;
  return top->pri;
}

}  // namespace cameo
