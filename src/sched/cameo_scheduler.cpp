#include "sched/cameo_scheduler.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

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

bool CameoScheduler::StillQueued(OperatorId op, std::uint64_t epoch) const {
  Mailbox* mb = table_.Find(op);
  return mb != nullptr && mb->InQueuedSession(epoch);
}

void CameoScheduler::Release(OperatorId op, Mailbox& mb, WorkerId w) {
  if (mb.retiring()) {
    FinishRetire(mb, w);
    return;
  }
  ReleaseMailbox(
      mb,
      [this](Mailbox& m) {  // owner-side: safe to peek the buffer
        ReadyKey key = KeyFor(m.PeekBest());
        m.set_registered_pri(key.pri);
        return key;
      },
      [this, op](ReadyKey key, std::uint64_t epoch) {
        ready_.Push(key, op, epoch);
      });
  // A retire that raced the release: whoever can still claim the mailbox
  // finishes the purge (see scheduler.h retire protocol).
  if (mb.retiring() && mb.TryClaim()) FinishRetire(mb, w);
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
  return DrainClaimed(mb, w, max, out, [this](Mailbox& m) {
    auto top = ready_.CleanTopKey([this](OperatorId id, std::uint64_t epoch) {
      return StillQueued(id, epoch);
    });
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
        }
        return;
      }
      case Mailbox::State::kIdle: {
        std::uint64_t epoch = 0;
        if (mb.TryMarkQueued(epoch)) {
          mb.set_registered_pri(key.pri);
          ready_.Push(key, op, epoch);
          return;
        }
        break;  // lost the transition race; re-read the state
      }
    }
  }
}

std::size_t CameoScheduler::DequeueBatch(WorkerId w, SimTime now,
                                         std::size_t max_messages,
                                         std::vector<Message>& out) {
  WorkerSlot& sl = slot(w);

  // Continuation: keep draining the current operator within the quantum, or
  // past it when no strictly higher-priority operator waits (paper §5.2).
  if (sl.has_current) {
    Mailbox* mb = table_.Find(sl.current);
    if (mb != nullptr && mb->size() > 0 && mb->TryClaim()) {
      if (mb->retiring()) {  // current operator's query was removed
        FinishRetire(*mb, w);
        sl.has_current = false;
      } else {
        mb->set_registered_pri(kPriorityFloor);
        mb->DrainInbox();
        if (mb->buffer_empty()) {
          Release(sl.current, *mb, w);  // raced with a competing claim
        } else {
          bool cont = now - sl.quantum_start < config_.quantum;
          if (!cont) {
            const ReadyKey head = KeyFor(mb->PeekBest());
            auto top = ready_.CleanTopKey([this](OperatorId id,
                                                 std::uint64_t epoch) {
              return StillQueued(id, epoch);
            });
            cont = !top.has_value() || !(*top < head);
            if (cont) sl.quantum_start = now;  // start a fresh quantum
          }
          if (cont) {
            shards_.continuations.Inc(shard_of(w));
            return Dispatch(*mb, w, max_messages, out);
          }
          Release(sl.current, *mb, w);  // yield: back into the ready queue
        }
      }
    }
  }

  // Dispatch the most urgent runnable operator; stale entries fail the
  // kQueued -> kActive claim and are skipped (lazy deletion).
  while (auto e = ready_.Pop()) {
    Mailbox* mb = table_.Find(e->op);
    if (mb == nullptr || !mb->TryClaimQueued(e->epoch)) continue;
    if (mb->retiring()) {  // removed id: discard its backlog, never dispatch
      FinishRetire(*mb, w);
      continue;
    }
    mb->set_registered_pri(kPriorityFloor);
    mb->DrainInbox();
    if (mb->buffer_empty()) {  // defensive: should not happen (see Release)
      Release(e->op, *mb, w);
      continue;
    }
    if (sl.has_current && sl.current != e->op) {
      shards_.operator_swaps.Inc(shard_of(w));
    }
    sl.current = e->op;
    sl.has_current = true;
    sl.quantum_start = now;
    return Dispatch(*mb, w, max_messages, out);
  }
  return 0;
}

void CameoScheduler::OnComplete(OperatorId op, WorkerId w, SimTime /*now*/) {
  Mailbox* mb = table_.Find(op);
  CAMEO_EXPECTS(mb != nullptr && mb->state() == Mailbox::State::kActive);
  Release(op, *mb, w);
}

std::optional<Priority> CameoScheduler::TopPriority() {
  auto top = ready_.CleanTopKey([this](OperatorId id, std::uint64_t epoch) {
    return StillQueued(id, epoch);
  });
  if (!top.has_value()) return std::nullopt;
  return top->pri;
}

}  // namespace cameo
