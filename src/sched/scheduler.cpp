#include "sched/scheduler.h"

#include "sched/cameo_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/orleans_scheduler.h"
#include "sched/slot_scheduler.h"

namespace cameo {

std::optional<Message> Scheduler::Dequeue(WorkerId w, SimTime now) {
  // Scratch survives across calls so the single-message path stays
  // allocation-free too.
  static thread_local std::vector<Message> scratch;
  scratch.clear();
  if (DequeueBatch(w, now, 1, scratch) == 0) return std::nullopt;
  return std::move(scratch.front());
}

std::size_t Scheduler::DequeueBatch(WorkerId w, SimTime now,
                                    std::size_t max_messages,
                                    std::vector<Message>& out) {
  if (Mailbox* mb = ReclaimCurrent(w)) {
    if (std::size_t n = Continue(*mb, w, now, max_messages, out)) return n;
  }
  return DequeueReady(w, now, max_messages, out);
}

void Scheduler::OnComplete(OperatorId op, WorkerId w, SimTime /*now*/) {
  Mailbox* mb = table_.Find(op);
  CAMEO_EXPECTS(mb != nullptr && mb->state() == Mailbox::State::kActive);
  Release(op, *mb, w);
}

std::size_t Scheduler::CompleteAndDequeue(OperatorId op, WorkerId w,
                                          SimTime now,
                                          std::vector<Message>& out) {
  const auto max = static_cast<std::size_t>(config_.batch_size);
  Mailbox* mb = table_.Find(op);
  CAMEO_EXPECTS(mb != nullptr && mb->state() == Mailbox::State::kActive);
  const WorkerSlot& sl = slot(w);
  if (sl.has_current && sl.current == op && !mb->retiring()) {
    // Keep the claim: OnComplete would re-queue the mailbox only for the
    // continuation branch to claim it straight back, leaving a stale entry
    // in the ready structure.
    mb->DrainInbox();
    if (!mb->buffer_empty()) {
      if (std::size_t n = Continue(*mb, w, now, max, out)) return n;
      return DequeueReady(w, now, max, out);  // Continue released it
    }
  }
  OnComplete(op, w, now);
  return DequeueBatch(w, now, max, out);
}

Mailbox* Scheduler::ReclaimCurrent(WorkerId w) {
  WorkerSlot& sl = slot(w);
  if (!sl.has_current) return nullptr;
  Mailbox* mb = table_.Find(sl.current);
  if (mb == nullptr || mb->size() == 0 || !mb->TryClaim()) return nullptr;
  if (mb->retiring()) {  // current operator's query was removed
    FinishRetire(*mb, w);
    sl.has_current = false;
    return nullptr;
  }
  mb->DrainInbox();
  if (mb->buffer_empty()) {  // raced with a competing claim
    Release(sl.current, *mb, w);
    return nullptr;
  }
  return mb;
}

Mailbox* Scheduler::ClaimEntry(OperatorId op, std::uint64_t epoch,
                               WorkerId w) {
  Mailbox* mb = table_.Find(op);
  if (mb != nullptr && mb->TryClaimQueued(epoch)) return mb;
  shards_.stale_pops.Inc(shard_of(w));
  return nullptr;
}

bool Scheduler::LiveEntry(OperatorId op, std::uint64_t epoch, WorkerId w) {
  Mailbox* mb = table_.Find(op);
  if (mb != nullptr && mb->InQueuedSession(epoch)) return true;
  shards_.stale_pops.Inc(shard_of(w));
  return false;
}

bool Scheduler::BeginActivation(OperatorId op, Mailbox& mb, WorkerId w,
                                SimTime now) {
  if (mb.retiring()) {  // removed id: discard its backlog, never dispatch
    FinishRetire(mb, w);
    return false;
  }
  mb.DrainInbox();
  if (mb.buffer_empty()) {  // defensive: kQueued implies pending work
    Release(op, mb, w);
    return false;
  }
  WorkerSlot& sl = slot(w);
  if (sl.has_current && sl.current != op) {
    shards_.operator_swaps.Inc(shard_of(w));
  }
  sl.current = op;
  sl.has_current = true;
  sl.quantum_start = now;
  return true;
}

std::int64_t Scheduler::RetireOperators(const std::vector<OperatorId>& ops) {
  std::int64_t purged = 0;
  for (OperatorId op : ops) {
    // Get (not Find): an operator never enqueued to still gets a mailbox so
    // its id can never be resurrected by a late first message.
    Mailbox& mb = table_.Get(op);
    mb.BeginRetire();
    for (;;) {
      Mailbox::State s = mb.state();
      if (s == Mailbox::State::kActive) break;  // owner's release finishes it
      if (s == Mailbox::State::kRetired) {
        if (mb.size() == 0) break;
        if (!mb.TryReclaimRetired()) continue;  // racing purger; re-read
      } else if (!mb.TryClaim()) {
        continue;  // lost a kIdle/kQueued transition race; re-read
      }
      purged += FinishRetire(mb, WorkerId{});
      break;
    }
  }
  PurgeReady(ops);
  return purged;
}

std::string ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kCameo:
      return "Cameo";
    case SchedulerKind::kFifo:
      return "FIFO";
    case SchedulerKind::kOrleans:
      return "Orleans";
    case SchedulerKind::kSlot:
      return "Slot";
  }
  return "?";
}

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, int num_workers,
                                         const SchedulerConfig& config) {
  switch (kind) {
    case SchedulerKind::kCameo:
      return std::make_unique<CameoScheduler>(config);
    case SchedulerKind::kFifo:
      return std::make_unique<FifoScheduler>(config);
    case SchedulerKind::kOrleans:
      return std::make_unique<OrleansScheduler>(config);
    case SchedulerKind::kSlot:
      return std::make_unique<SlotScheduler>(num_workers, config);
  }
  CAMEO_CHECK(false && "unknown scheduler kind");
  return nullptr;
}

}  // namespace cameo
