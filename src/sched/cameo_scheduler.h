// The Cameo scheduler (paper §5.2, Fig. 5(b)): the lower, *stateless* layer
// of the two-level architecture. It keeps
//   - per operator: pending messages ordered by PRI_local (inside the
//     operator's lock-free Mailbox), and
//   - globally: runnable operators ordered by PRI_global in a detached
//     CameoReadyQueue behind its own small lock.
// All priority information arrives inside each message's PriorityContext;
// the scheduler itself holds no per-job state.
//
// Enqueue appends lock-free to the target mailbox; the ReadyQueue is touched
// only on an empty -> non-empty transition or when an arrival strictly
// improves a queued operator's registered priority (a duplicate entry is
// inserted; pop-side validation discards the stale one).
//
// Quantum rule (paper): a worker keeps draining its current operator's
// mailbox; once the re-scheduling grain elapses it peeks at the ready queue
// and swaps only if a strictly higher-priority operator is waiting.
//
// Starvation guard (§6.3): with a finite `starvation_limit`, a message's
// effective global priority is capped at enqueue_time + limit, so overload
// degrades to FIFO among long-waiting messages instead of unbounded delay.
#pragma once

#include "sched/mailbox.h"
#include "sched/ready_queue.h"
#include "sched/scheduler.h"

namespace cameo {

class CameoScheduler final : public Scheduler {
 public:
  explicit CameoScheduler(SchedulerConfig config = {});

  void Enqueue(Message m, WorkerId producer, SimTime now) override;

  std::string name() const override { return "Cameo"; }

  /// Global priority of the most urgent runnable operator (tests/telemetry).
  /// Compacts stale ready-queue entries as a side effect.
  std::optional<Priority> TopPriority();

 protected:
  void PurgeReady(const std::vector<OperatorId>& ops) override;
  void Release(OperatorId op, Mailbox& mb, WorkerId w) override;
  std::size_t Continue(Mailbox& mb, WorkerId w, SimTime now, std::size_t max,
                       std::vector<Message>& out) override;
  std::size_t DequeueReady(WorkerId w, SimTime now, std::size_t max,
                           std::vector<Message>& out) override;

 private:
  Priority EffectivePri(const Message& m) const;
  ReadyKey KeyFor(const Message& m) const {
    return ReadyKey{EffectivePri(m), m.id.value};
  }
  /// The ready queue's live head key, discarding (and counting against
  /// worker `w`) the stale entries above it.
  std::optional<ReadyKey> CleanTop(WorkerId w);
  /// Drains up to `max` messages from the claimed mailbox, stopping early
  /// when a strictly more urgent operator is ready (priority re-check
  /// between messages preserves Cameo dispatch order under batching).
  std::size_t Dispatch(Mailbox& mb, WorkerId w, std::size_t max,
                       std::vector<Message>& out);

  CameoReadyQueue ready_;
};

}  // namespace cameo
