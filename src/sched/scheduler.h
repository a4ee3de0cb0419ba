// Scheduler interface shared by the discrete-event simulator and the
// wall-clock thread runtime.
//
// A scheduler owns all pending messages, grouped per target operator in a
// MailboxTable (actor-model exclusivity: an operator never runs on two
// workers at once). An activation is one claimed batch of one operator:
// DequeueBatch claims it, and between activations a worker calls
// CompleteAndDequeue, which ends the current activation and hands over the
// next. The re-scheduling quantum (paper §5.2, default 1 ms) controls how
// long a worker sticks with its current operator before consulting the ready
// queue again; quantum 0 re-evaluates after every message. While the worker
// continues its operator, CompleteAndDequeue keeps the claim: the mailbox
// never passes through the ready structure, and only a yield (or an empty
// mailbox) releases it. OnComplete ends an activation and always releases;
// worker loops call it only when the worker leaves on Stop.
//
// Concurrency contract (see DESIGN.md §1): Enqueue may be called from any
// thread concurrently with the worker-side calls. Enqueue appends lock-free
// to the target operator's mailbox and only touches the policy's ReadyQueue
// (its own small lock) on an empty -> non-empty transition; workers claim
// and release mailboxes with atomic state transitions. Statistics are
// sharded per worker and merged on read.
//
// Each policy supplies three hooks: Release (its end-of-activation release
// protocol), Continue (its continuation decision for the current operator)
// and DequeueReady (its pop path). The claim steps around them -- re-claiming
// the current operator, keeping the claim across a completion, validating
// popped entries -- live once in this base class.
//
// Dynamic multi-tenancy: RetireOperators() retires a removed query's
// mailboxes -- each rejects every later Enqueue (counted in
// `stats().rejected`), has its remaining backlog purged with accounting
// (`stats().purged`), and parks at the terminal kRetired state so no lazy
// ready-queue entry can ever claim it again.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/time.h"
#include "dataflow/message.h"
#include "metrics/sharded_stats.h"
#include "sched/mailbox.h"

namespace cameo {

/// The scheduler roster (DESIGN.md §4), shared by both execution backends.
enum class SchedulerKind { kCameo, kFifo, kOrleans, kSlot };

std::string ToString(SchedulerKind kind);

struct SchedulerConfig {
  /// Minimum re-scheduling grain. While a worker's elapsed time on one
  /// operator is below this, it keeps draining that operator's mailbox.
  Duration quantum = kMillisecond;
  /// Starvation guard (§6.3): a message's effective global priority never
  /// exceeds enqueue_time + starvation_limit, so long-waiting work is
  /// eventually ordered FIFO. kTimeMax disables the guard (paper default).
  Duration starvation_limit = kTimeMax;
  /// Claim-and-drain batching (paper §6 / Fig. 13 knob): the maximum number
  /// of messages a worker drains from one claimed mailbox per activation.
  /// One claim + one release amortize over the whole batch. 1 reproduces the
  /// classic claim-one dispatch exactly (fixed-seed sim replays are
  /// bit-identical). Cameo re-checks the ready queue's head between the
  /// batch's messages and cuts the drain short when a strictly more urgent
  /// operator is waiting, so priority semantics survive batching.
  int batch_size = 1;
};

/// Merged snapshot of the per-worker stat shards. Exact once workers are
/// quiescent (after Drain()).
struct SchedulerStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dispatched = 0;
  /// Worker switched from one operator to a different one.
  std::uint64_t operator_swaps = 0;
  /// Worker kept its current operator at a quantum boundary.
  std::uint64_t continuations = 0;
  /// Enqueues refused because the target operator was retired. Not counted
  /// in `enqueued`.
  std::uint64_t rejected = 0;
  /// Messages accepted earlier but discarded by retirement purges. At
  /// quiescence, enqueued == dispatched + purged.
  std::uint64_t purged = 0;
  /// Messages refused by admission control before reaching the scheduler
  /// (overload shedding, shard_runtime.h). Not counted in `enqueued`.
  std::uint64_t shed = 0;
  /// Entries inserted into the policy's ready structure, by Enqueue
  /// registrations (and Cameo's priority-raise duplicates) and by releases
  /// that leave work behind.
  std::uint64_t ready_inserts = 0;
  /// Ready entries discarded because their queued session had ended (lazy
  /// deletion: the operator was claimed another way, or retired).
  std::uint64_t stale_pops = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Hands a message to the scheduler. `producer` identifies the worker whose
  /// invocation emitted it (invalid WorkerId for external arrivals); the
  /// Orleans bag model uses it for thread-local affinity. Thread-safe.
  virtual void Enqueue(Message m, WorkerId producer, SimTime now) = 0;

  /// Claims the next runnable operator for worker `w` and drains up to
  /// `max_messages` of its pending messages into `out` (appended, in the
  /// mailbox's dispatch order). Every message in the batch targets the same
  /// operator, which stays claimed (kActive): after invoking the batch the
  /// worker must end the activation with exactly one CompleteAndDequeue or
  /// OnComplete call for that operator. Returns the number of messages
  /// appended; 0 when nothing is runnable. Policy invariants are re-checked
  /// between messages (see SchedulerConfig::batch_size). Thread-safe; at
  /// most one concurrent worker-side call per worker id.
  std::size_t DequeueBatch(WorkerId w, SimTime now, std::size_t max_messages,
                           std::vector<Message>& out);

  /// DequeueBatch with the configured batch size.
  std::size_t DequeueBatch(WorkerId w, SimTime now, std::vector<Message>& out) {
    return DequeueBatch(w, now, static_cast<std::size_t>(config_.batch_size),
                        out);
  }

  /// Single-message convenience wrapper over DequeueBatch (tests and
  /// quantum-granularity callers); nullopt when nothing is runnable.
  std::optional<Message> Dequeue(WorkerId w, SimTime now);

  /// Ends worker `w`'s activation of `op` (single message or a drained
  /// batch) and releases the operator: from here on another worker may
  /// claim it. Must be called by the worker that dequeued it.
  void OnComplete(OperatorId op, WorkerId w, SimTime now);

  /// Ends worker `w`'s activation of `op` and dequeues its next batch (the
  /// configured batch size) in one call. Dispatches exactly what
  /// OnComplete(op, w, now) followed by DequeueBatch(w, now, out) would,
  /// but when `op` still has buffered work and is not retiring, the claim is
  /// kept through the policy's continuation decision: a continuing operator
  /// never re-enters the ready structure, and only a yield releases it
  /// (exactly as OnComplete would) before the pop path runs. Returns the
  /// number of messages appended, with the same contract as DequeueBatch;
  /// 0 when nothing is runnable, in which case `op` has been released.
  std::size_t CompleteAndDequeue(OperatorId op, WorkerId w, SimTime now,
                                 std::vector<Message>& out);

  /// Retires a removed query's operators: marks their mailboxes retiring
  /// (later Enqueues are rejected and counted), purges whatever backlog is
  /// claimable right now (counted in stats().purged), erases their lazy
  /// ready-queue entries, and parks each mailbox at kRetired. A mailbox a
  /// worker currently holds kActive finishes retirement in that worker's
  /// release path. Returns the number of messages purged by this call.
  /// Thread-safe; may run concurrently with Enqueue/Dequeue/OnComplete.
  std::int64_t RetireOperators(const std::vector<OperatorId>& ops);

  std::size_t pending() const {
    std::int64_t p = pending_.load(std::memory_order_relaxed);
    return p > 0 ? static_cast<std::size_t>(p) : 0;
  }

  virtual std::string name() const = 0;

  SchedulerStats stats() const {
    SchedulerStats s;
    s.enqueued = shards_.enqueued.Total();
    s.dispatched = shards_.dispatched.Total();
    s.operator_swaps = shards_.operator_swaps.Total();
    s.continuations = shards_.continuations.Total();
    s.rejected = shards_.rejected.Total();
    s.purged = shards_.purged.Total();
    s.ready_inserts = shards_.ready_inserts.Total();
    s.stale_pops = shards_.stale_pops.Total();
    return s;
  }

  const SchedulerConfig& config() const { return config_; }

  /// Upper bound on worker ids; slots are pre-allocated so each worker
  /// mutates only its own cache line with no map insert races. Backends
  /// validate their worker count against this at construction.
  static constexpr std::int64_t kMaxWorkers = 256;

 protected:
  struct alignas(64) WorkerSlot {
    OperatorId current;  // operator this worker last ran
    SimTime quantum_start = 0;
    bool has_current = false;
  };

  Scheduler(SchedulerConfig config, MailboxOrder order)
      : config_(config), table_(order), slots_(kMaxWorkers) {
    // Fail at construction, not deep inside the first dispatch: 0 would trip
    // DrainClaimed's precondition and a negative value would wrap into an
    // unbounded drain.
    CAMEO_CHECK(config_.batch_size >= 1 &&
                "SchedulerConfig::batch_size must be >= 1");
  }

  WorkerSlot& slot(WorkerId w) {
    CAMEO_EXPECTS(w.valid() && w.value < kMaxWorkers);
    return slots_[static_cast<std::size_t>(w.value)];
  }

  std::size_t shard_of(WorkerId w) const {
    return w.valid() ? static_cast<std::size_t>(w.value)
                     : ThisThreadStatShard();
  }

  struct StatShards {
    ShardedCounter enqueued;
    ShardedCounter dispatched;
    ShardedCounter operator_swaps;
    ShardedCounter continuations;
    ShardedCounter rejected;
    ShardedCounter purged;
    ShardedCounter ready_inserts;
    ShardedCounter stale_pops;
  };

  // ---- policy hooks ----

  /// The policy's end-of-activation release of a claimed mailbox: re-queue
  /// into its ready structure, idle, or finish a retire (see
  /// ReleaseClaimed). Also the release OnComplete performs.
  virtual void Release(OperatorId op, Mailbox& mb, WorkerId w) = 0;

  /// The continuation decision for worker `w`'s current operator, whose
  /// claimed mailbox `mb` holds buffered work: the quantum check, then the
  /// policy's look at its ready structure. Either dispatches up to `max`
  /// messages into `out` and returns the count, or yields -- releases the
  /// claim the policy's way -- and returns 0.
  virtual std::size_t Continue(Mailbox& mb, WorkerId w, SimTime now,
                               std::size_t max, std::vector<Message>& out) = 0;

  /// The pop path: claims the next operator from the policy's ready
  /// structure and dispatches up to `max` of its messages; 0 when nothing is
  /// runnable.
  virtual std::size_t DequeueReady(WorkerId w, SimTime now, std::size_t max,
                                   std::vector<Message>& out) = 0;

  /// Erases the retiring operators' entries from the subclass's ready
  /// structure(s) (eager cleanup; correctness rests on epoch validation).
  virtual void PurgeReady(const std::vector<OperatorId>& ops) = 0;

  /// Owner-side completion of a retire: purges the claimed mailbox with
  /// accounting and parks it at kRetired, reclaiming if a racing push lands
  /// after the final store. Call instead of ReleaseMailbox whenever
  /// `mb.retiring()` is observed while holding the claim. Returns the number
  /// of messages purged.
  std::int64_t FinishRetire(Mailbox& mb, WorkerId w) {
    std::int64_t total = 0;
    for (;;) {
      std::int64_t purged = mb.PurgeBacklog();
      if (purged > 0) {
        total += purged;
        pending_.fetch_sub(purged, std::memory_order_relaxed);
        shards_.purged.Inc(shard_of(w), static_cast<std::uint64_t>(purged));
      }
      mb.ReleaseToRetired();
      if (mb.size() == 0) return total;
      // A push raced the retiring flag; take the word back and purge again.
      if (!mb.TryReclaimRetired()) return total;  // another purger owns it
    }
  }

  /// Enqueue-side handler for the post-push state read seeing kRetired: our
  /// own push (and possibly others) landed after the final store, so purge
  /// it back out with accounting.
  void DiscardIntoRetired(Mailbox& mb, WorkerId w) {
    if (mb.size() > 0 && mb.TryReclaimRetired()) FinishRetire(mb, w);
  }

  /// The retire-aware release protocol every policy's Release runs: a
  /// retiring mailbox is purged and parked at kRetired; otherwise
  /// ReleaseMailbox re-queues it (`prepare`/`insert_ready`, counted in
  /// ready_inserts) or idles it, and a retire that raced the release is
  /// finished by whoever can still claim the mailbox.
  template <typename PrepareFn, typename InsertReadyFn>
  void ReleaseClaimed(Mailbox& mb, WorkerId w, PrepareFn&& prepare,
                      InsertReadyFn&& insert_ready) {
    if (mb.retiring()) {
      FinishRetire(mb, w);
      return;
    }
    if (ReleaseMailbox(mb, prepare, insert_ready)) {
      shards_.ready_inserts.Inc(shard_of(w));
    }
    if (mb.retiring() && mb.TryClaim()) FinishRetire(mb, w);
  }

  /// Continuation claim: re-claims worker `w`'s current operator when it has
  /// pending work. Returns its mailbox with the inbox drained and buffered
  /// work to run; nullptr otherwise (a retiring operator is purged and
  /// dropped as current, a mailbox found empty is released).
  Mailbox* ReclaimCurrent(WorkerId w);

  /// Pop-side validation of a ready entry: claims `op` iff its mailbox is
  /// still in queued session `epoch`; a stale entry is counted and yields
  /// nullptr.
  Mailbox* ClaimEntry(OperatorId op, std::uint64_t epoch, WorkerId w);

  /// Peek-side validation (CleanTopKey / CleanEmpty): true iff `op` is still
  /// in queued session `epoch`. A stale entry is counted, since the caller
  /// discards it.
  bool LiveEntry(OperatorId op, std::uint64_t epoch, WorkerId w);

  /// Pop-path start of an activation on a mailbox just claimed from a ready
  /// entry: drains the inbox and makes `op` worker `w`'s current operator
  /// with a fresh quantum (counting a swap). Returns false, with the mailbox
  /// purged or released, when it is retiring or holds no work.
  bool BeginActivation(OperatorId op, Mailbox& mb, WorkerId w, SimTime now);

  /// The claim-and-drain core: pops up to `max` messages from a mailbox the
  /// caller has claimed (and already DrainInbox-ed) into `out`, batching the
  /// pending/dispatched accounting into one update. `keep_going(mb)` is the
  /// policy re-check, consulted before every message after the first --
  /// returning false cuts the batch short (the first message is
  /// unconditional: a claim always dispatches at least one). Returns the
  /// number of messages popped.
  template <typename KeepGoingFn>
  std::size_t DrainClaimed(Mailbox& mb, WorkerId w, std::size_t max,
                           std::vector<Message>& out,
                           KeepGoingFn&& keep_going) {
    CAMEO_EXPECTS(max >= 1 && !mb.buffer_empty());
    std::size_t n = 0;
    while (n < max && !mb.buffer_empty()) {
      if (n > 0 && !keep_going(mb)) break;
      out.push_back(mb.PopBest());
      ++n;
    }
    pending_.fetch_sub(static_cast<std::int64_t>(n),
                       std::memory_order_relaxed);
    shards_.dispatched.Inc(shard_of(w), n);
    return n;
  }

  SchedulerConfig config_;
  MailboxTable table_;
  StatShards shards_;
  std::atomic<std::int64_t> pending_{0};
  std::vector<WorkerSlot> slots_;
};

/// Shared factory used by both backends. `num_workers` is only consulted by
/// the slot scheduler's round-robin pinning.
std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, int num_workers,
                                         const SchedulerConfig& config);

}  // namespace cameo
