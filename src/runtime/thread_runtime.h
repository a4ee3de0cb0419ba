// Wall-clock runtime: the same schedulers, context converters, operators and
// metrics as the simulator, driven by a real thread pool instead of the
// discrete-event engine. Used by the runnable examples and the scheduling-
// overhead microbenchmarks (Fig. 12); the large parameter-sweep experiments
// use sim::Cluster (see DESIGN.md).
//
// Concurrency model (DESIGN.md §1): there is no global control-plane lock.
//  - Scheduling state is sharded into lock-free per-operator mailboxes plus
//    per-policy ready queues inside the Scheduler itself.
//  - The converter table, cost profiler, graph topology and per-job runtime
//    state all live behind copy-on-write snapshots (common/cow_index.h), so
//    the per-message path is lock-free while AddQuery/RemoveQuery splice
//    tenants in and out of the running system.
//  - Latency metrics are per-worker shards merged on read.
//  - Drain() waits on an atomic in-flight message counter: every Enqueue
//    increments it and each completed invocation decrements it after routing
//    its outputs, so the counter can only hit zero when the dataflow is
//    globally quiescent. RemoveQuery() waits the same way on a per-job
//    counter, so a tenant can be quiesced and retired under full load from
//    everyone else.
//  - Ingest is serialized per *source* (monotone progress per channel), not
//    globally, and is gated per job: once RemoveQuery flips a job's live
//    bit, Ingest returns false instead of enqueueing.
//  - The worker pool is fixed at `options.workers` for the runtime's life:
//    Cameo meets deadlines by scheduling on a fixed set of workers, not by
//    resizing the pool. Stop() followed by Start() restarts the same pool.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "api/engine_options.h"
#include "common/cow_index.h"
#include "common/rng.h"
#include "core/context_converter.h"
#include "core/profiler.h"
#include "dataflow/graph.h"
#include "metrics/sharded_latency.h"
#include "sched/scheduler.h"

namespace cameo {

class ThreadRuntime {
 public:
  /// Reads the shared options plus `options.wallclock.emulate_cost`;
  /// `options.sim` has no meaning on the wall clock and is ignored. One
  /// machine only: `options.shards` must be 1.
  ThreadRuntime(EngineOptions options, DataflowGraph graph);
  ~ThreadRuntime();

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  void Start();
  /// Blocks until all enqueued work (including downstream messages it
  /// produces) has completed.
  void Drain();
  void Stop();

  // ---- query lifecycle (thread-safe; serialized among themselves) ----

  /// Splices a new query into the running dataflow: `build` is the shared
  /// `QueryBuilder` callback (dataflow/graph.h) -- it composes
  /// AddJob/AddStage/Connect on the graph and returns the new query's
  /// handles, which are echoed back. All runtime tables (converters,
  /// profiler seeds, source channels, latency accounting) are registered
  /// before the call returns, after which Ingest to the query's sources is
  /// live. Works before Start() too (the constructor uses the same path for
  /// the initial graph).
  JobHandles AddQuery(const QueryBuilder& build);

  /// Gracefully removes a query under live traffic from other tenants:
  /// blocks new Ingest for `job`, waits until every in-flight message of the
  /// job has fully executed (per-job quiesce on the in-flight counter), then
  /// retires the job's mailboxes so stale ready-queue entries can never
  /// dispatch and any later Ingest attempt is rejected. Every message
  /// accepted before the call is executed -- nothing is dropped.
  void RemoveQuery(JobId job);

  /// True until RemoveQuery(job) begins.
  bool QueryLive(JobId job) const;

  /// Nanoseconds since construction. A Stop()/Start() cycle keeps the
  /// epoch, so arrival and emit times stay comparable across a restart.
  SimTime Now() const;

  /// Ingests a synthetic batch at `source`. Logical time defaults to the
  /// current clock (ingestion-time domain); pass `p` for event-time jobs.
  /// Thread-safe: may be called from any number of external threads.
  /// Returns false (nothing enqueued) once the source's query was removed.
  bool Ingest(OperatorId source, std::int64_t tuples,
              std::optional<LogicalTime> p = std::nullopt);
  /// Ingests a columnar batch (its `progress` must be set). Thread-safe.
  bool IngestBatch(OperatorId source, EventBatch batch);

  DataflowGraph& graph() { return graph_; }
  ShardedLatencyRecorder& latency() { return latency_; }
  Scheduler& scheduler() { return *scheduler_; }
  CostProfiler& profiler() { return profiler_; }

  /// Thread-safe snapshot of the policy's statistics counters, readable
  /// mid-run concurrently with the workers (every stateful policy's
  /// Counters() locks internally; see core/policies.h). Values are exact at
  /// quiescence and monotone-approximate under load -- the same contract as
  /// scheduler().stats().
  std::vector<PolicyCounter> PolicyCountersSnapshot() const {
    return policy_->Counters();
  }

 private:
  struct alignas(64) SourceState {
    std::mutex mu;  // per-channel in-order guarantee
    LogicalTime last_progress = 0;
  };
  /// Per-job in-flight accounting and the ingest gate. The guard protocol:
  /// Ingest increments `inflight` *before* reading `live`, and RemoveQuery
  /// flips `live` *before* waiting for zero, so either the producer observes
  /// the flip and backs out or the remover waits for that producer's
  /// message.
  struct alignas(64) JobState {
    std::atomic<std::int64_t> inflight{0};
    std::atomic<bool> live{true};
  };

  class WorkerHooks;
  void WorkerLoop(int index);
  ContextConverter& converter(OperatorId op);
  /// Registers all runtime tables for `job` (converters, profiler seeds,
  /// source states, latency, job state). Caller holds control_mu_.
  void RegisterJobTables(JobId job);
  void EnqueueTracked(Message m, WorkerId producer, JobState& js);
  void FinishOne(JobState& js);

  EngineOptions options_;
  DataflowGraph graph_;
  std::unique_ptr<SchedulingPolicy> policy_;
  std::unique_ptr<Scheduler> scheduler_;
  // Copy-on-write tables: lock-free lookups, grown by AddQuery.
  CowIndex<OperatorId, ContextConverter> converters_;
  CowIndex<OperatorId, SourceState> sources_;
  CowIndex<JobId, JobState> job_states_;
  CostProfiler profiler_;
  ShardedLatencyRecorder latency_;

  std::atomic<bool> stop_{false};
  /// Messages enqueued but not yet fully processed (invocation + routing).
  std::atomic<std::int64_t> inflight_{0};
  std::atomic<std::int64_t> next_message_id_{0};

  // Serializes AddQuery/RemoveQuery/Start (control plane only; never
  // touched by the per-message path).
  std::mutex control_mu_;

  // Sleep/wake plumbing only -- protects no data.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cameo
