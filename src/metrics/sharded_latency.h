// Per-worker LatencyRecorder shards, merged on read (DESIGN.md §1).
//
// The wall-clock runtime records latency from many threads at once. Arrival
// bookkeeping (which slide bucket last saw an event) must be globally visible
// to whichever worker emits the window, so it lives in one ingest-side
// recorder behind a small mutex touched at ingest/output rate -- not per
// message. Sink-side accumulation (samples, counters, series) goes into the
// emitting worker's shard under a per-shard mutex that only that worker
// normally touches, so it is uncontended at steady state; the lock exists
// because dynamic multi-tenancy registers hot-added queries into every shard
// while workers are live, and readers may merge mid-run. The runtime's
// worker pool is fixed, so there is exactly one shard per worker, allocated
// at construction. Readers merge ingest + shards into a plain
// LatencyRecorder; reads are exact once workers are quiescent (after
// Drain()).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "metrics/latency_recorder.h"

namespace cameo {

class ShardedLatencyRecorder {
 public:
  /// One sink-side shard per worker; worker-side calls take a shard index
  /// in [0, worker_shards) and reject any other.
  explicit ShardedLatencyRecorder(int worker_shards);

  /// Declares a job on the ingest recorder and every shard. Safe while
  /// workers are recording (query hot-add).
  void RegisterJob(JobId job, Duration latency_constraint,
                   LogicalTime output_window, LogicalTime output_slide,
                   LogicalTime session_gap = 0);

  // ---- ingest side (any thread; serialized on the ingest mutex) ----
  void OnSourceEvent(JobId job, LogicalTime p, SimTime arrival);
  void OnProcessed(JobId job, std::int64_t tuples, SimTime now);

  // ---- worker side (`shard` = worker index; per-shard mutex, uncontended
  // ---- unless a hot-add registration or a merge read races it) ----
  void OnSinkOutput(int shard, JobId job, LogicalTime window_end, SimTime emit);
  void OnSinkTuples(int shard, JobId job, std::int64_t tuples, SimTime now);

  // ---- merged read view ----
  // Accessors return by value: every call re-merges the shards, so returned
  // containers must not alias internal state. Callers binding
  // `const SampleStats&` get lifetime extension. Intended for quiescent reads
  // (after Drain()); concurrent use merely yields a slightly stale snapshot.
  LatencyRecorder Merged() const;
  SampleStats Latency(JobId job) const;
  double SuccessRate(JobId job) const;
  std::uint64_t outputs(JobId job) const;
  std::int64_t sink_tuples(JobId job) const;
  std::int64_t processed(JobId job) const;
  Duration constraint(JobId job) const;
  std::vector<std::pair<SimTime, Duration>> Series(JobId job) const;
  std::vector<std::int64_t> ThroughputBuckets(JobId job, Duration bucket,
                                              SimTime span) const;
  std::vector<std::int64_t> ProcessedBuckets(JobId job, Duration bucket,
                                             SimTime span) const;
  std::vector<JobId> jobs() const;

 private:
  struct Shard {
    std::mutex mu;
    LatencyRecorder rec;
  };

  Shard& ShardAt(int index);

  mutable std::mutex ingest_mu_;
  LatencyRecorder ingest_;  // arrivals + processed-volume accounting
  std::vector<std::unique_ptr<Shard>> shards_;  // sink-side samples
};

}  // namespace cameo
