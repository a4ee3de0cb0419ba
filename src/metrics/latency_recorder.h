// Latency accounting using the paper's definition (§4.1): the latency of an
// output message M is the time between the *last* arrival of any event that
// influenced M and the time M is produced at the sink.
//
// Sources report every ingested event's (logical time, arrival time); events
// are bucketed by the job's output slide so that when the sink produces the
// output for window ending at boundary B, the recorder can look up the last
// contributing arrival in [B - output_window, B).
//
// One recorder serves both backends (DESIGN.md §1). It has two sides:
//  - the arrival side (each job's window shape, its last-arrival buckets and
//    its processed volume) sits under one mutex, taken once per ingested
//    message and once per sink output;
//  - the sink side (latency samples, output/met counts, sink tuples) keeps
//    one accumulator per worker under that worker's mutex, which only that
//    worker touches at steady state. The lock exists because a query
//    hot-add registers its job into every accumulator while workers are
//    live, and readers may read mid-run.
// Reads merge the accumulators of the job asked for; they are exact once
// the workers are quiescent. The simulator records through worker 0 of a
// one-worker recorder.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/time.h"

namespace cameo {

class LatencyRecorder {
 public:
  /// One sink-side accumulator per worker; worker-side calls take an index
  /// in [0, worker_shards) and reject any other.
  explicit LatencyRecorder(int worker_shards = 1);

  /// Declares a job. `output_window`/`output_slide` describe the final
  /// windowed stage in logical ticks (slide = window for tumbling output;
  /// slide 0 means per-message output: latency = emit - event arrival).
  /// `session_gap` > 0 marks a session-window output, whose boundary B is
  /// the session's last event time plus the gap. Safe while workers are
  /// recording (query hot-add).
  void RegisterJob(JobId job, Duration latency_constraint,
                   LogicalTime output_window, LogicalTime output_slide,
                   LogicalTime session_gap = 0);

  // ---- arrival side (any thread) ----

  /// Called for every event ingested at a source of `job`.
  void OnSourceEvent(JobId job, LogicalTime p, SimTime arrival);

  /// Tuples *processed* by the job's source stage at `now` (ingestion volume
  /// actually served). This is the Fig. 6 throughput metric: windowed
  /// queries emit a fixed number of sink tuples per window regardless of
  /// input volume, so sink counts cannot show proportional shares.
  void OnProcessed(JobId job, std::int64_t tuples, SimTime now);

  // ---- sink side (`worker` = the recording worker's index) ----

  /// Called when the sink produces the output whose window ends at logical
  /// boundary `window_end` (for slide 0 jobs: the event's arrival time).
  void OnSinkOutput(int worker, JobId job, LogicalTime window_end,
                    SimTime emit);
  /// Tuples observed at the sink. Only the total is kept, so the emit time
  /// goes unused.
  void OnSinkTuples(int worker, JobId job, std::int64_t tuples,
                    SimTime /*now*/);

  // ---- reads ----

  SampleStats Latency(JobId job) const;
  /// Fraction of outputs that met the job's latency constraint.
  double SuccessRate(JobId job) const;
  std::uint64_t outputs(JobId job) const;
  std::int64_t sink_tuples(JobId job) const;
  std::int64_t processed(JobId job) const;
  /// Processed tuples per second of the run ending at `span`: element i is
  /// the count in [i s, (i+1) s).
  std::vector<std::int64_t> ProcessedPerSecond(JobId job, SimTime span) const;
  std::vector<JobId> jobs() const;

 private:
  struct Arrivals {
    Duration constraint = 0;
    LogicalTime window = 0;
    LogicalTime slide = 0;
    LogicalTime gap = 0;
    // slide-bucket index -> last arrival time of any event in the bucket
    std::unordered_map<std::int64_t, SimTime> last_arrival;
    std::vector<std::int64_t> processed_per_second;  // tuples per second
  };
  struct SinkStats {
    SampleStats latency;
    std::uint64_t outputs = 0;
    std::uint64_t met = 0;
    std::int64_t sink_tuples = 0;
  };
  struct Worker {
    mutable std::mutex mu;
    std::unordered_map<JobId, SinkStats> jobs;
  };

  Arrivals& ArrivalsOf(JobId job);
  const Arrivals& ArrivalsOf(JobId job) const;
  Worker& WorkerAt(int index);
  /// Calls `f` with `job`'s sink stats of every worker, each under its
  /// worker's mutex.
  template <typename F>
  void ForEachWorker(JobId job, F&& f) const;

  mutable std::mutex arrival_mu_;
  std::unordered_map<JobId, Arrivals> arrivals_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace cameo
