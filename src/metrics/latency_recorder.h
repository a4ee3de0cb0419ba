// Latency accounting using the paper's definition (§4.1): the latency of an
// output message M is the time between the *last* arrival of any event that
// influenced M and the time M is produced at the sink.
//
// Sources report every ingested event's (logical time, arrival time); events
// are bucketed by the job's output slide so that when the sink produces the
// output for window ending at boundary B, the recorder can look up the last
// contributing arrival in [B - output_window, B).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/time.h"

namespace cameo {

class LatencyRecorder {
 public:
  /// Declares a job. `output_window`/`output_slide` describe the final
  /// windowed stage in logical ticks (slide = window for tumbling output;
  /// slide 0 means per-message output: latency = emit - event arrival).
  /// `session_gap` > 0 marks a session-window output, whose boundary B is
  /// the session's last event time plus the gap.
  void RegisterJob(JobId job, Duration latency_constraint,
                   LogicalTime output_window, LogicalTime output_slide,
                   LogicalTime session_gap = 0);

  /// Called for every event ingested at a source of `job`.
  void OnSourceEvent(JobId job, LogicalTime p, SimTime arrival);

  /// Called when the sink produces the output whose window ends at logical
  /// boundary `window_end` (for slide 0 jobs: the event's own logical time).
  void OnSinkOutput(JobId job, LogicalTime window_end, SimTime emit);

  /// Last arrival time of any event contributing to the output whose window
  /// ends at `window_end`; nullopt for an empty window. (For slide-0 jobs the
  /// caller passes the event arrival time as `window_end`, which is echoed
  /// back.) This is the lookup half of OnSinkOutput, exposed so sharded
  /// recorders can resolve arrivals centrally and record samples per worker.
  std::optional<SimTime> LastArrivalFor(JobId job, LogicalTime window_end) const;

  /// Records one already-resolved output sample (the accumulation half of
  /// OnSinkOutput).
  void RecordOutput(JobId job, SimTime emit, Duration latency);

  /// Folds `other`'s per-job state into this recorder: samples, counters and
  /// series are summed/concatenated (series re-sorted by time), arrival
  /// buckets max-merged. Jobs unknown to this recorder are adopted as-is.
  void MergeFrom(const LatencyRecorder& other);

  /// Tuples observed at the sink (throughput accounting).
  void OnSinkTuples(JobId job, std::int64_t tuples, SimTime now = 0);

  /// Sink tuple counts bucketed into `bucket`-sized intervals of the run
  /// ending at `span`: element i is the tuple count in [i*bucket,
  /// (i+1)*bucket). Used for throughput-over-time plots (Fig. 6).
  std::vector<std::int64_t> ThroughputBuckets(JobId job, Duration bucket,
                                              SimTime span) const;

  /// Tuples *processed* by the job's source stage (ingestion volume actually
  /// served). This is the Fig. 6 throughput metric: windowed queries emit a
  /// fixed number of sink tuples per window regardless of input volume, so
  /// sink counts cannot show proportional shares.
  void OnProcessed(JobId job, std::int64_t tuples, SimTime now);
  std::vector<std::int64_t> ProcessedBuckets(JobId job, Duration bucket,
                                             SimTime span) const;
  std::int64_t processed(JobId job) const;

  const SampleStats& Latency(JobId job) const;
  /// Fraction of outputs that met the job's latency constraint.
  double SuccessRate(JobId job) const;
  std::uint64_t outputs(JobId job) const;
  std::int64_t sink_tuples(JobId job) const;
  Duration constraint(JobId job) const;

  /// (emit time, latency) series for timeline plots (Fig. 9).
  const std::vector<std::pair<SimTime, Duration>>& Series(JobId job) const;

  std::vector<JobId> jobs() const;

 private:
  struct JobState {
    Duration constraint = 0;
    LogicalTime window = 0;
    LogicalTime slide = 0;
    LogicalTime gap = 0;
    // slide-bucket index -> last arrival time of any event in the bucket
    std::unordered_map<std::int64_t, SimTime> last_arrival;
    SampleStats latency;
    std::uint64_t outputs = 0;
    std::uint64_t met = 0;
    std::int64_t sink_tuples = 0;
    std::vector<std::pair<SimTime, Duration>> series;
    std::vector<std::pair<SimTime, std::int64_t>> tuple_series;
    std::int64_t processed_tuples = 0;
    std::vector<std::pair<SimTime, std::int64_t>> processed_series;
  };

  static std::vector<std::int64_t> Bucketize(
      const std::vector<std::pair<SimTime, std::int64_t>>& series,
      Duration bucket, SimTime span);

  JobState& state(JobId job);
  const JobState& state(JobId job) const;

  std::unordered_map<JobId, JobState> jobs_;
};

}  // namespace cameo
