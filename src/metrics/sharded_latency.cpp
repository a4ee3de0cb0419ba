#include "metrics/sharded_latency.h"

#include "common/check.h"

namespace cameo {

ShardedLatencyRecorder::ShardedLatencyRecorder(int worker_shards) {
  CAMEO_EXPECTS(worker_shards >= 1);
  shards_.reserve(static_cast<std::size_t>(worker_shards));
  for (int i = 0; i < worker_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedLatencyRecorder::Shard& ShardedLatencyRecorder::ShardAt(int index) {
  CAMEO_EXPECTS(index >= 0 && static_cast<std::size_t>(index) < shards_.size());
  return *shards_[static_cast<std::size_t>(index)];
}

void ShardedLatencyRecorder::RegisterJob(JobId job, Duration latency_constraint,
                                         LogicalTime output_window,
                                         LogicalTime output_slide,
                                         LogicalTime session_gap) {
  {
    std::lock_guard lock(ingest_mu_);
    ingest_.RegisterJob(job, latency_constraint, output_window, output_slide,
                        session_gap);
  }
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->rec.RegisterJob(job, latency_constraint, output_window,
                           output_slide, session_gap);
  }
}

void ShardedLatencyRecorder::OnSourceEvent(JobId job, LogicalTime p,
                                           SimTime arrival) {
  std::lock_guard lock(ingest_mu_);
  ingest_.OnSourceEvent(job, p, arrival);
}

void ShardedLatencyRecorder::OnProcessed(JobId job, std::int64_t tuples,
                                         SimTime now) {
  std::lock_guard lock(ingest_mu_);
  ingest_.OnProcessed(job, tuples, now);
}

void ShardedLatencyRecorder::OnSinkOutput(int index, JobId job,
                                          LogicalTime window_end,
                                          SimTime emit) {
  Shard& s = ShardAt(index);
  std::optional<SimTime> last;
  {
    std::lock_guard lock(ingest_mu_);
    last = ingest_.LastArrivalFor(job, window_end);
  }
  if (!last.has_value()) return;  // empty window: no latency defined
  std::lock_guard lock(s.mu);
  s.rec.RecordOutput(job, emit, emit - *last);
}

void ShardedLatencyRecorder::OnSinkTuples(int index, JobId job,
                                          std::int64_t tuples, SimTime now) {
  Shard& s = ShardAt(index);
  std::lock_guard lock(s.mu);
  s.rec.OnSinkTuples(job, tuples, now);
}

LatencyRecorder ShardedLatencyRecorder::Merged() const {
  LatencyRecorder merged;
  {
    std::lock_guard lock(ingest_mu_);
    merged.MergeFrom(ingest_);
  }
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    merged.MergeFrom(shard->rec);
  }
  return merged;
}

SampleStats ShardedLatencyRecorder::Latency(JobId job) const {
  return Merged().Latency(job);
}

double ShardedLatencyRecorder::SuccessRate(JobId job) const {
  return Merged().SuccessRate(job);
}

std::uint64_t ShardedLatencyRecorder::outputs(JobId job) const {
  return Merged().outputs(job);
}

std::int64_t ShardedLatencyRecorder::sink_tuples(JobId job) const {
  return Merged().sink_tuples(job);
}

std::int64_t ShardedLatencyRecorder::processed(JobId job) const {
  std::lock_guard lock(ingest_mu_);
  return ingest_.processed(job);
}

Duration ShardedLatencyRecorder::constraint(JobId job) const {
  std::lock_guard lock(ingest_mu_);
  return ingest_.constraint(job);
}

std::vector<std::pair<SimTime, Duration>> ShardedLatencyRecorder::Series(
    JobId job) const {
  return Merged().Series(job);
}

std::vector<std::int64_t> ShardedLatencyRecorder::ThroughputBuckets(
    JobId job, Duration bucket, SimTime span) const {
  return Merged().ThroughputBuckets(job, bucket, span);
}

std::vector<std::int64_t> ShardedLatencyRecorder::ProcessedBuckets(
    JobId job, Duration bucket, SimTime span) const {
  return Merged().ProcessedBuckets(job, bucket, span);
}

std::vector<JobId> ShardedLatencyRecorder::jobs() const {
  std::lock_guard lock(ingest_mu_);
  return ingest_.jobs();
}

}  // namespace cameo
