#include "metrics/latency_recorder.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace cameo {

LatencyRecorder::LatencyRecorder(int worker_shards) {
  CAMEO_EXPECTS(worker_shards >= 1);
  workers_.reserve(static_cast<std::size_t>(worker_shards));
  for (int i = 0; i < worker_shards; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

void LatencyRecorder::RegisterJob(JobId job, Duration latency_constraint,
                                  LogicalTime output_window,
                                  LogicalTime output_slide,
                                  LogicalTime session_gap) {
  CAMEO_EXPECTS(output_slide >= 0 && output_window >= output_slide);
  CAMEO_EXPECTS(session_gap >= 0 && (session_gap == 0 || output_slide > 0));
  {
    std::lock_guard lock(arrival_mu_);
    CAMEO_EXPECTS(arrivals_.find(job) == arrivals_.end());
    Arrivals& a = arrivals_[job];
    a.constraint = latency_constraint;
    a.window = output_window;
    a.slide = output_slide;
    a.gap = session_gap;
  }
  for (auto& w : workers_) {
    std::lock_guard lock(w->mu);
    w->jobs.emplace(job, SinkStats{});
  }
}

LatencyRecorder::Arrivals& LatencyRecorder::ArrivalsOf(JobId job) {
  auto it = arrivals_.find(job);
  CAMEO_EXPECTS(it != arrivals_.end());
  return it->second;
}

const LatencyRecorder::Arrivals& LatencyRecorder::ArrivalsOf(JobId job) const {
  auto it = arrivals_.find(job);
  CAMEO_EXPECTS(it != arrivals_.end());
  return it->second;
}

LatencyRecorder::Worker& LatencyRecorder::WorkerAt(int index) {
  CAMEO_EXPECTS(index >= 0 &&
                static_cast<std::size_t>(index) < workers_.size());
  return *workers_[static_cast<std::size_t>(index)];
}

template <typename F>
void LatencyRecorder::ForEachWorker(JobId job, F&& f) const {
  for (const auto& w : workers_) {
    std::lock_guard lock(w->mu);
    auto it = w->jobs.find(job);
    CAMEO_EXPECTS(it != w->jobs.end());
    f(it->second);
  }
}

void LatencyRecorder::OnSourceEvent(JobId job, LogicalTime p, SimTime arrival) {
  std::lock_guard lock(arrival_mu_);
  Arrivals& a = ArrivalsOf(job);
  if (a.slide == 0) return;  // per-message jobs do not bucket arrivals
  // Inclusive-right windows: the event at logical time p falls in the slide
  // bucket ending at ceil(p / S) * S, indexed by ceil(p / S).
  std::int64_t bucket = (p + a.slide - 1) / a.slide;
  SimTime& last = a.last_arrival[bucket];
  last = std::max(last, arrival);
}

void LatencyRecorder::OnProcessed(JobId job, std::int64_t tuples,
                                  SimTime now) {
  CAMEO_EXPECTS(now >= 0);
  std::lock_guard lock(arrival_mu_);
  Arrivals& a = ArrivalsOf(job);
  const auto second = static_cast<std::size_t>(now / kSecond);
  if (second >= a.processed_per_second.size()) {
    a.processed_per_second.resize(second + 1, 0);
  }
  a.processed_per_second[second] += tuples;
}

void LatencyRecorder::OnSinkOutput(int worker, JobId job,
                                   LogicalTime window_end, SimTime emit) {
  Worker& w = WorkerAt(worker);
  SimTime last = kTimeMin;
  Duration constraint = 0;
  {
    std::lock_guard lock(arrival_mu_);
    const Arrivals& a = ArrivalsOf(job);
    constraint = a.constraint;
    if (a.slide == 0) {
      last = window_end;  // the caller passes the event arrival time
    } else {
      // Window (B - W, B] spans slide buckets (B - W)/S + 1 .. B/S
      // inclusive.
      std::int64_t from = (window_end - a.window) / a.slide + 1;
      std::int64_t to = window_end / a.slide;
      if (a.gap > 0) {
        // A session closes at B = (its last event) + gap: read that event's
        // bucket, ceil((B - gap) / S), which the range above misses whenever
        // the last event lies on a multiple of S.
        from = to = (window_end - a.gap + a.slide - 1) / a.slide;
      }
      for (std::int64_t b = from; b <= to; ++b) {
        auto it = a.last_arrival.find(b);
        if (it != a.last_arrival.end()) last = std::max(last, it->second);
      }
      if (last == kTimeMin) return;  // empty window: no latency defined
    }
  }
  const Duration latency = emit - last;
  std::lock_guard lock(w.mu);
  auto it = w.jobs.find(job);
  CAMEO_EXPECTS(it != w.jobs.end());
  SinkStats& s = it->second;
  s.latency.Add(static_cast<double>(latency));
  ++s.outputs;
  if (latency <= constraint) ++s.met;
}

void LatencyRecorder::OnSinkTuples(int worker, JobId job, std::int64_t tuples,
                                   SimTime /*now*/) {
  Worker& w = WorkerAt(worker);
  std::lock_guard lock(w.mu);
  auto it = w.jobs.find(job);
  CAMEO_EXPECTS(it != w.jobs.end());
  it->second.sink_tuples += tuples;
}

SampleStats LatencyRecorder::Latency(JobId job) const {
  SampleStats out;
  ForEachWorker(job, [&](const SinkStats& s) { out.Merge(s.latency); });
  return out;
}

double LatencyRecorder::SuccessRate(JobId job) const {
  std::uint64_t outputs = 0;
  std::uint64_t met = 0;
  ForEachWorker(job, [&](const SinkStats& s) {
    outputs += s.outputs;
    met += s.met;
  });
  if (outputs == 0) return 0;
  return static_cast<double>(met) / static_cast<double>(outputs);
}

std::uint64_t LatencyRecorder::outputs(JobId job) const {
  std::uint64_t outputs = 0;
  ForEachWorker(job, [&](const SinkStats& s) { outputs += s.outputs; });
  return outputs;
}

std::int64_t LatencyRecorder::sink_tuples(JobId job) const {
  std::int64_t tuples = 0;
  ForEachWorker(job, [&](const SinkStats& s) { tuples += s.sink_tuples; });
  return tuples;
}

std::int64_t LatencyRecorder::processed(JobId job) const {
  std::lock_guard lock(arrival_mu_);
  const std::vector<std::int64_t>& counts =
      ArrivalsOf(job).processed_per_second;
  return std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
}

std::vector<std::int64_t> LatencyRecorder::ProcessedPerSecond(
    JobId job, SimTime span) const {
  CAMEO_EXPECTS(span > 0);
  std::lock_guard lock(arrival_mu_);
  const std::vector<std::int64_t>& counts =
      ArrivalsOf(job).processed_per_second;
  std::vector<std::int64_t> out(
      static_cast<std::size_t>((span + kSecond - 1) / kSecond), 0);
  std::copy_n(counts.begin(), std::min(counts.size(), out.size()),
              out.begin());
  return out;
}

std::vector<JobId> LatencyRecorder::jobs() const {
  std::vector<JobId> out;
  {
    std::lock_guard lock(arrival_mu_);
    out.reserve(arrivals_.size());
    for (const auto& [id, a] : arrivals_) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cameo
