#include "sim/driver.h"

#include <algorithm>
#include <utility>

namespace cameo {

double RunResult::GroupPercentile(const std::string& prefix, double q) const {
  SampleStats merged;
  for (const auto& [name, stats] : samples) {
    if (name.rfind(prefix, 0) == 0) merged.Merge(stats);
  }
  if (merged.empty()) return 0;
  return merged.Percentile(q) / kMillisecond;
}

double RunResult::GroupSuccessRate(const std::string& prefix) const {
  double met = 0, total = 0;
  for (const JobResult& j : jobs) {
    if (j.name.rfind(prefix, 0) != 0) continue;
    met += j.success_rate * static_cast<double>(j.outputs);
    total += static_cast<double>(j.outputs);
  }
  return total == 0 ? 0 : met / total;
}

double RunResult::GroupThroughput(const std::string& prefix) const {
  double sum = 0;
  for (const JobResult& j : jobs) {
    if (j.name.rfind(prefix, 0) == 0) sum += j.processed_tuples_per_sec;
  }
  return sum;
}

RunResult SummarizeRun(Cluster& cluster, SimTime span) {
  RunResult out;
  out.utilization = cluster.utilization().Utilization();
  out.sched = cluster.sched_stats();  // merged across shards
  out.messages = cluster.messages_delivered();
  // Thread-safe snapshot (each policy locks internally), merged across
  // shards by counter name -- also readable mid-run, not just at summary.
  out.policy_counters = cluster.PolicyCountersSnapshot();
  for (JobId job : cluster.latency().jobs()) {
    JobResult r;
    r.job = job;
    r.name = cluster.graph().job(job).name;
    SampleStats stats = cluster.latency().Latency(job);
    r.outputs = cluster.latency().outputs(job);
    if (!stats.empty()) {
      r.median_ms = stats.Percentile(50) / kMillisecond;
      r.p95_ms = stats.Percentile(95) / kMillisecond;
      r.p99_ms = stats.Percentile(99) / kMillisecond;
      r.mean_ms = stats.Mean() / kMillisecond;
      r.stdev_ms = stats.Stdev() / kMillisecond;
      r.max_ms = stats.Max() / kMillisecond;
    }
    r.success_rate = cluster.latency().SuccessRate(job);
    r.throughput_tuples_per_sec =
        static_cast<double>(cluster.latency().sink_tuples(job)) /
        ToSeconds(span);
    r.processed_tuples_per_sec =
        static_cast<double>(cluster.latency().processed(job)) /
        ToSeconds(span);
    out.jobs.push_back(r);
    out.samples.emplace_back(r.name, std::move(stats));
  }
  std::sort(out.jobs.begin(), out.jobs.end(),
            [](const JobResult& a, const JobResult& b) { return a.job < b.job; });
  return out;
}

}  // namespace cameo
