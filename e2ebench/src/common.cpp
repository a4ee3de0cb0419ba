#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace e2e {

void Result::PrintTable(const std::string& title) const {
  std::printf("== %s ==\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-44s %16" PRId64 "\n", "attempted", attempted);
  std::printf("  %-44s %16" PRId64 "\n", "failed", failed);
  std::printf("  %-44s %16.6f fraction\n", "error_rate",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0);
  std::printf("  %-44s %16s\n", "correct", correct ? "true" : "false");
}

void Result::PrintJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                attempted, failed);
  out += buf;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/inf; a non-finite measurement is reported as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostSpeed::HostSpeed() : table_(std::size_t{1} << 21) {
  for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = static_cast<double>(i);
  Sample();  // first touch of the table: page faults, not counted
  samples_.clear();
}

void HostSpeed::Sample() {
  constexpr int kSearches = 20'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const double n = static_cast<double>(table_.size());
  std::size_t acc = 0;
  const SimTime t0 = NowNs();
  for (int i = 0; i < kSearches; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53 * n;
    acc += static_cast<std::size_t>(
        std::upper_bound(table_.begin(), table_.end(), u) - table_.begin());
  }
  samples_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  // Keeps the searches from being optimized away.
  if (acc == 0) std::printf("host speed calibration: no searches ran\n");
}

double HostSpeed::median_s() const { return Median(samples_); }

double HostSpeed::Scale() const {
  return samples_.empty() ? 1.0 : median_s() / kReferenceSeconds;
}

void AddTimingMetrics(Result& r, const HostSpeed& host, double setup_s,
                      double sustainable_events_per_s, double sim_events_per_wall_s) {
  const double scale = host.Scale();
  std::printf("host speed: calibration pass %.4f ms (median), scale %.4f; wall-clock "
              "setup_s %.6f s, sustainable_events_per_s %.1f, sim_events_per_wall_s %.1f\n",
              host.median_s() * 1e3, scale, setup_s, sustainable_events_per_s,
              sim_events_per_wall_s);
  r.Add("setup_s", setup_s / scale, "s");
  r.Add("sustainable_events_per_s", sustainable_events_per_s * scale, "events/s");
  r.Add("sim_events_per_wall_s", sim_events_per_wall_s * scale, "events/s");
}

#ifndef E2E_COUNT_ALLOCS
std::uint64_t AllocCount() { return 0; }
bool AllocCountingEnabled() { return false; }
#endif

RecordingSink::RecordingSink(std::string name, bool wall_clock)
    : Operator(std::move(name), cameo::WindowSpec::Regular(),
               cameo::CostModel{cameo::Micros(50), 0, 0.0}),
      wall_clock_(wall_clock) {
  // Sized for the longest run, so recording never allocates mid-run.
  records_.reserve(1 << 17);
}

void RecordingSink::Invoke(const cameo::Message& m, cameo::InvokeContext& ctx) {
  const cameo::EventBatch& b = m.batch;
  if (b.size() == 0) return;  // progress-only batch of an empty window
  SinkRecord r;
  r.window_end = b.progress;
  for (std::size_t i = 0; i < b.keys.size(); ++i) {
    r.total += b.values[i];
    r.mix += CheckMix(b.keys[i]) * static_cast<std::uint64_t>(b.values[i]);
  }
  r.total += static_cast<double>(b.synthetic_count);
  r.emit = wall_clock_ ? NowNs() : ctx.now;
  records_.push_back(r);
}

Reference SumSinks(const std::vector<const RecordingSink*>& sinks) {
  Reference got;
  for (const RecordingSink* s : sinks) {
    for (const SinkRecord& r : s->records()) {
      WindowSums& w = got[r.window_end];
      w.total += r.total;
      w.mix += r.mix;
    }
  }
  return got;
}

CheckOutcome CheckOutputs(const Reference& expected, const Reference& got,
                          LogicalTime complete_until) {
  CheckOutcome out;
  char buf[200];
  for (const auto& [end, want] : expected) {
    auto it = got.find(end);
    if (it == got.end()) {
      if (end <= complete_until) {
        ++out.missing;
        ++out.windows_checked;
        if (out.first_problem.empty()) {
          std::snprintf(buf, sizeof buf, "window %" PRId64 " missing", end);
          out.first_problem = buf;
        }
      }
      continue;
    }
    ++out.windows_checked;
    if (!(it->second == want)) {
      ++out.mismatched;
      if (out.first_problem.empty()) {
        std::snprintf(buf, sizeof buf,
                      "window %" PRId64 ": got total %.0f mix %016" PRIx64
                      ", want %.0f mix %016" PRIx64,
                      end, it->second.total, it->second.mix, want.total,
                      want.mix);
        out.first_problem = buf;
      }
    }
  }
  for (const auto& [end, sums] : got) {
    if (expected.count(end) == 0) {
      ++out.unexpected;
      if (out.first_problem.empty()) {
        std::snprintf(buf, sizeof buf,
                      "window %" PRId64 " emitted (total %.0f) but no input",
                      end, sums.total);
        out.first_problem = buf;
      }
    }
  }
  return out;
}

bool CheckerSelfTest(const Reference& expected, const Reference& got,
                     LogicalTime complete_until) {
  for (const auto& entry : got) {
    if (expected.count(entry.first) == 0) continue;
    Reference wrong = expected;
    wrong[entry.first].total += 1;
    return CheckOutputs(wrong, got, complete_until).mismatched > 0;
  }
  return false;  // nothing was emitted: the check proved nothing
}

}  // namespace e2e
