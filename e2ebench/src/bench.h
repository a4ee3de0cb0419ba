// Shared pieces of the end-to-end benchmark: options, the result record that
// becomes the final JSON line, the recording sink that captures what reaches
// each query's sink, the output checker, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "dataflow/graph.h"
#include "dataflow/operator.h"

namespace e2e {

using cameo::Duration;
using cameo::LogicalTime;
using cameo::Micros;
using cameo::Millis;
using cameo::Seconds;
using cameo::SimTime;

/// The engines' own seed (placement, fault schedule, in-program sampling).
/// It is fixed; --seed varies only the generated inputs, so a seed cannot
/// change where operators land and the figures measure the system, not
/// placement luck.
constexpr std::uint64_t kEngineSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its Chrome trace file into.
  std::string out_dir = ".";
};

/// One run's verdict and metrics; printed as the last stdout line.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Human-readable table (stderr-free; goes to stdout before the JSON line).
  void PrintTable(const std::string& title) const;
  void PrintJson() const;
};

/// Wall clock in ns (steady, process-wide origin irrelevant).
inline SimTime NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// q in [0, 100]; nearest-rank on a sorted copy. 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double PeakRssMb();

/// Host-speed calibration. The shared host's speed swings by 2x within an
/// hour, more than any median within one run can remove. Each Sample() times
/// a fixed, benchmark-owned, memory-bound pass: binary searches of a 16 MB
/// sorted table, the access pattern of the simulator's Zipf lookups. A rate
/// times Scale() is that rate on a host where the pass takes
/// kReferenceSeconds (about its time on the defining host when quiet). The
/// pass slows less than the program does, so this cancels most, not all, of
/// a swing. It never runs the program's code, so a change to the program
/// cannot move it.
class HostSpeed {
 public:
  static constexpr double kReferenceSeconds = 0.0075;

  HostSpeed();  // builds the table, untimed
  void Sample();
  /// Median pass time over kReferenceSeconds (1 before any sample).
  double Scale() const;
  double median_s() const;

 private:
  std::vector<double> table_;
  std::vector<double> samples_;
};

/// Adds setup_s, sustainable_events_per_s and sim_events_per_wall_s in
/// reference-host time (see HostSpeed), and prints their wall-clock values.
void AddTimingMetrics(Result& r, const HostSpeed& host, double setup_s,
                      double sustainable_events_per_s, double sim_events_per_wall_s);

/// Allocation count of the process (counting operator new in the traced
/// binary; always 0 in the timed binary).
std::uint64_t AllocCount();
bool AllocCountingEnabled();

/// 64-bit mix used for the keyed checksums (independent of the program's
/// own key hash, so a routing bug cannot cancel out in the check).
inline std::uint64_t CheckMix(std::int64_t key) {
  std::uint64_t z = static_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-window aggregate of one query's output (or of its inputs, for the
/// reference): row total, key-weighted checksum, and the logical time of the
/// last contributing input event.
struct WindowSums {
  double total = 0;         // sum of values (1-row: event values; keyed: counts)
  std::uint64_t mix = 0;    // sum of CheckMix(key) * count (keyed only)
  LogicalTime last_p = 0;   // latest input logical time in the window
  bool operator==(const WindowSums& o) const {
    return total == o.total && mix == o.mix;
  }
};

/// One batch that reached a sink.
struct SinkRecord {
  LogicalTime window_end = 0;
  double total = 0;
  std::uint64_t mix = 0;
  SimTime emit = 0;  // wall ns (wall backends) or virtual ns (sim)
};

/// Terminal operator that keeps every output batch's window aggregate. One
/// instance per sink replica; the runtime never invokes one concurrently
/// with itself, and records are read only after the engine drained.
class RecordingSink final : public cameo::Operator {
 public:
  RecordingSink(std::string name, bool wall_clock);

  void Invoke(const cameo::Message& m, cameo::InvokeContext& ctx) override;
  bool is_sink() const override { return true; }

  const std::vector<SinkRecord>& records() const { return records_; }

 private:
  bool wall_clock_;
  std::vector<SinkRecord> records_;
};

/// Window-end -> sums of one query (expected, or as received).
using Reference = std::map<LogicalTime, WindowSums>;

/// What reached `sinks`, summed per window across replicas.
Reference SumSinks(const std::vector<const RecordingSink*>& sinks);

/// Compares what reached a query's sinks (`got`, see SumSinks) with the
/// reference. Windows whose end is <= `complete_until` must be present.
struct CheckOutcome {
  std::int64_t windows_checked = 0;
  std::int64_t mismatched = 0;
  std::int64_t missing = 0;
  std::int64_t unexpected = 0;
  std::string first_problem;
  std::int64_t failures() const { return mismatched + missing + unexpected; }
};
CheckOutcome CheckOutputs(const Reference& expected, const Reference& got,
                          LogicalTime complete_until);

/// Proves the checker can fail: perturbs one expected window that was
/// emitted and requires CheckOutputs to flag it. False if it did not.
bool CheckerSelfTest(const Reference& expected, const Reference& got,
                     LogicalTime complete_until);

/// Workload entry points.
Result RunFineMt(const Options& o);
Result RunCoarseKeyed(const Options& o);
Result RunSimShards(const Options& o);

}  // namespace e2e
