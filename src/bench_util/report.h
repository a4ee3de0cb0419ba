// Console reporting helpers shared by the benchmark binaries: every bench
// prints a figure banner, aligned rows, and (where useful) CSV-ready series.
#pragma once

#include <string>
#include <vector>

#include "sim/driver.h"

namespace cameo {

/// Prints "=== Figure N: title ===" with the paper's expectation underneath.
void PrintFigureBanner(const std::string& figure, const std::string& title,
                       const std::string& paper_expectation);

/// Prints one aligned row of label -> columns.
void PrintRow(const std::string& label, const std::vector<std::string>& cols);

/// Header variant of PrintRow.
void PrintHeaderRow(const std::string& label,
                    const std::vector<std::string>& cols);

std::string FormatMs(double ms);
std::string FormatPct(double fraction);

/// Prints a CDF as "value_ms percentile" lines, `points` rows.
void PrintCdf(const SampleStats& stats, const std::string& label,
              std::size_t points = 10);

/// Machine-readable result sink for one benchmark scenario. Scenarios record
/// headline numbers as flat named metrics; the runner serializes the report
/// to `BENCH_<name>.json` so runs can be diffed across commits. Insertion
/// order is preserved in the output.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Attaches a string annotation (figure id, mode, git describe, ...).
  void Meta(const std::string& key, const std::string& value);

  /// Records one scalar metric. Repeated keys overwrite (last write wins) so
  /// a scenario can refine a value as it narrows a sweep.
  void Metric(const std::string& key, double value);

  /// Records the standard per-figure summary of a finished run under
  /// `<scope>.`: utilization, message count, and per-job median/p95/p99/max
  /// latency, success rate, and throughput.
  void AddRun(const std::string& scope, const RunResult& result);

  /// Writes the report as a single JSON object. Returns false (and leaves a
  /// partial file, if any) on I/O failure. Non-finite metric values are
  /// serialized as null, since JSON has no NaN/Inf.
  bool WriteJson(const std::string& path) const;

  /// The serialized JSON body (what WriteJson writes).
  std::string ToJson() const;

  /// Recorded metrics in insertion order (used by the runner's --repeat
  /// aggregation).
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace cameo
