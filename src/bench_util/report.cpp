#include "bench_util/report.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace cameo {

void PrintFigureBanner(const std::string& figure, const std::string& title,
                       const std::string& paper_expectation) {
  std::printf("\n=== %s: %s ===\n", figure.c_str(), title.c_str());
  if (!paper_expectation.empty()) {
    std::printf("paper: %s\n", paper_expectation.c_str());
  }
}

void PrintRow(const std::string& label, const std::vector<std::string>& cols) {
  std::printf("%-24s", label.c_str());
  for (const std::string& c : cols) std::printf(" %14s", c.c_str());
  std::printf("\n");
}

void PrintHeaderRow(const std::string& label,
                    const std::vector<std::string>& cols) {
  PrintRow(label, cols);
  std::printf("%.*s\n",
              static_cast<int>(24 + cols.size() * 15),
              "--------------------------------------------------------------"
              "--------------------------------------------------------------"
              "--------------------------------------------------------------");
}

std::string FormatMs(double ms) {
  char buf[32];
  if (ms >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ms / 1000);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fms", ms);
  }
  return buf;
}

std::string FormatPct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100);
  return buf;
}

void PrintCdf(const SampleStats& stats, const std::string& label,
              std::size_t points) {
  std::printf("CDF %s (latency_ms percentile):\n", label.c_str());
  if (stats.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  for (std::size_t i = 1; i <= points; ++i) {
    double q = 100.0 * static_cast<double>(i) / static_cast<double>(points);
    std::printf("  %10.2f  %5.1f\n", stats.Percentile(q) / kMillisecond, q);
  }
}

namespace {

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void AppendJsonNumber(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

void BenchReport::Meta(const std::string& key, const std::string& value) {
  for (auto& kv : meta_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void BenchReport::Metric(const std::string& key, double value) {
  for (auto& kv : metrics_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  metrics_.emplace_back(key, value);
}

void BenchReport::AddRun(const std::string& scope, const RunResult& result) {
  const std::string p = scope.empty() ? "" : scope + ".";
  Metric(p + "utilization", result.utilization);
  Metric(p + "messages", static_cast<double>(result.messages));
  for (const JobResult& j : result.jobs) {
    const std::string jp = p + j.name + ".";
    Metric(jp + "outputs", static_cast<double>(j.outputs));
    Metric(jp + "median_ms", j.median_ms);
    Metric(jp + "p95_ms", j.p95_ms);
    Metric(jp + "p99_ms", j.p99_ms);
    Metric(jp + "max_ms", j.max_ms);
    Metric(jp + "success_rate", j.success_rate);
    Metric(jp + "throughput_tuples_per_sec", j.throughput_tuples_per_sec);
  }
}

std::string BenchReport::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"bench\": ";
  AppendJsonString(out, name_);
  out << ",\n  \"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    out << (i ? ",\n    " : "\n    ");
    AppendJsonString(out, meta_[i].first);
    out << ": ";
    AppendJsonString(out, meta_[i].second);
  }
  out << (meta_.empty() ? "}" : "\n  }");
  out << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ",\n    " : "\n    ");
    AppendJsonString(out, metrics_[i].first);
    out << ": ";
    AppendJsonNumber(out, metrics_[i].second);
  }
  out << (metrics_.empty() ? "}" : "\n  }");
  out << "\n}\n";
  return out.str();
}

bool BenchReport::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = ToJson();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace cameo
