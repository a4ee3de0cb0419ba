// Deterministic random number generation for workloads and noise injection.
//
// Every stochastic component takes an explicit `Rng&` (never a global) so a
// simulation run is reproducible from a single seed. The Pareto distribution
// mirrors the paper's Section 6.2 "Pareto event arrival" experiments; the
// power-law (Zipf) sampler models Figure 2(a)'s long-tail volume distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

namespace cameo {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform in [0, 1).
  double Uniform01() { return unit_(engine_); }

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform01(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Normal with mean mu and standard deviation sigma (>= 0).
  double Normal(double mu, double sigma);

  /// Pareto with shape alpha (> 0) and scale x_min (> 0): support [x_min, inf).
  /// Mean = alpha * x_min / (alpha - 1) for alpha > 1.
  double Pareto(double alpha, double x_min);

  /// Bernoulli trial.
  bool Chance(double p) { return Uniform01() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Zipf sampler over ranks {0, ..., n-1} with exponent s: P(k) ~ 1/(k+1)^s.
/// Used to synthesize the long-tailed per-stream volume split of Fig. 2(a).
///
/// Inverse-CDF sampling with Chen-Asau indexed search: `guide[j]` is the
/// first rank whose CDF reaches j/n, so a draw u starts at guide[floor(u*n)]
/// and steps up a rank or two to land on exactly what std::lower_bound over
/// the CDF would return -- seeded key streams are unchanged, at O(1)
/// expected cost instead of a cache-missing binary search. The immutable
/// table is shared by every sampler with the same (n, s) through a
/// process-wide cache of weak references (its lock is taken only at
/// construction).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t Sample(Rng& rng) const { return SampleAt(rng.Uniform01()); }

  /// The rank drawn for uniform variate `u` in [0, 1): the first rank whose
  /// CDF is >= u, clamped to n-1.
  std::size_t SampleAt(double u) const;

  /// Probability mass of rank k (for tests and workload sizing).
  double Pmf(std::size_t k) const;

  /// Identity of the shared table (samplers with equal (n, s) share one).
  const void* table_id() const { return table_.get(); }

 private:
  struct Table {
    std::vector<double> cdf;
    std::vector<std::uint32_t> guide;
  };
  static std::shared_ptr<const Table> BuildTable(std::size_t n, double s);

  std::shared_ptr<const Table> table_;
};

}  // namespace cameo
