// Unit tests for src/common: time helpers, ids, RNG distributions,
// percentile statistics, and the updatable heap.
#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"

namespace cameo {
namespace {

using namespace cameo::literals;

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Millis(1), 1'000'000);
  EXPECT_EQ(Seconds(2), 2'000'000'000);
  EXPECT_EQ(Micros(3), 3'000);
  EXPECT_EQ(1_s, Seconds(1));
  EXPECT_EQ(5_ms, Millis(5));
  EXPECT_EQ(7_us, Micros(7));
  EXPECT_DOUBLE_EQ(ToMillis(Millis(1500)), 1500.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Millis(1500)), 1.5);
}

TEST(IdsTest, ValidityAndOrdering) {
  OperatorId unset;
  EXPECT_FALSE(unset.valid());
  OperatorId a{3}, b{5};
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_EQ(a, OperatorId{3});
  EXPECT_NE(a, b);
}

TEST(IdsTest, DistinctTagTypesDoNotMix) {
  static_assert(!std::is_same_v<JobId, OperatorId>);
  static_assert(std::is_same_v<decltype(JobId{1}.value), std::int64_t>);
}

TEST(IdsTest, Hashable) {
  std::hash<OperatorId> h;
  EXPECT_EQ(h(OperatorId{42}), h(OperatorId{42}));
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform01(), b.Uniform01());
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, NormalMoments) {
  Rng rng(4);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, NormalZeroSigmaIsDeterministic) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.Normal(3.5, 0.0), 3.5);
}

TEST(RngTest, ParetoSupportAndMean) {
  Rng rng(6);
  double sum = 0;
  const int n = 50000;
  const double alpha = 3.0, xm = 2.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Pareto(alpha, xm);
    ASSERT_GE(v, xm);
    sum += v;
  }
  // E = alpha*xm/(alpha-1) = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, ParetoIsHeavyTailed) {
  Rng rng(7);
  // With alpha = 1.2 the max of 10k draws should dwarf the median draw.
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.Pareto(1.2, 1.0));
  std::sort(v.begin(), v.end());
  EXPECT_GT(v.back(), 50 * v[v.size() / 2]);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.2);
  double sum = 0;
  for (std::size_t k = 0; k < 100; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroIsMostLikely) {
  ZipfSampler zipf(50, 1.0);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(49));
}

TEST(ZipfTest, SamplesFollowPmf) {
  ZipfSampler zipf(10, 1.5);
  Rng rng(8);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.Pmf(k), 0.01);
  }
}

// Reference sampler: the same inverse CDF searched with std::lower_bound,
// clamped to the last rank.
struct ReferenceZipf {
  std::vector<double> cdf;

  ReferenceZipf(std::size_t n, double s) : cdf(n) {
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf[k] = sum;
    }
    for (double& v : cdf) v /= sum;
  }

  std::size_t Rank(double u) const {
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end()) return cdf.size() - 1;
    return static_cast<std::size_t>(it - cdf.begin());
  }
};

TEST(ZipfTest, GuideTableMatchesBinarySearchExactly) {
  const std::pair<std::size_t, double> kCases[] = {
      {1, 1.0},      {2, 0.5},      {10, 1.5},      {100, 1.2},
      {1000, 0.0},   {125000, 1.2}, {500000, 0.9},  {1000000, 1.1}};
  constexpr int kDraws = 2'000'000;
  for (const auto& [n, s] : kCases) {
    const ZipfSampler zipf(n, s);
    const ReferenceZipf ref(n, s);

    Rng a(n * 31 + 7);
    Rng b(n * 31 + 7);
    std::int64_t mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      mismatches += zipf.Sample(a) != ref.Rank(b.Uniform01());
    }
    EXPECT_EQ(mismatches, 0) << "n=" << n << " s=" << s;

    // Boundary draws: u = 0, u just below 1, and u exactly on (and one ulp
    // either side of) CDF entries -- where lower_bound's ties decide -- and
    // guide-bucket edges j/n, where u*n rounds.
    EXPECT_EQ(zipf.SampleAt(0.0), ref.Rank(0.0));
    const double top = std::nextafter(1.0, 0.0);
    EXPECT_EQ(zipf.SampleAt(top), ref.Rank(top));
    const std::size_t stride = std::max<std::size_t>(1, n / 20000);
    for (std::size_t k = 0; k < n; k += stride) {
      const double edge = static_cast<double>(k) / static_cast<double>(n);
      for (double u : {ref.cdf[k], std::nextafter(ref.cdf[k], 0.0),
                       std::nextafter(ref.cdf[k], 1.0), edge,
                       std::nextafter(edge, 0.0), std::nextafter(edge, 1.0)}) {
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(zipf.SampleAt(u), ref.Rank(u))
            << "n=" << n << " s=" << s << " k=" << k << " u=" << u;
      }
    }
  }
}

TEST(ZipfTest, SamplersOfOneDistributionShareATable) {
  const ZipfSampler a(1000, 1.1);
  const ZipfSampler b(1000, 1.1);
  const ZipfSampler other_s(1000, 1.2);
  const ZipfSampler other_n(999, 1.1);
  EXPECT_EQ(a.table_id(), b.table_id());
  EXPECT_NE(a.table_id(), other_s.table_id());
  EXPECT_NE(a.table_id(), other_n.table_id());
  EXPECT_NE(other_s.table_id(), other_n.table_id());
  // A copy shares too; the table outlives the sampler that built it.
  const ZipfSampler* built = new ZipfSampler(77, 0.7);
  const ZipfSampler copy = *built;
  const void* id = built->table_id();
  delete built;
  EXPECT_EQ(copy.table_id(), id);
  EXPECT_EQ(ZipfSampler(77, 0.7).table_id(), id);
}

TEST(SampleStatsTest, BasicOrderStatistics) {
  SampleStats s;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 5.0);
}

TEST(SampleStatsTest, PercentileInterpolates) {
  SampleStats s;
  s.Add(0.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 2.5);
}

TEST(SampleStatsTest, SingleSample) {
  SampleStats s;
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 7.0);
  EXPECT_DOUBLE_EQ(s.Stdev(), 0.0);
}

TEST(SampleStatsTest, StdevMatchesClosedForm) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_NEAR(s.Stdev(), 2.0, 1e-12);  // classic example, population stdev
}

TEST(SampleStatsTest, MergeCombinesSamples) {
  SampleStats a, b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(SampleStatsTest, CdfIsMonotone) {
  SampleStats s;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) s.Add(rng.Uniform(0, 100));
  auto cdf = s.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(LogHistogramTest, PercentileApproximatesExact) {
  LogHistogram h(1.0, 1.1, 256);
  SampleStats exact;
  Rng rng(10);
  for (int i = 0; i < 20000; ++i) {
    double v = rng.Pareto(2.0, 10.0);
    h.Add(v);
    exact.Add(v);
  }
  // Log-bucketed estimate is within one bucket multiplier (1.1x) + rank noise.
  for (double q : {50.0, 90.0, 99.0}) {
    double approx = h.Percentile(q);
    double truth = exact.Percentile(q);
    EXPECT_GT(approx, truth * 0.85) << q;
    EXPECT_LT(approx, truth * 1.25) << q;
  }
}

TEST(LogHistogramTest, UnderflowGoesToMinValue) {
  LogHistogram h(100.0, 2.0, 8);
  h.Add(1.0);
  h.Add(2.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 100.0);
}

}  // namespace
}  // namespace cameo
