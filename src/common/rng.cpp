#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "common/check.h"

namespace cameo {

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  CAMEO_EXPECTS(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  CAMEO_EXPECTS(mean > 0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

double Rng::Normal(double mu, double sigma) {
  CAMEO_EXPECTS(sigma >= 0);
  if (sigma == 0) return mu;
  std::normal_distribution<double> dist(mu, sigma);
  return dist(engine_);
}

double Rng::Pareto(double alpha, double x_min) {
  CAMEO_EXPECTS(alpha > 0);
  CAMEO_EXPECTS(x_min > 0);
  // Inverse-CDF sampling: F(x) = 1 - (x_min/x)^alpha.
  double u = Uniform01();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return x_min / std::pow(1.0 - u, 1.0 / alpha);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  CAMEO_EXPECTS(n > 0 && n <= std::numeric_limits<std::uint32_t>::max());
  // One table per (n, s) for the whole process: an engine's source replicas
  // (and every engine of a sweep) sample the same distribution.
  std::uint64_t s_bits;
  std::memcpy(&s_bits, &s, sizeof s_bits);
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::uint64_t>,
                  std::weak_ptr<const Table>>
      cache;
  std::lock_guard lock(mu);
  std::weak_ptr<const Table>& slot = cache[{n, s_bits}];
  table_ = slot.lock();
  if (table_ != nullptr) return;
  table_ = BuildTable(n, s);
  slot = table_;
  for (auto it = cache.begin(); it != cache.end();) {
    it = it->second.expired() ? cache.erase(it) : std::next(it);
  }
}

namespace {

/// The guide bucket of a probability: floor(p * n), clamped to n - 1.
std::size_t Bucket(double p, std::size_t n) {
  return std::min(static_cast<std::size_t>(p * static_cast<double>(n)), n - 1);
}

}  // namespace

std::shared_ptr<const ZipfSampler::Table> ZipfSampler::BuildTable(
    std::size_t n, double s) {
  auto t = std::make_shared<Table>();
  t->cdf.resize(n);
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    t->cdf[k] = sum;
  }
  for (double& v : t->cdf) v /= sum;
  // guide[j] = first rank whose CDF falls in bucket >= j, i.e. (up to the
  // rounding of u*n) the first rank with cdf >= j/n. Bucketing the CDF with
  // the very function SampleAt applies to u keeps the guide a lower bound:
  // u <= cdf[r] implies Bucket(u) <= Bucket(cdf[r]), since rounding a
  // product is monotone. cdf[n-1] == 1 lands in bucket n-1, so every bucket
  // has a rank.
  t->guide.resize(n);
  std::size_t k = 0;
  for (std::size_t j = 0; j < n; ++j) {
    while (k + 1 < n && Bucket(t->cdf[k], n) < j) ++k;
    t->guide[j] = static_cast<std::uint32_t>(k);
  }
  return t;
}

std::size_t ZipfSampler::SampleAt(double u) const {
  const double* cdf = table_->cdf.data();
  const std::size_t n = table_->cdf.size();
  // The guide never overshoots the answer, so stepping up to the first rank
  // with cdf >= u returns exactly what std::lower_bound over the CDF would,
  // clamped to n-1.
  std::size_t k = table_->guide[Bucket(u, n)];
  while (k + 1 < n && cdf[k] < u) ++k;
  return k;
}

double ZipfSampler::Pmf(std::size_t k) const {
  const std::vector<double>& cdf = table_->cdf;
  CAMEO_EXPECTS(k < cdf.size());
  return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

}  // namespace cameo
