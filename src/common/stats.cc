#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace catfish {

RunningStat RunningStat::FromMoments(uint64_t n, double sum, double m2,
                                     double min, double max) noexcept {
  RunningStat s;
  if (n == 0) return s;
  s.n_ = n;
  s.sum_ = sum;
  s.mean_ = sum / static_cast<double>(n);
  s.m2_ = std::max(m2, 0.0);
  s.min_ = min;
  s.max_ = max;
  return s;
}

void RunningStat::Add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const uint64_t total = n_ + other.n_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ = total;
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

LogHistogram::LogHistogram(double min_value, double growth)
    : min_value_(min_value), log_growth_(std::log(growth)) {}

size_t LogHistogram::BucketFor(double value) const noexcept {
  if (!(value > min_value_)) return 0;
  return 1 + static_cast<size_t>(std::log(value / min_value_) / log_growth_);
}

double LogHistogram::BucketLower(size_t idx) const noexcept {
  if (idx == 0) return 0.0;
  return min_value_ * std::exp(log_growth_ * static_cast<double>(idx - 1));
}

LogHistogram LogHistogram::FromParts(std::vector<uint64_t> buckets,
                                     double sum, double sum_squares,
                                     double min, double max) {
  LogHistogram h;
  uint64_t n = 0;
  size_t lo = buckets.size();
  size_t hi = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    n += buckets[i];
    lo = std::min(lo, i);
    hi = i;
  }
  if (n == 0) return h;
  if (!(min <= max)) {
    min = h.BucketLower(lo);
    max = h.BucketLower(hi + 1);
  }
  const double mean = sum / static_cast<double>(n);
  h.stat_ = RunningStat::FromMoments(n, sum, sum_squares - sum * mean, min,
                                     max);
  h.buckets_ = std::move(buckets);
  return h;
}

void LogHistogram::Add(double value) noexcept {
  stat_.Add(value);
  const size_t idx = BucketFor(value);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
}

void LogHistogram::Merge(const LogHistogram& other) {
  stat_.Merge(other.stat_);
  if (other.buckets_.size() > buckets_.size())
    buckets_.resize(other.buckets_.size(), 0);
  for (size_t i = 0; i < other.buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
}

LogHistogram LogHistogram::Diff(const LogHistogram& earlier) const {
  LogHistogram out = *this;
  out.stat_ = RunningStat{};
  std::fill(out.buckets_.begin(), out.buckets_.end(), 0);

  uint64_t dn = 0;
  size_t lo = buckets_.size();
  size_t hi = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t before =
        i < earlier.buckets_.size() ? earlier.buckets_[i] : 0;
    const uint64_t d = buckets_[i] > before ? buckets_[i] - before : 0;
    out.buckets_[i] = d;
    if (d != 0) {
      dn += d;
      lo = std::min(lo, i);
      hi = i;
    }
  }
  if (dn == 0) return out;

  const double dsum = std::max(stat_.sum() - earlier.stat_.sum(), 0.0);
  const double mean = dsum / static_cast<double>(dn);
  // Sum of squares is additive (Σx² = M2 + n·mean²), so the window's M2
  // falls out of the difference of the two cumulative sums of squares.
  const auto sum_squares = [](const RunningStat& s) {
    return s.m2() + static_cast<double>(s.count()) * s.mean() * s.mean();
  };
  const double dm2 =
      sum_squares(stat_) - sum_squares(earlier.stat_) -
      static_cast<double>(dn) * mean * mean;
  double min = std::min(BucketLower(lo), mean);
  double max = std::max(std::min(BucketLower(hi + 1), stat_.max()), mean);
  out.stat_ = RunningStat::FromMoments(dn, dsum, dm2, min, max);
  return out;
}

double LogHistogram::Quantile(double q) const noexcept {
  const uint64_t n = stat_.count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      // Midpoint of the bucket, clamped into the observed range.
      const double lo = BucketLower(i);
      const double hi = BucketLower(i + 1);
      return std::clamp((lo + hi) / 2.0, stat_.min(), stat_.max());
    }
  }
  return stat_.max();
}

std::string LogHistogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f n=%llu",
                mean(), p50(), p95(), p99(), max(),
                static_cast<unsigned long long>(count()));
  return buf;
}

}  // namespace catfish
