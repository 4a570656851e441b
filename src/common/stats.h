// Latency / value statistics used by benchmarks and the simulators.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace catfish {

/// Streaming mean / variance (Welford's algorithm).
class RunningStat {
 public:
  /// Reconstructs a stat from externally derived moments. `m2` is the
  /// sum of squared deviations from the mean (Welford's M2). Used by
  /// LogHistogram::Diff to express a window as later-minus-earlier.
  static RunningStat FromMoments(uint64_t n, double sum, double m2,
                                 double min, double max) noexcept;

  void Add(double x) noexcept;
  void Merge(const RunningStat& other) noexcept;

  uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }
  /// Sum of squared deviations from the mean (Welford's M2).
  double m2() const noexcept { return m2_; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Log-bucketed histogram for non-negative values (e.g. latency in
/// microseconds). Buckets grow geometrically, giving ~2% relative
/// quantile error with bounded memory regardless of sample count.
class LogHistogram {
 public:
  /// `min_value` is the resolution floor; values below it land in
  /// bucket 0. `growth` is the per-bucket geometric factor.
  explicit LogHistogram(double min_value = 1e-3, double growth = 1.02);

  /// Rebuilds a default-shaped histogram from its raw parts, as kept by
  /// writers that update each field separately (telemetry::Registry).
  /// The parts may disagree slightly when read while being written: the
  /// bucket counts decide the count, and min/max fall back to bucket
  /// bounds when unset.
  static LogHistogram FromParts(std::vector<uint64_t> buckets, double sum,
                                double sum_squares, double min, double max);

  void Add(double value) noexcept;
  void Merge(const LogHistogram& other);

  /// Later-minus-earlier histogram. `*this` must be a later observation
  /// of the same monotonically growing histogram that `earlier` was
  /// taken from; bucket counts subtract saturating at zero, mean and
  /// variance are reconstructed from moment differences, and min/max
  /// are approximated from the populated delta buckets. This is what
  /// makes windowed percentiles possible without per-window histograms.
  LogHistogram Diff(const LogHistogram& earlier) const;

  uint64_t count() const noexcept { return stat_.count(); }
  double mean() const noexcept { return stat_.mean(); }
  double min() const noexcept { return stat_.min(); }
  double max() const noexcept { return stat_.max(); }

  /// Quantile in [0,1]; returns 0 when empty.
  double Quantile(double q) const noexcept;
  double p50() const noexcept { return Quantile(0.50); }
  double p95() const noexcept { return Quantile(0.95); }
  double p99() const noexcept { return Quantile(0.99); }

  /// "mean=12.3 p50=11 p95=30 p99=41 max=55 n=1000"
  std::string Summary() const;

  /// Index of the bucket `value` lands in.
  size_t BucketFor(double value) const noexcept;

 private:
  double BucketLower(size_t idx) const noexcept;

  double min_value_;
  double log_growth_;
  std::vector<uint64_t> buckets_;
  RunningStat stat_;
};

}  // namespace catfish
