// Measurement accumulators used by the evaluation harness: summary stats,
// percentiles, and time-bucketed series (for Fig.8/Fig.10-style traces).
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"

namespace cb {

/// Online summary of a scalar sample set with exact percentiles (samples are
/// retained; evaluation runs are small enough for that).
class Summary {
 public:
  void add(double v);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const { return sum_; }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact percentile by nearest-rank, p in [0, 100].
  double percentile(double p) const;
  double p50() const { return percentile(50); }
  double p99() const { return percentile(99); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

/// Accumulates (time, value) deltas into fixed-width buckets, e.g. bytes
/// received per second -> throughput series.
class TimeSeries {
 public:
  explicit TimeSeries(Duration bucket_width) : width_(bucket_width) {}

  /// Add `value` to the bucket containing `t`.
  void add(TimePoint t, double value);
  /// Number of buckets spanned so far.
  std::size_t buckets() const { return values_.size(); }
  /// Sum accumulated in bucket i (0 if untouched).
  double bucket(std::size_t i) const;
  /// Bucket sums divided by bucket width in seconds (rate series).
  std::vector<double> rates() const;

 private:
  Duration width_;
  std::vector<double> values_;
};

}  // namespace cb
