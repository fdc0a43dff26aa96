#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cb {

void Summary::add(double v) {
  samples_.push_back(v);
  sum_ += v;
  sorted_ = false;
}

double Summary::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Summary::min() const {
  if (samples_.empty()) throw std::logic_error("Summary::min on empty set");
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  if (samples_.empty()) throw std::logic_error("Summary::max on empty set");
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::percentile(double p) const {
  if (samples_.empty()) throw std::logic_error("Summary::percentile on empty set");
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void TimeSeries::add(TimePoint t, double value) {
  if (t.nanos() < 0) return;
  const auto idx = static_cast<std::size_t>(t.nanos() / width_.nanos());
  if (idx >= values_.size()) values_.resize(idx + 1, 0.0);
  values_[idx] += value;
}

double TimeSeries::bucket(std::size_t i) const {
  return i < values_.size() ? values_[i] : 0.0;
}

std::vector<double> TimeSeries::rates() const {
  std::vector<double> out(values_.size());
  const double w = width_.to_seconds();
  for (std::size_t i = 0; i < values_.size(); ++i) out[i] = values_[i] / w;
  return out;
}

}  // namespace cb
