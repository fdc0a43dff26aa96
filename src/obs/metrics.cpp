#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace cb::obs {

namespace {

thread_local Registry* g_active = nullptr;

// Shortest round-trip decimal form: deterministic across runs, and parseable
// back to the exact same double, so snapshot equality is value equality.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  out.append(s);  // metric names are controlled identifiers; no escaping needed
  out += '"';
}

}  // namespace

// --- Histogram -------------------------------------------------------------

std::size_t Histogram::bucket_index(double v) {
  if (!(v >= std::ldexp(1.0, kMinOctave))) return 0;  // underflow, <=0 and NaN too
  if (v >= std::ldexp(1.0, kMaxOctave + 1)) return kBuckets - 1;
  int exp = 0;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5, 1)
  const int octave = exp - 1;               // v in [2^octave, 2^(octave+1))
  int sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(octave - kMinOctave) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

double Histogram::bucket_lower(std::size_t i) {
  if (i == 0) return 0.0;
  if (i >= kBuckets - 1) return std::ldexp(1.0, kMaxOctave + 1);
  const std::size_t j = i - 1;
  const int octave = kMinOctave + static_cast<int>(j / kSubBuckets);
  const int sub = static_cast<int>(j % kSubBuckets);
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

double Histogram::bucket_upper(std::size_t i) {
  if (i == 0) return std::ldexp(1.0, kMinOctave);
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  const std::size_t j = i - 1;
  const int octave = kMinOctave + static_cast<int>(j / kSubBuckets);
  const int sub = static_cast<int>(j % kSubBuckets);
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, octave);
}

void Histogram::observe(double v) {
  if (std::isnan(v)) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  ++counts_[bucket_index(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: smallest rank r (1-based) with r >= p/100 * count.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      double rep;
      if (i == 0) {
        rep = min_;  // underflow bucket: best estimate is the true minimum
      } else if (i == kBuckets - 1) {
        rep = max_;
      } else {
        rep = 0.5 * (bucket_lower(i) + bucket_upper(i));
      }
      return std::clamp(rep, min_, max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

// --- Registry --------------------------------------------------------------

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(std::string(name), Counter{}).first;
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.emplace(std::string(name), Gauge{}).first;
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(std::string(name), Histogram{}).first;
  return it->second;
}

const Counter* Registry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).inc(c.value());
  for (const auto& [name, g] : other.gauges_) gauge(name).set(g.value());
  for (const auto& [name, h] : other.histograms_) histogram(name).merge(h);
  recorder_.append(other.recorder_);
}

std::string Registry::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    out += "    ";
    append_quoted(out, name);
    out += ": ";
    append_u64(out, c.value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    out += "    ";
    append_quoted(out, name);
    out += ": ";
    append_double(out, g.value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    out += "    ";
    append_quoted(out, name);
    out += ": {\"count\": ";
    append_u64(out, h.count());
    out += ", \"sum\": ";
    append_double(out, h.sum());
    out += ", \"min\": ";
    append_double(out, h.min());
    out += ", \"max\": ";
    append_double(out, h.max());
    out += ", \"p50\": ";
    append_double(out, h.p50());
    out += ", \"p95\": ";
    append_double(out, h.p95());
    out += ", \"p99\": ";
    append_double(out, h.p99());
    out += "}";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"trace\": {\"recorded\": ";
  append_u64(out, recorder_.total_recorded());
  out += ", \"dropped\": ";
  append_u64(out, recorder_.dropped());
  out += ", \"fingerprint\": \"";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(recorder_.fingerprint()));
  out += buf;
  out += "\"}\n}";
  return out;
}

std::string Registry::digest() const {
  std::string out = "obs: ";
  append_u64(out, counters_.size());
  out += " counters, ";
  append_u64(out, gauges_.size());
  out += " gauges, ";
  append_u64(out, histograms_.size());
  out += " histograms, ";
  append_u64(out, recorder_.total_recorded());
  out += " trace records (fingerprint ";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(recorder_.fingerprint()));
  out += buf;
  out += ")";
  return out;
}

// --- Active registry -------------------------------------------------------

Registry* active() { return g_active; }
void set_active(Registry* registry) { g_active = registry; }

}  // namespace cb::obs
