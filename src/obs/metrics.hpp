// Sim-time metrics registry: counters, gauges, and fixed-bucket log-linear
// histograms, keyed by `component.metric{label}` strings and snapshotable to
// deterministic JSON.
//
// Concurrency model — lock-free on the hot path by construction: a Registry
// is thread-confined. Every simulation trial runs one Simulator on one
// thread with its own Registry installed via the thread-local active pointer
// (the same pattern as the logger's sim-time source), so counter increments
// are plain unsynchronized integer adds. Cross-trial aggregation happens at
// the TrialRunner barrier, which merges the per-trial registries in trial
// INDEX order (never completion order) so a parallel sweep snapshots
// byte-identically to a serial one.
//
// Cost model: instrumentation sites acquire handles (`obs::Counter*`) from
// the active registry; with no registry installed the handles are null and
// every record operation is one predictable branch (~0 cost).
//
// Determinism rules (see DESIGN.md §9): record sim-time quantities only —
// never wall clock, never thread ids — and never schedule events or draw
// randomness from inside instrumentation. Observation must not perturb the
// run: the chaos golden fingerprints hold with metrics enabled or disabled.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace cb::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// Fixed-bucket log-linear histogram (HDR-style): each power-of-two octave
/// is split into kSubBuckets linear buckets, so any recorded value lands in
/// a bucket whose bounds are within a 1/kSubBuckets relative error of it.
/// Percentiles are answered by nearest-rank over the bucket counts and
/// reported as the bucket midpoint clamped to the observed [min, max], which
/// keeps the quantile estimate within one bucket width of the truth.
class Histogram {
 public:
  static constexpr int kSubBuckets = 32;     // rel. bucket error <= 3.125%
  static constexpr int kMinOctave = -16;     // smallest resolved value 2^-16
  static constexpr int kMaxOctave = 47;      // largest resolved value < 2^48
  static constexpr std::size_t kBuckets =
      2 + static_cast<std::size_t>(kMaxOctave - kMinOctave + 1) * kSubBuckets;

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Nearest-rank percentile estimate, p in [0, 100]; 0 when empty.
  double percentile(double p) const;
  double p50() const { return percentile(50); }
  double p95() const { return percentile(95); }
  double p99() const { return percentile(99); }

  /// Bucket index a value maps to (exposed for the property tests).
  static std::size_t bucket_index(double v);
  /// Inclusive-lower/exclusive-upper bounds of bucket `i`.
  static double bucket_lower(std::size_t i);
  static double bucket_upper(std::size_t i);

  void merge(const Histogram& other);

 private:
  std::vector<std::uint64_t> counts_;  // allocated lazily on first observe
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One trial's worth of metrics plus its flight recorder. Thread-confined;
/// see the header comment for the concurrency and determinism contract.
class Registry {
 public:
  explicit Registry(std::size_t trace_capacity = 8192) : recorder_(trace_capacity) {}

  /// Find-or-create. Returned references are stable for the registry's
  /// lifetime (node-based storage), so call sites may cache the pointer.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Lookup without creating (tests, report generators); null if absent.
  const Counter* find_counter(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  FlightRecorder& trace() { return recorder_; }
  const FlightRecorder& trace() const { return recorder_; }

  std::size_t counter_count() const { return counters_.size(); }

  /// Fold `other` in: counters and histograms accumulate, gauges take the
  /// merged-in value (last merge wins — callers merge in trial index order),
  /// trace records append oldest-first.
  void merge(const Registry& other);

  /// Deterministic JSON snapshot: keys sorted, doubles in shortest
  /// round-trip form, trace condensed to counts + fingerprint. Two
  /// registries with identical contents serialize byte-identically.
  std::string to_json() const;

  /// One-line summary for bench footers.
  std::string digest() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  FlightRecorder recorder_;
};

/// The registry installed on THIS thread (null = metrics disabled).
Registry* active();
void set_active(Registry* registry);

/// RAII install/restore of the active registry, nesting-safe.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* registry) : prev_(active()) { set_active(registry); }
  ~ScopedRegistry() { set_active(prev_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

// --- Instrumentation-site helpers ------------------------------------------
// Null-safe: with no active registry they cost one branch.

inline Counter* counter(std::string_view name) {
  Registry* r = active();
  return r ? &r->counter(name) : nullptr;
}
inline Gauge* gauge(std::string_view name) {
  Registry* r = active();
  return r ? &r->gauge(name) : nullptr;
}
inline Histogram* histogram(std::string_view name) {
  Registry* r = active();
  return r ? &r->histogram(name) : nullptr;
}
inline void trace(TimePoint at, TraceType type, std::uint64_t a = 0, std::uint64_t b = 0) {
  if (Registry* r = active()) r->trace().record(at, type, a, b);
}

inline void inc(Counter* c, std::uint64_t n = 1) {
  if (c) c->inc(n);
}
inline void set(Gauge* g, double v) {
  if (g) g->set(v);
}
inline void observe(Histogram* h, double v) {
  if (h) h->observe(v);
}

}  // namespace cb::obs
