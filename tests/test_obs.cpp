// Observability layer tests: histogram percentile bounds (randomized
// property tests), counter/gauge semantics, flight-recorder wraparound,
// snapshot JSON schema and byte-determinism, and the two end-to-end
// determinism witnesses — the same-seed chaos golden snapshot and the
// TrialRunner index-order merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "scenario/chaos.hpp"
#include "scenario/trial_runner.hpp"
#include "test_seed.hpp"

namespace {

using namespace cb;
using namespace cb::obs;

// --- Counter / gauge / registry semantics ------------------------------

TEST(ObsCounter, IncrementAndFindOrCreate) {
  Registry reg;
  Counter& c = reg.counter("ue_agent.attach.attempts");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Find-or-create returns the same stable object.
  EXPECT_EQ(&reg.counter("ue_agent.attach.attempts"), &c);
  EXPECT_EQ(reg.counter_count(), 1u);

  const Counter* found = reg.find_counter("ue_agent.attach.attempts");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 42u);
  EXPECT_EQ(reg.find_counter("no.such.metric"), nullptr);
  EXPECT_EQ(reg.counter_count(), 1u);  // find never creates
}

TEST(ObsGauge, SetAddAndLastMergeWins) {
  Registry a, b;
  a.gauge("btelco.sessions.active").set(3.0);
  a.gauge("btelco.sessions.active").add(2.0);
  EXPECT_DOUBLE_EQ(a.gauge("btelco.sessions.active").value(), 5.0);

  b.gauge("btelco.sessions.active").set(1.0);
  a.merge(b);
  // Gauges are instantaneous: the merged-in (later-trial) value wins.
  EXPECT_DOUBLE_EQ(a.gauge("btelco.sessions.active").value(), 1.0);
}

TEST(ObsRegistry, MergeAccumulatesCountersAndHistograms) {
  Registry a, b;
  a.counter("tcp.segments.sent").inc(10);
  b.counter("tcp.segments.sent").inc(5);
  b.counter("tcp.rto").inc(1);
  a.histogram("lat").observe(1.0);
  b.histogram("lat").observe(3.0);
  b.histogram("lat").observe(5.0);

  a.merge(b);
  EXPECT_EQ(a.counter("tcp.segments.sent").value(), 15u);
  EXPECT_EQ(a.counter("tcp.rto").value(), 1u);
  const Histogram& h = a.histogram("lat");
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 9.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(ObsRegistry, ScopedRegistryNestsAndRestores) {
  EXPECT_EQ(active(), nullptr);
  Registry outer, inner;
  {
    ScopedRegistry s1(&outer);
    EXPECT_EQ(active(), &outer);
    {
      ScopedRegistry s2(&inner);
      EXPECT_EQ(active(), &inner);
      obs::inc(obs::counter("x"));
    }
    EXPECT_EQ(active(), &outer);
    obs::inc(obs::counter("x"));
  }
  EXPECT_EQ(active(), nullptr);
  EXPECT_EQ(inner.counter("x").value(), 1u);
  EXPECT_EQ(outer.counter("x").value(), 1u);
  // With no registry installed the helpers are null-safe no-ops.
  EXPECT_EQ(obs::counter("x"), nullptr);
  obs::inc(obs::counter("x"));
  obs::set(obs::gauge("g"), 1.0);
  obs::observe(obs::histogram("h"), 1.0);
  obs::trace(TimePoint::zero(), TraceType::AttachStart);
}

// --- Histogram bucket geometry and percentile bounds -------------------

TEST(ObsHistogram, BucketBoundsContainValue) {
  // Property: over values spanning the whole resolved range, every value
  // lands in a bucket whose [lower, upper) bounds contain it, and the
  // bucket's relative width is <= 1/kSubBuckets.
  const std::uint64_t seed = cb::test::seed_or(0xB0B5);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 20000; ++trial) {
    const int exp = static_cast<int>(rng.next_below(60)) - 14;  // 2^-14 .. 2^45
    const double v = std::ldexp(1.0 + rng.next_double(), exp);
    const std::size_t i = Histogram::bucket_index(v);
    ASSERT_GT(i, 0u);
    ASSERT_LT(i, Histogram::kBuckets - 1);
    const double lo = Histogram::bucket_lower(i);
    const double hi = Histogram::bucket_upper(i);
    ASSERT_LE(lo, v) << "v=" << v;
    ASSERT_LT(v, hi) << "v=" << v;
    ASSERT_LE((hi - lo) / lo, 1.0 / Histogram::kSubBuckets + 1e-12);
  }
}

TEST(ObsHistogram, UnderflowAndOverflowBuckets) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, -20)), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, 50)), Histogram::kBuckets - 1);

  Histogram h;
  h.observe(0.0);
  h.observe(1e20);
  EXPECT_EQ(h.count(), 2u);
  // Extremes are reported exactly: the edge buckets answer with min / max.
  EXPECT_DOUBLE_EQ(h.percentile(1), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 1e20);
}

TEST(ObsHistogram, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

TEST(ObsHistogram, PercentileWithinOneBucketOfExact) {
  // Property test over many seeds: the histogram's nearest-rank percentile
  // must stay within one bucket width (rel. error <= 1/kSubBuckets) of the
  // exact nearest-rank value computed from the sorted samples.
  const double kRelTol = 1.0 / Histogram::kSubBuckets + 1e-9;
  const std::uint64_t base = cb::test::seed_or(1);
  for (std::uint64_t seed = base; seed < base + 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
    Rng rng(seed);
    Histogram h;
    std::vector<double> samples;
    const int n = 50 + static_cast<int>(rng.next_below(400));
    for (int i = 0; i < n; ++i) {
      // Mix of distributions resembling latency data: uniform + heavy tail.
      const double v = rng.chance(0.5) ? rng.uniform(0.05, 50.0)
                                       : rng.exponential(200.0) + 0.01;
      samples.push_back(v);
      h.observe(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double p : {5.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
      const auto rank = static_cast<std::size_t>(std::clamp<double>(
          std::ceil(p / 100.0 * static_cast<double>(n)), 1.0, static_cast<double>(n)));
      const double exact = samples[rank - 1];
      const double est = h.percentile(p);
      ASSERT_NEAR(est, exact, kRelTol * exact + 1e-9)
          << "seed=" << seed << " p=" << p << " n=" << n;
    }
    EXPECT_DOUBLE_EQ(h.min(), samples.front());
    EXPECT_DOUBLE_EQ(h.max(), samples.back());
  }
}

TEST(ObsHistogram, MergedPercentilesMatchCombinedStream) {
  // Merging two histograms must answer exactly as if every sample had been
  // observed by one histogram (bucket counts are exact, so this is equality,
  // not approximation).
  const std::uint64_t seed = cb::test::seed_or(777);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  Histogram a, b, combined;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0.1, 1000.0);
    (i % 2 == 0 ? a : b).observe(v);
    combined.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (const double p : {10.0, 50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), combined.percentile(p)) << "p=" << p;
  }
}

// --- Flight recorder ---------------------------------------------------

TEST(ObsTrace, RingWraparoundKeepsMostRecent) {
  FlightRecorder rec(8);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.size(), 0u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(TimePoint::zero() + Duration::millis(static_cast<double>(i)),
               TraceType::ReportSend, i, 0);
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);

  const auto records = rec.dump();
  ASSERT_EQ(records.size(), 8u);
  // Oldest-first: the survivors are records 12..19 in append order.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].a, 12u + i);
    EXPECT_EQ(records[i].type, TraceType::ReportSend);
  }

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
}

TEST(ObsTrace, FingerprintReflectsContent) {
  FlightRecorder a(16), b(16), c(16);
  a.record(TimePoint::zero(), TraceType::AttachStart, 1);
  b.record(TimePoint::zero(), TraceType::AttachStart, 1);
  c.record(TimePoint::zero(), TraceType::AttachStart, 2);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  // Append folds records in oldest-first, so (a then c) == replaying both.
  FlightRecorder merged(16);
  merged.append(a);
  merged.append(c);
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.dump()[0].a, 1u);
  EXPECT_EQ(merged.dump()[1].a, 2u);
}

TEST(ObsTrace, JsonDumpListsEventsOldestFirst) {
  FlightRecorder rec(4);
  rec.record(TimePoint::zero() + Duration::millis(5), TraceType::AttachOk, 3, 1200);
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"event\": \"attach_ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"a\": 3"), std::string::npos) << json;
}

// --- Snapshot JSON schema and determinism ------------------------------

TEST(ObsRegistry, JsonSnapshotSchemaAndByteDeterminism) {
  auto build = [] {
    Registry reg;
    reg.counter("ue_agent.attach.success").inc(7);
    reg.counter("broker.reports.ingested").inc(3);
    reg.gauge("ran.shaper.rate_bps").set(12.5);
    Histogram& h = reg.histogram("broker.sap_latency_ms");
    for (double v : {8.0, 9.5, 14.0, 30.0}) h.observe(v);
    reg.trace().record(TimePoint::zero() + Duration::millis(1), TraceType::SapAuthOk, 9);
    return reg.to_json();
  };
  const std::string j1 = build();
  const std::string j2 = build();
  EXPECT_EQ(j1, j2);  // byte-identical, not just semantically equal

  // Schema: the four top-level sections with sorted keys, histograms
  // carrying the full summary tuple, trace condensed to counts+fingerprint.
  EXPECT_NE(j1.find("\"counters\""), std::string::npos);
  EXPECT_NE(j1.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j1.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j1.find("\"trace\""), std::string::npos);
  EXPECT_NE(j1.find("\"ue_agent.attach.success\": 7"), std::string::npos) << j1;
  EXPECT_NE(j1.find("\"ran.shaper.rate_bps\": 12.5"), std::string::npos) << j1;
  for (const char* field : {"\"count\"", "\"sum\"", "\"min\"", "\"max\"",
                            "\"p50\"", "\"p95\"", "\"p99\""}) {
    EXPECT_NE(j1.find(field), std::string::npos) << field;
  }
  EXPECT_NE(j1.find("\"recorded\": 1"), std::string::npos);
  EXPECT_NE(j1.find("\"fingerprint\": \"0x"), std::string::npos);
  // Sorted keys: "broker.reports.ingested" serializes before "ue_agent...".
  EXPECT_LT(j1.find("broker.reports.ingested"), j1.find("ue_agent.attach.success"));
}

// --- End-to-end determinism witnesses ----------------------------------

namespace sc = cb::scenario;

sc::ChaosConfig golden_chaos_config() {
  sc::ChaosConfig cfg;
  cfg.world.seed = 11;
  cfg.world.route = sc::suburb_day();
  cfg.world.n_towers = 4;
  cfg.duration = Duration::s(90);
  cfg.world.btelco_config.session_timeout = Duration::s(15);
  cfg.world.btelco_config.gc_interval = Duration::s(3);
  cfg.world.ue_config.attach_timeout = Duration::s(2);
  cfg.faults = {
      {.kind = sc::FuzzFault::Kind::BrokerOutage, .start_s = 40.0, .duration_s = 8.0},
      {.kind = sc::FuzzFault::Kind::TelcoCrash, .start_s = 15.0, .duration_s = 10.0, .telco = 0},
      {.kind = sc::FuzzFault::Kind::RadioDrop, .start_s = 60.0},
  };
  return cfg;
}

TEST(ObsGolden, SameSeedChaosSnapshotIsBitIdentical) {
  // The golden determinism witness for the whole obs layer: a same-seed
  // chaos run must produce a byte-identical metrics snapshot and an equal
  // trace fingerprint twice in a row — and instrumentation must not perturb
  // the engine (the state fingerprints still match).
  const sc::ChaosResult r1 = sc::run_chaos(golden_chaos_config());
  const sc::ChaosResult r2 = sc::run_chaos(golden_chaos_config());
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  ASSERT_FALSE(r1.metrics_json.empty());
  EXPECT_EQ(r1.metrics_json, r2.metrics_json);
  EXPECT_EQ(r1.trace_fingerprint, r2.trace_fingerprint);
  EXPECT_NE(r1.trace_fingerprint, 0u);
  // The snapshot carries real instrumentation from the run.
  EXPECT_NE(r1.metrics_json.find("ue_agent.attach.attempts"), std::string::npos);
  EXPECT_NE(r1.metrics_json.find("broker.sap_latency_ms"), std::string::npos);
}

TEST(ObsGolden, ChaosSnapshotMatchesPinnedValues) {
  // Pinned before the UE and bTelco report loops became one BrokerChannel:
  // the same run must keep its trace and its metrics snapshot byte for
  // byte. Never edit these values to follow a change.
  const sc::ChaosResult r = sc::run_chaos(golden_chaos_config());
  const BytesView json(reinterpret_cast<const std::uint8_t*>(r.metrics_json.data()),
                       r.metrics_json.size());
  EXPECT_EQ(r.trace_fingerprint, 0x9ebbccc8ae9de554ULL);
  EXPECT_EQ(fnv1a(json), 0x55bea486df1692c8ULL);
}

TEST(ObsGolden, ChaosMetricsFoldIntoCallerRegistry) {
  Registry root;
  {
    ScopedRegistry scoped(&root);
    (void)sc::run_chaos(golden_chaos_config());
  }
  const Counter* attempts = root.find_counter("ue_agent.attach.attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_GT(attempts->value(), 0u);
}

TEST(ObsTrialRunner, MergeIsByTrialIndexNotCompletionOrder) {
  // Two trials record distinguishable metrics; trial 0 is forced to finish
  // AFTER trial 1 on a 2-thread pool. The merged snapshot must still equal
  // the serial (threads = 1) snapshot byte for byte: per-trial registries
  // are folded in trial index order at the barrier, never completion order.
  auto run = [](unsigned threads) {
    Registry root;
    ScopedRegistry scoped(&root);
    sc::TrialRunner runner(threads);
    runner.map(2, [&](std::size_t i) {
      if (i == 0 && threads > 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      obs::inc(obs::counter("trial.runs"));
      obs::set(obs::gauge("trial.last_index"), static_cast<double>(i));
      obs::observe(obs::histogram("trial.value"), static_cast<double>(i + 1));
      obs::trace(TimePoint::zero() + Duration::millis(static_cast<double>(i)),
                 TraceType::ReportSend, i);
      return 0;
    });
    return root.to_json();
  };
  const std::string serial = run(1);
  const std::string parallel = run(2);
  EXPECT_EQ(serial, parallel);
  // Sanity: the gauge's last-merge-wins value is trial 1's, the highest
  // index — which is only true if index order won over completion order.
  EXPECT_NE(serial.find("\"trial.last_index\": 1"), std::string::npos) << serial;
}

}  // namespace
