// Broker-cluster load generator (bench_broker_shards; DESIGN.md §12).
//
// A self-contained deterministic world: N broker shards behind a WAN hub and
// M synthetic subscriber/bTelco client pairs that speak the real broker wire
// protocol — a SAP attach (AuthReq over UDP with retries) followed by paired
// signed+sealed traffic reports — through cellbricks::BrokerChannel, the
// same client as UeAgent and Btelco (it frames each request, resends it,
// follows redirects and decodes the answers), but with none of the radio or
// transport machinery, so one process can push the cluster to its
// report-ingest capacity and measure failover availability under shard
// kills.
#pragma once

#include <memory>
#include <vector>

#include "cellbricks/broker_cluster.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace cb::scenario {

struct BrokerLoadgenConfig {
  int n_shards = 1;
  int n_clients = 16;
  /// Per-client reporting period; each period emits one UE and one bTelco
  /// report for the same (session, period), so offered ingest load is
  /// 2 * n_clients / report_interval.
  Duration report_interval = Duration::millis(80);
  /// Load phase length. New reports stop at this horizon; the run then
  /// drains (retries, takeover catch-up, pair sweeps) before collection.
  double duration_s = 30.0;
  double drain_s = 60.0;
  std::uint64_t seed = 1;
  cellbricks::BrokerShard::Config shard{};

  /// Failover trial: kill shard `kill_shard` at `kill_at_s` for
  /// `kill_duration_s` (disabled when kill_shard < 0).
  int kill_shard = -1;
  double kill_at_s = 10.0;
  double kill_duration_s = 10.0;
};

struct BrokerLoadgenResult {
  // Client-side accounting.
  std::uint64_t sessions_issued = 0;
  std::uint64_t attach_failures = 0;
  std::uint64_t reports_sent = 0;  // distinct reports (UE + telco halves)
  std::uint64_t report_txs = 0;    // wire transmissions incl. retries
  std::uint64_t reports_acked = 0;
  std::uint64_t reports_abandoned = 0;
  std::uint64_t redirects_learned = 0;
  // Cluster-side accounting (observer fold = auditor ground truth).
  std::uint64_t reports_ingested = 0;
  std::uint64_t reports_deduped = 0;
  /// Report copies a shard dropped on arrival because an earlier copy still
  /// waited in its queue. Left out of fingerprint().
  std::uint64_t reports_coalesced = 0;
  std::uint64_t redirects_sent = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t verdicts_paired = 0;
  std::uint64_t verdicts_missing = 0;
  std::uint64_t verdict_conflicts = 0;
  /// Ingested reports still awaiting a verdict after the drain: the failover
  /// acceptance gate requires this to be exactly 0 (verdicts may be late,
  /// never lost).
  std::uint64_t verdicts_lost = 0;

  double ack_p50_ms = 0.0;
  double ack_p99_ms = 0.0;
  /// Sustained ingest rate over the load phase: reports ingested by the
  /// last per-second sample at or before its end, over duration_s. Late
  /// ingests in the drain are left out, so a shard past its knee reads the
  /// rate it served, not the rate offered.
  double ingest_rps = 0.0;
  /// Cumulative observer verdict count sampled once per sim second —
  /// the availability timeline plotted by the failover trial.
  std::vector<std::uint64_t> verdicts_per_s;
  std::uint64_t events_executed = 0;

  /// Order-sensitive digest of the run (counters + timeline): two runs with
  /// the same config and seed must produce the same value bit-for-bit.
  std::uint64_t fingerprint() const;
};

class BrokerLoadgen {
 public:
  explicit BrokerLoadgen(BrokerLoadgenConfig config);
  ~BrokerLoadgen();

  sim::Simulator& simulator() { return sim_; }
  cellbricks::BrokerCluster& cluster() { return *cluster_; }

  /// Build the schedule, run load + drain to completion, and collect.
  BrokerLoadgenResult run();

 private:
  struct Client;

  void start_attach(Client& c);
  /// The broker answered `c`'s auth request with `reply`; `r` reads the
  /// rest of the answer.
  void authorized(Client& c, cellbricks::BrokerMsg reply, ByteReader& r);
  void send_period_reports(Client& c);
  void send_report(Client& c, cellbricks::Reporter side, std::uint32_t period);

  BrokerLoadgenConfig config_;
  sim::Simulator sim_;
  net::Network network_;
  net::Node* hub_ = nullptr;
  std::unique_ptr<cellbricks::BrokerCluster> cluster_;
  crypto::RsaPublicKey broker_pk_;
  crypto::Certificate broker_cert_;
  std::vector<std::unique_ptr<Client>> clients_;
  TimePoint load_end_;

  std::uint64_t sessions_issued_ = 0;
  std::uint64_t attach_failures_ = 0;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t report_txs_ = 0;
  std::uint64_t reports_acked_ = 0;
  std::uint64_t reports_abandoned_ = 0;
  std::vector<double> ack_latencies_ms_;
  std::vector<std::uint64_t> verdict_timeline_;
  std::uint64_t ingested_by_load_end_ = 0;
};

}  // namespace cb::scenario
