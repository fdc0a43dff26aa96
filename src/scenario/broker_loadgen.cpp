#include "scenario/broker_loadgen.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "cellbricks/broker_channel.hpp"
#include "common/fnv.hpp"

namespace cb::scenario {

namespace {

using cellbricks::BrokerMsg;
using cellbricks::Reporter;
using cellbricks::RetrySchedule;

constexpr std::uint16_t kClientPort = 4599;
/// Key size for the CA, the broker and every client's UE and bTelco.
constexpr std::size_t kRsaBits = 512;

/// Client retry schedules (decorrelated jitter, as in the agents): auth
/// resends after 1 s, 10 sends; reports after 500 ms, 40 sends; both cap
/// their gaps at 2 s.
constexpr RetrySchedule kAuthSchedule{Duration::s(1), 10, Duration::s(2)};
constexpr RetrySchedule kReportSchedule{Duration::ms(500), 40, Duration::s(2)};

}  // namespace

/// One subscriber/bTelco pair: its own SAP endpoints, router, and broker
/// channels. Both report halves are sent from the same node — the bench
/// models the broker's ingest path, not the access topology.
struct BrokerLoadgen::Client {
  std::size_t index = 0;
  net::Node* node = nullptr;
  std::unique_ptr<cellbricks::SapUe> ue;
  std::unique_ptr<cellbricks::SapTelco> telco;
  std::unique_ptr<cellbricks::ShardRouter> router;
  Rng jitter{0};  // retry backoff draws (re-seeded by fork at build time)
  Rng seal{0};    // nonce + box randomness (likewise)
  // Both channels draw from `jitter`, in event order.
  std::optional<cellbricks::BrokerChannel> auth;
  std::optional<cellbricks::BrokerChannel> reports;

  std::uint64_t session_id = 0;
  std::uint32_t next_period = 0;

  std::uint64_t next_seq = 1;
  sim::EventHandle report_timer;
};

std::uint64_t BrokerLoadgenResult::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, events_executed);
  fnv_mix(h, sessions_issued);
  fnv_mix(h, reports_sent);
  fnv_mix(h, report_txs);
  fnv_mix(h, reports_acked);
  fnv_mix(h, reports_abandoned);
  fnv_mix(h, reports_ingested);
  fnv_mix(h, reports_deduped);
  fnv_mix(h, redirects_sent);
  fnv_mix(h, redirects_learned);
  fnv_mix(h, takeovers);
  fnv_mix(h, verdicts_paired);
  fnv_mix(h, verdicts_missing);
  fnv_mix(h, verdict_conflicts);
  fnv_mix(h, verdicts_lost);
  for (std::uint64_t v : verdicts_per_s) fnv_mix(h, v);
  return h;
}

BrokerLoadgen::BrokerLoadgen(BrokerLoadgenConfig config)
    : config_(config), sim_(config.seed), network_(sim_) {
  // Keys first, in a fixed order, from a dedicated stream (the world's
  // convention), so topology changes never reshuffle identities.
  Rng key_rng = sim_.rng().fork(0xCA11);
  crypto::CertificateAuthority ca("cb-root", key_rng, kRsaBits);
  const TimePoint not_after = TimePoint::zero() + Duration::s(86400 * 365);
  auto broker_keys = crypto::RsaKeyPair::generate(key_rng, kRsaBits);
  broker_cert_ = ca.issue("broker-0", broker_keys.public_key(), TimePoint::zero(), not_after);
  broker_pk_ = broker_cert_.key();

  hub_ = network_.add_node("lg-hub");
  cluster_ = std::make_unique<cellbricks::BrokerCluster>(config_.shard);
  for (int i = 0; i < config_.n_shards; ++i) {
    net::Node* host = network_.add_node("lg-shard-" + std::to_string(i));
    network_.register_address(net::Ipv4Addr(2, 2, 2, static_cast<std::uint8_t>(10 + i)), host);
    network_.connect(hub_, host, net::LinkParams{.rate_bps = 10e9, .delay = Duration::us(250)});
    cluster_->add_shard(*host, cellbricks::SapBroker("broker-0", broker_keys, broker_cert_,
                                                     ca.public_key()));
  }

  for (int i = 0; i < config_.n_clients; ++i) {
    auto c = std::make_unique<Client>();
    c->index = static_cast<std::size_t>(i);
    const std::string id_u = "lg-ue-" + std::to_string(i);
    const std::string id_t = "lg-telco-" + std::to_string(i);
    auto ue_keys = crypto::RsaKeyPair::generate(key_rng, kRsaBits);
    auto telco_keys = crypto::RsaKeyPair::generate(key_rng, kRsaBits);
    auto telco_cert = ca.issue(id_t, telco_keys.public_key(), TimePoint::zero(), not_after);
    cluster_->add_subscriber(id_u, ue_keys.public_key());
    cluster_->add_telco(id_t, telco_keys.public_key());

    c->node = network_.add_node("lg-client-" + std::to_string(i));
    const net::Ipv4Addr addr(9, 0, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i & 0xFF));
    network_.register_address(addr, c->node);
    // A WAN leg comparable to the world's tower->cloud path.
    network_.connect(c->node, hub_,
                     net::LinkParams{.rate_bps = 1e9, .delay = Duration::ms(12)});
    c->ue = std::make_unique<cellbricks::SapUe>(id_u, "broker-0", std::move(ue_keys),
                                                broker_pk_);
    c->telco = std::make_unique<cellbricks::SapTelco>(id_t, std::move(telco_keys),
                                                      std::move(telco_cert), ca.public_key());
    c->jitter = sim_.rng().fork(0x10AD0000 + static_cast<std::uint64_t>(i) * 2);
    c->seal = sim_.rng().fork(0x10AD0001 + static_cast<std::uint64_t>(i) * 2);
    // Every send goes through the router (set in run()); the fixed
    // endpoint is never used.
    const net::EndPoint src{addr, kClientPort};
    const net::EndPoint broker = cluster_->client_endpoints().front();
    Client* raw = c.get();
    c->auth.emplace(*c->node, BrokerMsg::AuthReq, src, broker, c->jitter, kAuthSchedule);
    c->auth->on_ack = [this, raw](std::uint64_t, const cellbricks::BrokerChannel::Acked& acked,
                                  ByteReader& r) { authorized(*raw, acked.reply, r); };
    c->auth->on_abandon = [this](std::uint64_t) { ++attach_failures_; };
    c->reports.emplace(*c->node, BrokerMsg::Report, src, broker, c->jitter, kReportSchedule);
    c->reports->on_transmit = [this](std::uint64_t) { ++report_txs_; };
    c->reports->on_abandon = [this](std::uint64_t) { ++reports_abandoned_; };
    c->reports->on_ack = [this](std::uint64_t, const cellbricks::BrokerChannel::Acked& acked,
                                ByteReader&) {
      ack_latencies_ms_.push_back((sim_.now() - acked.queued_at).to_millis());
      ++reports_acked_;
    };
    c->node->bind_udp(kClientPort, [raw](const net::Packet& p) {
      raw->auth->receive(p) || raw->reports->receive(p);
    });
    clients_.push_back(std::move(c));
  }
  network_.recompute_routes();
}

BrokerLoadgen::~BrokerLoadgen() = default;

void BrokerLoadgen::start_attach(Client& c) {
  const Bytes auth_req_u = c.ue->make_auth_req(c.telco->id_t(), c.seal);
  const Bytes auth_req_t = c.telco->make_auth_req_t(auth_req_u, cellbricks::QosCap{});
  c.auth->send(0x10000 + c.index, auth_req_t, 0);
}

void BrokerLoadgen::authorized(Client& c, BrokerMsg reply, ByteReader& r) {
  if (reply != BrokerMsg::AuthOk) {
    ++attach_failures_;
    return;
  }
  const Bytes auth_resp_t = r.bytes();
  const Bytes auth_resp_u = r.bytes();
  auto ts = c.telco->process_auth_resp(auth_resp_t, broker_cert_, sim_.now());
  auto us = c.ue->process_auth_resp(auth_resp_u);
  if (!ts.ok() || !us.ok()) {
    ++attach_failures_;
    return;
  }
  c.session_id = us.value().session_id;
  ++sessions_issued_;
  send_period_reports(c);
}

void BrokerLoadgen::send_period_reports(Client& c) {
  if (sim_.now() >= load_end_) return;
  const std::uint32_t period = c.next_period++;
  send_report(c, Reporter::Ue, period);
  send_report(c, Reporter::Telco, period);
  Client* raw = &c;
  c.report_timer =
      sim_.schedule(config_.report_interval, [this, raw] { send_period_reports(*raw); });
}

void BrokerLoadgen::send_report(Client& c, Reporter side, std::uint32_t period) {
  // Honest pair: both halves carry identical byte counts, deterministic per
  // (client, period), so every pair must resolve as a clean VerdictPaired.
  cellbricks::TrafficReport report;
  report.session_id = c.session_id;
  report.reporter = side;
  report.period = period;
  report.dl_bytes = 1'000'000 + c.index * 1013 + static_cast<std::uint64_t>(period) * 17;
  report.ul_bytes = report.dl_bytes / 10;
  report.duration_ms = static_cast<std::uint64_t>(config_.report_interval.to_millis());
  const double period_s = config_.report_interval.to_seconds();
  report.avg_dl_bps = static_cast<double>(report.dl_bytes) * 8.0 / period_s;
  report.avg_ul_bps = static_cast<double>(report.ul_bytes) * 8.0 / period_s;

  const bool ue = side == Reporter::Ue;
  const Bytes sealed = cellbricks::ReportFrame::seal(
      report, ue ? c.ue->id_u() : c.telco->id_t(),
      [&](BytesView b) { return ue ? c.ue->sign(b) : c.telco->sign(b); }, broker_pk_, c.seal);

  ++reports_sent_;
  c.reports->send(c.next_seq++, sealed, c.session_id);
}

BrokerLoadgenResult BrokerLoadgen::run() {
  cluster_->start();
  for (auto& c : clients_) {
    c->router = std::make_unique<cellbricks::ShardRouter>(cluster_->client_endpoints());
    c->auth->set_router(c->router.get());
    c->reports->set_router(c->router.get());
  }

  load_end_ = TimePoint::zero() + Duration::seconds(config_.duration_s);
  const TimePoint horizon = load_end_ + Duration::seconds(config_.drain_s);

  // Stagger attaches so the SAP burst does not arrive in lockstep.
  for (auto& c : clients_) {
    Client* raw = c.get();
    sim_.schedule(Duration::millis(10.0 * static_cast<double>(c->index)),
                  [this, raw] { start_attach(*raw); });
  }

  if (config_.kill_shard >= 0 && config_.kill_shard < config_.n_shards) {
    const std::size_t victim = static_cast<std::size_t>(config_.kill_shard);
    sim_.schedule(Duration::seconds(config_.kill_at_s),
                  [this, victim] { cluster_->crash_shard(victim); });
    sim_.schedule(Duration::seconds(config_.kill_at_s + config_.kill_duration_s),
                  [this, victim] { cluster_->restart_shard(victim); });
  }

  // Availability timeline: cumulative observer verdicts, one sample per
  // sim second.
  const auto n_samples =
      static_cast<std::uint64_t>(config_.duration_s + config_.drain_s);
  for (std::uint64_t t = 1; t <= n_samples; ++t) {
    sim_.schedule(Duration::seconds(static_cast<double>(t)), [this] {
      verdict_timeline_.push_back(cluster_->observer().verdicts_paired() +
                                  cluster_->observer().verdicts_missing());
    });
  }

  sim_.run_until(horizon);

  BrokerLoadgenResult res;
  res.sessions_issued = sessions_issued_;
  res.attach_failures = attach_failures_;
  res.reports_sent = reports_sent_;
  res.report_txs = report_txs_;
  res.reports_acked = reports_acked_;
  res.reports_abandoned = reports_abandoned_;
  res.reports_ingested = cluster_->reports_ingested();
  res.reports_deduped = cluster_->reports_deduped();
  res.redirects_sent = cluster_->redirects_sent();
  for (auto& c : clients_) res.redirects_learned += c->router->redirects_learned();
  for (std::size_t i = 0; i < cluster_->n_shards(); ++i) {
    res.takeovers += cluster_->shard(i).takeovers();
  }
  const auto& obs = cluster_->observer();
  res.verdicts_paired = obs.verdicts_paired();
  res.verdicts_missing = obs.verdicts_missing();
  res.verdict_conflicts = obs.verdict_conflicts();
  // A lost verdict = an ingested report whose (session, period) pair never
  // got ANY verdict by the end of the drain.
  std::set<std::pair<std::uint64_t, std::uint32_t>> undecided;
  for (const auto& [key, pending] : obs.pending()) {
    const auto& [sid, period, side] = key;
    (void)side;
    (void)pending;
    if (!obs.pair_decided(sid, period)) undecided.insert({sid, period});
  }
  res.verdicts_lost = undecided.size();

  if (!ack_latencies_ms_.empty()) {
    std::vector<double> lat = ack_latencies_ms_;
    std::sort(lat.begin(), lat.end());
    res.ack_p50_ms = lat[lat.size() / 2];
    res.ack_p99_ms = lat[static_cast<std::size_t>(
        static_cast<double>(lat.size() - 1) * 0.99)];
  }
  res.ingest_rps = static_cast<double>(res.reports_ingested) / config_.duration_s;
  res.verdicts_per_s = verdict_timeline_;
  res.events_executed = sim_.events_executed();
  return res;
}

}  // namespace cb::scenario
