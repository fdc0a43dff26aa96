// The four benchmark workloads. Each repetition builds its workload from
// the simulator's public classes, runs it, checks its outputs against the
// correctness gates, and returns its sim-time outputs and fingerprint. In
// the traced repetition it also fills the per-layer metrics from the obs
// Registry, the result structs, and the harness's own spans.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "apps/iperf.hpp"
#include "cellbricks/broker_cluster.hpp"
#include "cellbricks/btelco.hpp"
#include "check/attach_invariants.hpp"
#include "check/fluid_invariants.hpp"
#include "check/ran_invariants.hpp"
#include "check/world_invariants.hpp"
#include "crypto/cert.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "scenario/broker_loadgen.hpp"
#include "scenario/scale_traffic.hpp"
#include "scenario/world.hpp"

namespace cbbench {

namespace {

using namespace cb;

// --- Workload sizes ----------------------------------------------------------

constexpr int kStormUes = 200;
constexpr Duration kStormRtt = Duration::us(7200);  // us-west
constexpr int kIngestClients = 48;
constexpr int kFluidUes = 100'000;
constexpr int kFluidThreads = 2;
constexpr double kMobileSimS = 600.0;
constexpr Duration kMobileWarmup = Duration::s(3);
constexpr Duration kSlice = Duration::s(1);

// --- Helpers -----------------------------------------------------------------

/// The start of a timed phase, on both host clocks.
struct Mark {
  std::int64_t cpu = cpu_ns();
  std::int64_t wall = wall_ns();
  double cpu_s() const { return static_cast<double>(cpu_ns() - cpu) / 1e9; }
  double wall_s() const { return static_cast<double>(wall_ns() - wall) / 1e9; }
};

/// Nearest-rank percentile, p in (0, 100].
double percentile(const std::vector<double>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest percentile with at least ten samples beyond it.
double tail_percentile(std::size_t n) {
  return n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n) : 100.0;
}

std::string tail_note(double pct, std::size_t n) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%.2f of %zu", pct, n);
  return buf;
}

/// Adds `<stem>_p50_<unit>` and `<stem>_tail_<unit>` over `samples`.
void add_latency(RepResult& r, const std::string& stem, const std::string& unit,
                 std::vector<double> samples) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  const double pct = tail_percentile(samples.size());
  r.sim.push_back({stem + "_p50_" + unit, percentile(samples, 50), unit, ""});
  r.sim.push_back({stem + "_tail_" + unit, percentile(samples, pct), unit,
                   tail_note(pct, samples.size())});
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// FNV-1a, 64-bit: the determinism witness for the storm and mobile runs.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Σ drops / deliveries over every link reachable from `roots`.
void add_link_totals(RepResult& r, const std::vector<net::Node*>& roots) {
  std::set<const net::Node*> seen(roots.begin(), roots.end());
  std::set<const net::Link*> links;
  std::vector<const net::Node*> todo(roots.begin(), roots.end());
  while (!todo.empty()) {
    const net::Node* node = todo.back();
    todo.pop_back();
    for (const net::Link* link : node->links()) {
      links.insert(link);
      for (const net::Node* end : {link->endpoint_a(), link->endpoint_b()}) {
        if (seen.insert(end).second) todo.push_back(end);
      }
    }
  }
  double drops = 0, delivered = 0;
  for (const net::Link* link : links) {
    drops += static_cast<double>(link->drops());
    delivered += static_cast<double>(link->delivered());
  }
  r.layer["net.link_drops"] = drops;
  r.layer["net.packets_delivered"] = delivered;
}

/// Per-layer metrics every traced repetition reports: registry counters and
/// histograms, plus host times from the harness's spans.
void add_common_layers(RepResult& r, const Tracer& tracer, std::uint64_t events) {
  for (const auto& [name, unit] : layer_metrics()) r.layer.emplace(name, 0.0);
  const obs::Registry* reg = obs::active();
  for (const std::string& name : traced_counters()) {
    const obs::Counter* c = reg->find_counter(name);
    r.layer[name] = c ? static_cast<double>(c->value()) : 0.0;
  }
  if (const obs::Histogram* h = reg->find_histogram("broker.sap_latency_ms"); h && h->count()) {
    r.layer["broker.sap_latency_ms.p50"] = h->p50();
    r.layer["broker.sap_latency_ms.tail"] = h->percentile(tail_percentile(h->count()));
  }
  const int run = tracer.run();
  r.layer["sim.events"] = static_cast<double>(events);
  r.layer["sim.ns_per_event"] = ratio(tracer.total_ms("sim.run", run) * 1e6,
                                      static_cast<double>(events));
  r.layer["cellbricks.sap_ue.self_ms"] = tracer.self_ms("cellbricks.sap_ue", run);
  r.layer["check.sweep_ms"] = tracer.self_ms("check.sweep", run);
  r.layer["scenario.build_ms"] = tracer.self_ms("scenario.build", run);
  r.layer["scenario.collect_ms"] = tracer.self_ms("scenario.collect", run);
}

// --- attach_storm --------------------------------------------------------------
// N CellBricks UEs all due to attach at t=0 against one bTelco and a one-shard
// broker cluster at the us-west RTT; composed from public classes the way
// scenario::run_attach_storm does, with set-up and run timed apart.

struct Storm {
  explicit Storm(std::uint64_t seed) : sim(seed), network(sim) {}

  struct Ue {
    net::Node* node = nullptr;
    net::Link* radio = nullptr;
    std::unique_ptr<cellbricks::SapUe> sap;
    TimePoint done_at;
    bool done = false;
  };

  sim::Simulator sim;
  net::Network network;
  std::unique_ptr<cellbricks::BrokerCluster> cluster;
  std::unique_ptr<cellbricks::Btelco> telco;
  std::vector<Ue> ues;
  Rng req_rng{0};
  int completed = 0;
  int failed = 0;  // denied, timed out, or an auth response that did not verify
};

void storm_attach(Storm& w, std::size_t i, Tracer* tracer) {
  Storm::Ue& ue = w.ues[i];
  Bytes req;
  {
    Scope span(tracer, "cellbricks.sap_ue");
    req = ue.sap->make_auth_req("telco", w.req_rng);
  }
  w.telco->handle_attach(
      std::move(req), ue.node, ue.radio,
      [&w, i, tracer](Result<std::pair<Bytes, net::Ipv4Addr>> result) {
        Storm::Ue& u = w.ues[i];
        bool ok = result.ok();
        if (ok) {
          Scope span(tracer, "cellbricks.sap_ue");
          ok = u.sap->process_auth_resp(result.value().first).ok();
        }
        if (!ok) {
          ++w.failed;
          return;
        }
        u.done_at = w.sim.now();
        u.done = true;
        ++w.completed;
      });
}

void build_storm(Storm& w, Tracer* tracer) {
  net::Network& network = w.network;
  Rng key_rng = w.sim.rng().fork(0x570);
  net::Node* tower = network.add_node("tower");
  net::Node* cloud = network.add_node("cloud");
  network.register_address(net::Ipv4Addr(2, 2, 2, 2), cloud);
  network.register_address(net::Ipv4Addr(4, 0, 0, 1), tower);
  network.connect(tower, cloud, net::LinkParams{.rate_bps = 1e9, .delay = kStormRtt / 2});

  crypto::CertificateAuthority ca("root", key_rng, 512);
  const TimePoint forever = TimePoint::zero() + Duration::s(1'000'000'000);
  auto broker_keys = crypto::RsaKeyPair::generate(key_rng, 512);
  const crypto::Certificate broker_cert =
      ca.issue("broker", broker_keys.public_key(), TimePoint::zero(), forever);
  w.cluster = std::make_unique<cellbricks::BrokerCluster>(cellbricks::BrokerShard::Config{});
  w.cluster->add_shard(*cloud, cellbricks::SapBroker("broker", std::move(broker_keys),
                                                     broker_cert, ca.public_key()));

  auto telco_keys = crypto::RsaKeyPair::generate(key_rng, 512);
  auto telco_cert = ca.issue("telco", telco_keys.public_key(), TimePoint::zero(), forever);
  w.telco = std::make_unique<cellbricks::Btelco>(
      network, *tower,
      cellbricks::SapTelco("telco", std::move(telco_keys), std::move(telco_cert),
                           ca.public_key()),
      broker_cert, w.cluster->client_endpoints().front());

  // Every UE gets its own SIM key pair. Unlike run_attach_storm's shared
  // pair, this makes set-up time an average over 200 prime searches rather
  // than a draw of one, so it barely depends on the seed.
  for (int i = 0; i < kStormUes; ++i) {
    const std::string id = "user-" + std::to_string(i);
    auto ue_keys = crypto::RsaKeyPair::generate(key_rng, 512);
    w.cluster->add_subscriber(id, ue_keys.public_key());
    Storm::Ue ue;
    ue.node = network.add_node("ue-" + std::to_string(i));
    ue.radio = network.connect(ue.node, tower, net::LinkParams{.rate_bps = 50e6});
    ue.sap = std::make_unique<cellbricks::SapUe>(id, "broker", std::move(ue_keys),
                                                 broker_cert.key());
    w.ues.push_back(std::move(ue));
  }
  network.recompute_routes();
  w.cluster->start();

  w.req_rng = w.sim.rng().fork(0x99);
  for (std::size_t i = 0; i < w.ues.size(); ++i) {
    w.sim.schedule(Duration::zero(), [&w, i, tracer] { storm_attach(w, i, tracer); });
  }
}

RepResult run_attach_storm(const RunContext& ctx) {
  RepResult r;
  const Mark setup_start;
  std::unique_ptr<Storm> w;
  {
    Scope span(ctx.tracer, "scenario.build");
    w = std::make_unique<Storm>(ctx.seed);
    build_storm(*w, ctx.tracer);
  }
  r.setup_s = setup_start.cpu_s();
  const Mark run_start;

  // Ends at the first whole simulated second after the last attach
  // resolves, long before the bTelco's first report timer.
  const TimePoint guard = TimePoint::zero() + Duration::s(120);
  while (w->completed + w->failed < kStormUes && w->sim.now() < guard) {
    Scope span(ctx.tracer, "sim.run");
    w->sim.run_until(w->sim.now() + kSlice);
  }

  double busy_ratio = 0.0;
  {
    Scope span(ctx.tracer, "scenario.collect");
    Fnv fp;
    fp.mix(static_cast<std::uint64_t>(w->completed));
    fp.mix(static_cast<std::uint64_t>(w->failed));
    std::vector<double> latency_ms;
    for (const Storm::Ue& ue : w->ues) {
      fp.mix(ue.done ? static_cast<std::uint64_t>(ue.done_at.nanos()) : ~0ull);
      if (ue.done) latency_ms.push_back((ue.done_at - TimePoint::zero()).to_millis());
    }
    fp.mix(w->sim.events_executed());
    r.fingerprint = fp.value();

    const double last_ms =
        latency_ms.empty() ? 0.0 : *std::max_element(latency_ms.begin(), latency_ms.end());
    busy_ratio = ratio(w->cluster->shard(0).busy_time().to_millis(), last_ms);
    add_latency(r, "attach", "ms", latency_ms);
    r.sim.push_back({"fail_ratio", ratio(kStormUes - w->completed, kStormUes), "ratio", ""});

    r.gate(w->completed == kStormUes, "storm: completed != N");
    r.gate(w->failed == 0, "storm: an auth response failed to verify");
    // Sanity: the broker must be a loaded resource during the storm.
    r.gate(busy_ratio >= 0.5, "storm: broker busy < 50% of the storm (no broker load)");
  }
  r.run_s = run_start.cpu_s();
  r.run_wall_s = run_start.wall_s();

  if (ctx.tracer) {
    add_common_layers(r, *ctx.tracer, w->sim.events_executed());
    // The broker's own latency histogram (queue wait plus service) shows
    // the queueing directly: its median must exceed two service times.
    const Duration service = cellbricks::BrokerShard::Config{}.broker.sap_service_time;
    r.gate(r.layer["broker.sap_latency_ms.p50"] >= 2.0 * service.to_millis(),
           "storm: no queueing at the broker (sap latency p50 < 2 service times)");
    std::vector<net::Node*> nodes;
    for (const auto& n : w->network.nodes()) nodes.push_back(n.get());
    add_link_totals(r, nodes);
    r.layer["broker.busy_ratio"] = busy_ratio;
    r.layer["settlement.entries_applied"] =
        static_cast<double>(w->cluster->shard(0).log().total_applied());
  }
  return r;
}

// --- report_ingest -------------------------------------------------------------
// scenario::BrokerLoadgen with one shard: 48 client pairs send paired signed
// reports open-loop every 80 ms (1200 rps offered against ~1000 rps of
// report service), then drain. The 12 s load phase is long enough for the
// retry collapse to show (about eight transmissions per report, and the
// shard's queue about nine load phases long) and short enough for two
// repetitions in a run. The 240 s drain runs the queue empty (~110 s), lets
// every report be acked or abandoned, and gives every unpaired half its
// 45 s pair timeout: cut earlier, a half ingested late may still await its
// verdict at the horizon, which the lost-verdict gate counts, on some seeds
// and not others.

RepResult run_report_ingest(const RunContext& ctx) {
  scenario::BrokerLoadgenConfig cfg;
  cfg.n_shards = 1;
  cfg.n_clients = kIngestClients;
  cfg.report_interval = Duration::millis(80);
  cfg.duration_s = 12.0;
  cfg.drain_s = 240.0;
  cfg.seed = ctx.seed;
  const double offered_rps = 2.0 * cfg.n_clients / cfg.report_interval.to_seconds();

  RepResult r;
  const Mark setup_start;
  std::unique_ptr<scenario::BrokerLoadgen> lg;
  {
    Scope span(ctx.tracer, "scenario.build");
    lg = std::make_unique<scenario::BrokerLoadgen>(cfg);
  }
  r.setup_s = setup_start.cpu_s();
  const Mark run_start;

  scenario::BrokerLoadgenResult res;
  {
    // BrokerLoadgen::run owns its loop (load, drain, collection): one span.
    Scope span(ctx.tracer, "sim.run");
    res = lg->run();
  }

  const cellbricks::BrokerShard& shard = lg->cluster().shard(0);
  const double busy_ratio = shard.busy_time().to_seconds() / cfg.duration_s;
  {
    Scope span(ctx.tracer, "scenario.collect");
    r.fingerprint = res.fingerprint();
    if (ctx.doctor == Doctor::LostVerdict) ++res.verdicts_lost;

    // BrokerLoadgenResult exposes only p50 and p99 of the ack latencies.
    r.sim.push_back({"ack_p50_ms", res.ack_p50_ms, "ms", ""});
    r.sim.push_back({"ack_tail_ms", res.ack_p99_ms, "ms",
                     tail_note(99.0, static_cast<std::size_t>(res.reports_acked))});
    r.sim.push_back({"goodput_rps", res.ingest_rps, "1/s", ""});
    r.sim.push_back({"offered_rps", offered_rps, "1/s", ""});
    r.sim.push_back({"fail_ratio",
                     ratio(static_cast<double>(res.reports_abandoned),
                           static_cast<double>(res.reports_sent)),
                     "ratio", ""});

    r.gate(res.verdicts_lost == 0, "ingest: verdicts lost");
    r.gate(res.verdict_conflicts == 0, "ingest: verdict conflicts");
    r.gate(res.attach_failures == 0, "ingest: attach failures");
    r.gate(res.sessions_issued == static_cast<std::uint64_t>(cfg.n_clients),
           "ingest: not every client attached");
    r.gate(res.reports_acked + res.reports_abandoned == res.reports_sent,
           "ingest: reports still outstanding at the horizon (drain too short)");
    // Sanity: the point must sit past the knee, with the shard saturated.
    r.gate(res.ingest_rps < offered_rps, "ingest: not past the knee (goodput >= offered)");
    r.gate(busy_ratio >= 0.9, "ingest: shard busy < 90% of the load phase");
  }
  r.run_s = run_start.cpu_s();
  r.run_wall_s = run_start.wall_s();

  if (ctx.tracer) {
    add_common_layers(r, *ctx.tracer, res.events_executed);
    add_link_totals(r, {&lg->cluster().shard(0).node()});
    r.layer["broker.ingest_useful_ratio"] = ratio(static_cast<double>(shard.reports_ingested()),
                                                  static_cast<double>(shard.reports_received()));
    r.layer["loadgen.tx_per_report"] =
        ratio(static_cast<double>(res.report_txs), static_cast<double>(res.reports_sent));
    r.layer["broker.busy_ratio"] = busy_ratio;
    r.layer["settlement.entries_applied"] = static_cast<double>(shard.log().total_applied());
    r.layer["broker.verdicts_lost"] = static_cast<double>(res.verdicts_lost);
    r.layer["broker.verdict_conflicts"] = static_cast<double>(res.verdict_conflicts);
  }
  return r;
}

// --- fluid_population ------------------------------------------------------------
// scenario::ScaleTrafficSim in fluid mode: 10^5 UEs pulling bulk downloads,
// the night shaper resampled on shared 30 s epochs, per-UE handovers on, and
// the parallel drain on a fixed thread count.

RepResult run_fluid_population(const RunContext& ctx) {
  scenario::ScaleTrafficConfig cfg;
  cfg.mode = scenario::TrafficMode::Fluid;
  cfg.n_ues = kFluidUes;
  cfg.seed = ctx.seed;
  cfg.mean_flow_mbytes = 5.0;
  cfg.start_window_s = 10.0;
  cfg.shaper_resample_s = 30.0;
  cfg.mobility_interval_s = 60.0;
  cfg.horizon_s = 3600.0;
  cfg.fluid_threads = kFluidThreads;

  RepResult r;
  const Mark setup_start;
  std::unique_ptr<scenario::ScaleTrafficSim> ts;
  check::InvariantEngine engine;
  {
    Scope span(ctx.tracer, "scenario.build");
    ts = std::make_unique<scenario::ScaleTrafficSim>(cfg);
    check::install_fluid_invariants(engine, *ts);
    ts->start();
  }
  r.setup_s = setup_start.cpu_s();
  const Mark run_start;

  sim::Simulator& sim = ts->simulator();
  const TimePoint horizon = TimePoint::zero() + Duration::seconds(cfg.horizon_s);
  while (ts->fluid()->completions() < static_cast<std::uint64_t>(cfg.n_ues) &&
         sim.now() < horizon) {
    Scope span(ctx.tracer, "sim.run");
    sim.run_until(sim.now() + kSlice);
  }
  {
    Scope span(ctx.tracer, "check.sweep");
    engine.finalize(sim.now());
  }

  scenario::ScaleTrafficResult res;
  std::size_t violations = engine.violations().size();
  {
    Scope span(ctx.tracer, "scenario.collect");
    res = ts->collect();
    r.fingerprint = res.fingerprint();
    if (ctx.doctor == Doctor::UnfinishedFlow) --res.completed;
    if (ctx.doctor == Doctor::Violation) ++violations;

    // ScaleTrafficResult exposes only p50 and p99 of the completion times.
    r.sim.push_back({"flow_p50_s", res.completion_p50_s, "s", ""});
    r.sim.push_back({"flow_tail_s", res.completion_p99_s, "s",
                     tail_note(99.0, static_cast<std::size_t>(res.completed))});
    r.sim.push_back({"fail_ratio", ratio(cfg.n_ues - res.completed, cfg.n_ues), "ratio", ""});

    r.gate(res.completed == cfg.n_ues, "fluid: unfinished flows at the horizon");
    r.gate(violations == 0, "fluid: invariant violations");
  }
  r.run_s = run_start.cpu_s();
  r.run_wall_s = run_start.wall_s();

  if (ctx.tracer) {
    add_common_layers(r, *ctx.tracer, res.events);
    r.layer["traffic.events_per_ue"] = ratio(static_cast<double>(res.events), cfg.n_ues);
    r.layer["traffic.arena_mb"] = static_cast<double>(res.arena_bytes) / 1e6;
    r.layer["check.checks_run"] = static_cast<double>(engine.checks_run());
    r.layer["check.violations"] = static_cast<double>(violations);
  }
  return r;
}

// --- mobile_e2e --------------------------------------------------------------------
// One CellBricks World UE on the Highway/N route with shadowing and A3+TTT
// reselection: iperf download over MPTCP, SAP re-attach at every handover,
// signed reports settled by the broker, and the world, attach and ran
// invariant catalogues swept every simulated second.

struct Mobile {
  std::unique_ptr<scenario::World> world;
  sim::EngineProbe probe;
  check::InvariantEngine engine;
  std::unique_ptr<apps::IperfPushServer> server;
  std::unique_ptr<apps::IperfDownloadClient> client;
  TimePoint due;  // the cell change the next attach answers
  bool pending = false;
  std::vector<std::int64_t> attach_ns;
};

void build_mobile(Mobile& m, std::uint64_t seed) {
  scenario::WorldConfig cfg;
  cfg.arch = scenario::Architecture::CellBricks;
  cfg.route = scenario::highway_night();
  cfg.seed = seed;
  const double drive_s = kMobileWarmup.to_seconds() + kMobileSimS + 5.0;
  cfg.n_towers = static_cast<int>(cfg.route.speed_mps * drive_s / cfg.route.tower_spacing_m) + 3;
  cfg.radio_config.channel.shadow_sigma_db = 3.5;
  cfg.radio_config.channel.decorrelation_m = 60.0;
  cfg.radio_config.l3_filter_k = 4;
  cfg.radio_config.policy = ran::ReselectionPolicyKind::A3TimeToTrigger;
  cfg.radio_config.time_to_trigger = Duration::ms(480);
  m.world = std::make_unique<scenario::World>(cfg);
  scenario::World& world = *m.world;

  world.simulator().set_probe(&m.probe);
  check::install_world_invariants(m.engine, world, &m.probe);
  check::install_attach_invariants(m.engine, world);
  check::install_ran_invariants(m.engine, world);

  m.server = std::make_unique<apps::IperfPushServer>(world.server_transport(), 5001,
                                                     world.simulator(),
                                                     Duration::seconds(kMobileSimS));
  world.on_cell_change = [&m](ran::CellId, ran::CellId to) {
    if (to == 0) return;
    m.due = m.world->simulator().now();
    m.pending = true;
  };
  world.ue_agent()->on_attached = [&m](ran::CellId, Duration) {
    if (!m.pending) return;
    m.attach_ns.push_back((m.world->simulator().now() - m.due).nanos());
    m.pending = false;
  };
  world.start();
}

RepResult run_mobile_e2e(const RunContext& ctx) {
  RepResult r;
  const Mark setup_start;
  Mobile m;
  {
    Scope span(ctx.tracer, "scenario.build");
    build_mobile(m, ctx.seed);
  }
  r.setup_s = setup_start.cpu_s();
  const Mark run_start;

  scenario::World& world = *m.world;
  sim::Simulator& sim = world.simulator();
  const TimePoint client_at = TimePoint::zero() + kMobileWarmup;
  const TimePoint end = client_at + Duration::seconds(kMobileSimS) + Duration::s(5);
  while (sim.now() < end) {
    {
      Scope span(ctx.tracer, "sim.run");
      sim.run_until(sim.now() + kSlice);
    }
    // The download starts once the initial attach has had its warm-up.
    if (!m.client && sim.now() >= client_at) {
      m.client = std::make_unique<apps::IperfDownloadClient>(
          world.ue_transport(), net::EndPoint{world.server_addr(), 5001}, sim);
    }
    Scope span(ctx.tracer, "check.sweep");
    m.engine.run_periodic(sim.now());
  }
  {
    Scope span(ctx.tracer, "check.sweep");
    m.engine.finalize(sim.now());
  }
  sim.set_probe(nullptr);

  std::size_t violations = m.engine.violations().size();
  {
    Scope span(ctx.tracer, "scenario.collect");
    const cellbricks::UeAgent& agent = *world.ue_agent();
    const std::uint64_t app_bytes = m.client ? m.client->total_bytes() : 0;
    const double attempts =
        static_cast<double>(agent.attach_latencies().count() + agent.attach_failures());

    Fnv fp;
    for (std::int64_t ns : m.attach_ns) fp.mix(static_cast<std::uint64_t>(ns));
    fp.mix(app_bytes);
    fp.mix(world.handovers());
    fp.mix(sim.events_executed());
    fp.mix(m.engine.checks_run());
    fp.mix(violations);
    r.fingerprint = fp.value();
    if (ctx.doctor == Doctor::Violation) ++violations;

    std::vector<double> attach_ms;
    for (std::int64_t ns : m.attach_ns) attach_ms.push_back(static_cast<double>(ns) / 1e6);
    add_latency(r, "attach", "ms", attach_ms);
    r.sim.push_back({"app_goodput_mbps", static_cast<double>(app_bytes) * 8.0 / kMobileSimS / 1e6,
                     "Mb/s", ""});
    r.sim.push_back(
        {"fail_ratio", ratio(static_cast<double>(agent.attach_failures()), attempts), "ratio", ""});
    r.sim.push_back({"handovers", static_cast<double>(world.handovers()), "count", ""});

    r.gate(violations == 0, "mobile: invariant violations");
    r.gate(agent.attached(), "mobile: UE not attached at the end");
    r.gate(m.attach_ns.size() >= 20, "mobile: fewer than 20 attaches (no attach tail)");
  }
  r.run_s = run_start.cpu_s();
  r.run_wall_s = run_start.wall_s();

  if (ctx.tracer) {
    add_common_layers(r, *ctx.tracer, sim.events_executed());
    std::vector<net::Node*> nodes;
    for (const auto& n : world.network().nodes()) nodes.push_back(n.get());
    add_link_totals(r, nodes);
    r.layer["check.checks_run"] = static_cast<double>(m.engine.checks_run());
    r.layer["check.violations"] = static_cast<double>(violations);
  }
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"attach_storm",
       "N UEs attach at once: control plane only (route recompute per session, RSA, broker "
       "queueing); no data plane",
       run_attach_storm},
      {"report_ingest",
       "one broker shard offered 1.2x its report capacity: unseal, verify, dedup, pairing and "
       "settlement; no routing or fluid work",
       run_report_ingest},
      {"fluid_population",
       "1e5 UEs in the fluid engine: water-filling, accrual, billing sweeps, event heap; no "
       "crypto, routing or broker",
       run_fluid_population},
      {"mobile_e2e",
       "one UE on a night highway: packet TCP/MPTCP, RAN measurement, SAP re-attach per "
       "handover, settlement and the checker",
       run_mobile_e2e},
  };
  return all;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"btelco.attaches", "count"},
      {"net.link_drops", "count"},
      {"net.packets_delivered", "count"},
      {"sap.ue.auth_req_built", "count"},
      {"sap.broker.auth_req_ok", "count"},
      {"sap.ue.auth_resp_ok", "count"},
      {"cellbricks.sap_ue.self_ms", "ms"},
      {"broker.sap.requests", "count"},
      {"broker.sap.cache_hits", "count"},
      {"broker.sap_latency_ms.p50", "ms"},
      {"broker.sap_latency_ms.tail", "ms"},
      {"ue_agent.attach.attempts", "count"},
      {"ue_agent.attach.failure", "count"},
      {"ue_agent.attach.timeout", "count"},
      {"ue_agent.attach.retries", "count"},
      {"broker.reports.received", "count"},
      {"broker.reports.ingested", "count"},
      {"broker.reports.deduped", "count"},
      {"broker.reports.ack_cache_hits", "count"},
      {"broker.reports.unpaired_expired", "count"},
      {"broker.ingest_useful_ratio", "ratio"},
      {"loadgen.tx_per_report", "ratio"},
      {"broker.busy_ratio", "ratio"},
      {"settlement.entries_applied", "count"},
      {"broker.verdicts_lost", "count"},
      {"broker.verdict_conflicts", "count"},
      {"traffic.fluid.rate_events", "count"},
      {"traffic.flows_completed", "count"},
      {"traffic.events_per_ue", "count"},
      {"traffic.arena_mb", "MB"},
      {"tcp.segments.sent", "count"},
      {"tcp.retransmits", "count"},
      {"tcp.rto", "count"},
      {"mptcp.subflows.opened", "count"},
      {"ran.measurement_ticks", "count"},
      {"ran.cell_changes", "count"},
      {"check.checks_run", "count"},
      {"check.sweep_ms", "ms"},
      {"check.violations", "count"},
      {"scenario.build_ms", "ms"},
      {"scenario.collect_ms", "ms"},
      {"trace.overhead_s", "s"},
  };
  return all;
}

std::vector<std::string> traced_counters() {
  return {"btelco.attaches",
          "sap.ue.auth_req_built",
          "sap.broker.auth_req_ok",
          "sap.ue.auth_resp_ok",
          "broker.sap.requests",
          "broker.sap.cache_hits",
          "ue_agent.attach.attempts",
          "ue_agent.attach.failure",
          "ue_agent.attach.timeout",
          "ue_agent.attach.retries",
          "broker.reports.received",
          "broker.reports.ingested",
          "broker.reports.deduped",
          "broker.reports.ack_cache_hits",
          "broker.reports.unpaired_expired",
          "traffic.fluid.rate_events",
          "traffic.flows_completed",
          "tcp.segments.sent",
          "tcp.retransmits",
          "tcp.rto",
          "mptcp.subflows.opened",
          "ran.measurement_ticks",
          "ran.cell_changes"};
}

}  // namespace cbbench
