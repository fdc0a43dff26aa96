#include "check/runner.hpp"

#include <algorithm>
#include <memory>

#include "apps/iperf.hpp"
#include "apps/ping.hpp"
#include "check/attach_invariants.hpp"
#include "check/fluid_invariants.hpp"
#include "check/ran_invariants.hpp"
#include "check/settlement_invariants.hpp"
#include "check/world_invariants.hpp"
#include "common/fnv.hpp"
#include "scenario/chaos.hpp"
#include "scenario/scale_traffic.hpp"
#include "scenario/world.hpp"
#include "sim/fault.hpp"

namespace cb::check {

namespace {

scenario::WorldConfig world_config(const scenario::FuzzScenario& s) {
  scenario::WorldConfig w;
  w.protocol = s.protocol;
  w.route = scenario::RouteSpec{"Fuzz", s.night, s.speed_mps, s.tower_spacing_m,
                                s.night ? ran::RatePolicy::night() : ran::RatePolicy::day()};
  w.seed = s.seed;
  w.n_towers = s.n_towers;
  w.radio_loss = s.radio_loss;
  w.unlimited_policy = s.unlimited_policy;
  w.report_interval = Duration::seconds(s.report_interval_s);
  w.telco0_overreport = s.telco0_overreport;
  w.ue_underreport = s.ue_underreport;
  w.shard_config.broker.test_skip_report_dedup = s.plant_dedup_bug;
  w.broker_shards = s.broker_shards;
  // Measurement axis: channel noise + policy (radio seed derives from the
  // world seed inside World).
  w.radio_config.channel.shadow_sigma_db = s.shadow_sigma_db;
  w.radio_config.channel.decorrelation_m = s.decorrelation_m;
  w.radio_config.channel.fast_fading = s.fast_fading;
  w.radio_config.policy = s.reselection_policy;
  w.radio_config.time_to_trigger = Duration::ms(s.ttt_ms);
  w.radio_config.l3_filter_k = s.l3_filter_k;
  return w;
}

}  // namespace

std::uint64_t RunReport::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, events_executed);
  fnv_mix(h, sessions_issued);
  fnv_mix(h, reports_ingested);
  fnv_mix(h, pairs_compared);
  fnv_mix(h, fault_log_entries);
  fnv_mix(h, ue_attached_at_end ? 1 : 0);
  fnv_mix(h, traffic_completed);
  fnv_mix(h, traffic_rate_events);
  fnv_mix(h, traffic_demotions);
  fnv_mix(h, traffic_fingerprint);
  fnv_mix(h, static_cast<std::uint64_t>(violations.size()));
  return h;
}

RunReport run_scenario(const scenario::FuzzScenario& s, const RunOptions& options) {
  scenario::World world(world_config(s));
  sim::Simulator& sim = world.simulator();

  sim::EngineProbe probe;
  sim.set_probe(&probe);

  InvariantEngine engine;
  install_world_invariants(engine, world, &probe);
  install_attach_invariants(engine, world);
  install_ran_invariants(engine, world);
  install_settlement_invariants(engine, world);

  const TimePoint horizon = TimePoint::zero() + Duration::seconds(s.duration_s);
  engine.arm(sim, options.check_cadence, horizon);

  sim::ChaosController chaos(sim, scenario::bind_faults(s.faults, world));
  chaos.arm();

  // App mix. Servers must exist before the client's SYN; the download client
  // connects after start() so its subflow rides the first attach.
  std::unique_ptr<apps::IperfPushServer> dl_server;
  std::unique_ptr<apps::IperfDownloadClient> dl_client;
  std::unique_ptr<apps::PingServer> ping_server;
  std::unique_ptr<apps::PingClient> ping_client;
  const bool want_download = s.app == 1 || s.app == 3;
  const bool want_ping = s.app == 2 || s.app == 3;
  if (want_download) {
    dl_server = std::make_unique<apps::IperfPushServer>(world.server_transport(), 5001, sim,
                                                        Duration::seconds(s.duration_s));
  }
  if (want_ping) {
    ping_server = std::make_unique<apps::PingServer>(*world.server_node(), 7);
    ping_client =
        std::make_unique<apps::PingClient>(*world.ue_node(), net::EndPoint{world.server_addr(), 7});
  }
  world.start();
  if (want_download) {
    dl_client = std::make_unique<apps::IperfDownloadClient>(
        world.ue_transport(), net::EndPoint{world.server_addr(), 5001}, sim);
  }

  sim.run_until(horizon);
  engine.finalize(sim.now());
  sim.set_probe(nullptr);

  RunReport report;
  report.violations = engine.violations();
  report.checks_run = engine.checks_run();
  report.events_executed = sim.events_executed();
  if (const auto* broker = world.broker_cluster()) {
    report.sessions_issued = broker->sessions_issued();
    report.reports_ingested = broker->reports_ingested();
    report.pairs_compared = broker->pairs_compared();
  }
  report.fault_log_entries = chaos.log().size();
  report.ue_attached_at_end = world.ue_agent() != nullptr ? world.ue_agent()->attached()
                                                          : world.ue_nas()->attached();

  // Traffic phase: an independent simulator running the hybrid fluid/packet
  // engine under its own invariant catalogue. Kept separate from the world
  // run so the world's chaos fingerprints are untouched by the knob.
  if (s.fluid_ues > 0) {
    scenario::ScaleTrafficConfig tc;
    tc.mode = s.fluid_hybrid ? scenario::TrafficMode::Hybrid : scenario::TrafficMode::Fluid;
    tc.n_ues = s.fluid_ues;
    tc.n_cells = std::max(1, s.fluid_ues / 16);
    tc.seed = s.seed;
    tc.night = s.night;
    tc.mean_flow_mbytes = 2.0;
    tc.start_window_s = 5.0;
    tc.horizon_s = 600.0;
    tc.mobility_interval_s = 20.0;
    tc.shaper_resample_s = s.report_interval_s;
    tc.report_interval_s = s.report_interval_s;
    if (s.fluid_hybrid) {
      tc.fault_start_s = 5.0;
      tc.fault_duration_s = 10.0;
    }
    scenario::ScaleTrafficSim traffic(tc);
    InvariantEngine fluid_engine;
    install_fluid_invariants(fluid_engine, traffic);
    traffic.start();
    const TimePoint traffic_horizon = TimePoint::zero() + Duration::seconds(tc.horizon_s);
    fluid_engine.arm(traffic.simulator(), options.check_cadence, traffic_horizon);
    traffic.simulator().run_until(traffic_horizon);
    fluid_engine.finalize(traffic.simulator().now());
    const scenario::ScaleTrafficResult tr = traffic.collect();

    report.violations.insert(report.violations.end(), fluid_engine.violations().begin(),
                             fluid_engine.violations().end());
    report.checks_run += fluid_engine.checks_run();
    report.traffic_completed = static_cast<std::uint64_t>(tr.completed);
    report.traffic_rate_events = tr.rate_events;
    report.traffic_demotions = tr.demotions;
    report.traffic_fingerprint = tr.fingerprint();
  }
  return report;
}

}  // namespace cb::check
