#include "scenario/chaos.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/fnv.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace cb::scenario {

namespace {

/// Availability sampling cadence.
constexpr Duration kSampleInterval = Duration::millis(200);

}  // namespace

sim::FaultPlan bind_faults(const std::vector<FuzzFault>& faults, World& world) {
  sim::FaultPlan plan;
  for (const auto& f : faults) {
    const TimePoint start = TimePoint::zero() + Duration::seconds(f.start_s);
    const Duration dur = Duration::seconds(f.duration_s);
    switch (f.kind) {
      case FuzzFault::Kind::BrokerOutage:
        plan.window(
            "broker-outage", start, dur,
            [&world] { world.cloud_node()->set_up(false); },
            [&world] { world.cloud_node()->set_up(true); });
        break;
      case FuzzFault::Kind::TelcoCrash: {
        if (world.n_btelcos() == 0) break;  // MNO world: no bTelco to crash
        // Clamp: the sampler draws the index before shrinking drops towers.
        const std::size_t i = f.telco < world.n_btelcos() ? f.telco : world.n_btelcos() - 1;
        plan.window(
            "crash:btelco-" + std::to_string(i), start, dur,
            [&world, i] { world.btelco(i)->crash(); },
            [&world, i] { world.btelco(i)->restart(); });
        break;
      }
      case FuzzFault::Kind::RadioDrop:
        plan.at("radio-drop", start, [&world] {
          // The serving cell lives on the agent (CellBricks) or NAS (MNO).
          const ran::CellId cell = world.ue_agent() != nullptr
                                       ? world.ue_agent()->serving_cell()
                                       : world.ue_nas()->serving_cell();
          if (cell != 0) world.ran_map().site(cell).radio_link->set_up(false);
        });
        break;
      case FuzzFault::Kind::ShardKill: {
        // A lone shard has no replica to recover from (and MNO worlds have
        // no broker at all).
        if (world.broker_cluster() == nullptr || world.broker_cluster()->n_shards() < 2) break;
        const std::size_t i =
            std::min(f.telco, world.broker_cluster()->n_shards() - 1);
        plan.window(
            "kill:broker-shard-" + std::to_string(i), start, dur,
            [&world, i] { world.broker_cluster()->crash_shard(i); },
            [&world, i] { world.broker_cluster()->restart_shard(i); });
        break;
      }
      case FuzzFault::Kind::WanDegrade: {
        auto apply = [&world](double loss, double corrupt) {
          for (std::size_t i = 0; i < world.n_cloud_links(); ++i) {
            net::Link* link = world.cloud_link(i);
            for (net::Node* end : {link->endpoint_a(), link->endpoint_b()}) {
              net::LinkParams p = link->params(end);
              p.loss = loss;
              p.corrupt = corrupt;
              link->set_params(end, p);
            }
          }
        };
        plan.window(
            "wan-degrade", start, dur,
            [apply, loss = f.loss, corrupt = f.corrupt] { apply(loss, corrupt); },
            [apply] { apply(0.0, 0.0); });
        break;
      }
    }
  }
  return plan;
}

ChaosResult run_chaos(const ChaosConfig& config) {
  // Every chaos run records into its own registry so the ChaosResult carries
  // a self-contained snapshot; anything recorded here is also folded into
  // the caller's registry (if one is active) before returning.
  obs::Registry* parent = obs::active();
  obs::Registry metrics;
  obs::ScopedRegistry scoped(&metrics);

  WorldConfig wcfg = config.world;
  if (wcfg.protocol == AttachProtocol::Default) wcfg.protocol = AttachProtocol::Sap;
  if (wcfg.protocol != AttachProtocol::Sap && wcfg.protocol != AttachProtocol::SapResume) {
    // The availability sampler reads the UE agent, which an EPC world lacks.
    throw std::invalid_argument(std::string("run_chaos: ") + to_string(wcfg.protocol) +
                                " builds no UE agent to sample");
  }
  World world(wcfg);
  sim::Simulator& sim = world.simulator();

  sim::ChaosController chaos(sim, bind_faults(config.faults, world));
  chaos.arm();
  world.start();

  // Availability sampling + determinism fingerprint.
  ChaosResult result;
  std::uint64_t fp = kFnvOffset;
  std::uint64_t samples = 0, attached_samples = 0;
  std::uint64_t samples_after = 0, attached_after = 0;
  const TimePoint last_fault = chaos.plan().last_event();
  const auto n_samples = static_cast<std::uint64_t>(
      config.duration.to_seconds() / kSampleInterval.to_seconds());
  for (std::uint64_t k = 1; k <= n_samples; ++k) {
    const TimePoint at = TimePoint::zero() + kSampleInterval * k;
    sim.schedule_at(at, [&, at] {
      const bool attached = world.ue_agent()->attached();
      ++samples;
      attached_samples += attached ? 1 : 0;
      if (at > last_fault) {
        ++samples_after;
        attached_after += attached ? 1 : 0;
      }
      fnv_mix(fp, attached ? 1 : 0);
      fnv_mix(fp, world.ue_agent()->serving_cell());
      fnv_mix(fp, chaos.active_faults());
    });
  }

  sim.run_until(TimePoint::zero() + config.duration);

  result.availability =
      samples > 0 ? static_cast<double>(attached_samples) / static_cast<double>(samples) : 0.0;
  result.availability_after_faults =
      samples_after > 0
          ? static_cast<double>(attached_after) / static_cast<double>(samples_after)
          : result.availability;
  result.reattach_latency_ms = world.ue_agent()->reattach_latencies();
  result.attach_failures = world.ue_agent()->attach_failures();
  result.bearer_losses = world.ue_agent()->bearer_losses();
  result.ue_attached_at_end = world.ue_agent()->attached();
  result.reports_abandoned = world.ue_agent()->reports_abandoned();
  std::size_t sessions_at_end = 0;
  for (std::size_t i = 0; i < world.n_btelcos(); ++i) {
    result.sessions_gced += world.btelco(i)->sessions_gced();
    result.reports_abandoned += world.btelco(i)->reports_abandoned();
    sessions_at_end += world.btelco(i)->active_sessions();
  }
  result.orphan_sessions = sessions_at_end - (result.ue_attached_at_end ? 1 : 0);

  const cellbricks::BrokerCluster& broker = *world.broker_cluster();
  result.reports_ingested = broker.reports_ingested();
  result.reports_deduped = broker.reports_deduped();
  result.unpaired_expired = broker.unpaired_expired();
  result.pairs_compared = broker.pairs_compared();
  result.pair_completion =
      result.reports_ingested > 0
          ? 2.0 * static_cast<double>(result.pairs_compared) /
                static_cast<double>(result.reports_ingested)
          : 0.0;
  result.fault_log = chaos.log();

  // Fold the end-state counters into the fingerprint so silent divergence
  // in recovery bookkeeping also trips the determinism check.
  fnv_mix(fp, result.attach_failures);
  fnv_mix(fp, result.bearer_losses);
  fnv_mix(fp, result.sessions_gced);
  fnv_mix(fp, result.orphan_sessions);
  fnv_mix(fp, result.reports_ingested);
  fnv_mix(fp, result.reports_deduped);
  fnv_mix(fp, result.unpaired_expired);
  fnv_mix(fp, result.pairs_compared);
  fnv_mix(fp, static_cast<std::uint64_t>(result.fault_log.size()));
  result.fingerprint = fp;
  result.metrics_json = metrics.to_json();
  result.trace_fingerprint = metrics.trace().fingerprint();
  if (parent != nullptr) parent->merge(metrics);
  return result;
}

}  // namespace cb::scenario
