#include "check/settlement_invariants.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

namespace cb::check {

namespace {

using When = InvariantEngine::When;
using Reporter = InvariantEngine::Reporter;

}  // namespace

void install_settlement_invariants(InvariantEngine& engine, scenario::World& world) {
  auto* w = &world;

  engine.add("broker.settlement_prefix_agreement", When::Periodic, [w](Reporter& r) {
    auto* cluster = w->broker_cluster();
    if (!cluster) return;
    const auto& truth = cluster->observer_log();
    for (std::size_t i = 0; i < cluster->n_shards(); ++i) {
      const auto& shard = cluster->shard(i);
      if (shard.crashed()) continue;  // log wiped; trivially consistent
      const auto& log = shard.log();
      const std::size_t n_streams = std::max(log.n_streams(), truth.n_streams());
      for (std::size_t s = 0; s < n_streams; ++s) {
        const std::uint64_t common = std::min(log.applied_len(s), truth.applied_len(s));
        if (log.chain_hash_at(s, common) != truth.chain_hash_at(s, common)) {
          std::ostringstream msg;
          msg << "shard " << i << " stream " << s << ": applied prefix of length "
              << common << " chain-hashes differently from the authored entries "
              << "(replica content forked)";
          r.fail(msg.str());
        }
      }
    }
  });

  engine.add("broker.settlement_verdict_unique", When::Periodic, [w](Reporter& r) {
    auto* cluster = w->broker_cluster();
    if (!cluster) return;
    auto check_fold = [&r](const cellbricks::SettlementState& fold, const std::string& who) {
      if (fold.verdict_conflicts() != 0) {
        std::ostringstream msg;
        msg << who << ": " << fold.verdict_conflicts()
            << " verdict(s) replayed with CONFLICTING content for an already-"
               "decided (session, period) pair";
        r.fail(msg.str());
      }
    };
    check_fold(cluster->observer(), "observer fold");
    for (std::size_t i = 0; i < cluster->n_shards(); ++i) {
      if (cluster->shard(i).crashed()) continue;
      check_fold(cluster->shard(i).fold(), "shard " + std::to_string(i));
    }
  });

  // Verdict loss: judged against the observer fold (which survives crashes)
  // and anchored to the last instant the cluster was disturbed — while a
  // shard is down or catching up, verdicts are allowed to be late, never
  // after the takeover has had a full settling window to re-drive them.
  engine.add(
      "broker.settlement_no_verdict_loss", When::Periodic,
      [w, last_disturbed = std::make_shared<TimePoint>()](Reporter& r) mutable {
        auto* cluster = w->broker_cluster();
        if (!cluster) return;
        const TimePoint now = w->simulator().now();
        bool disturbed = false;
        for (std::size_t i = 0; i < cluster->n_shards(); ++i) {
          if (cluster->shard(i).crashed() || cluster->shard(i).recovering()) disturbed = true;
        }
        if (disturbed) {
          *last_disturbed = now;
          return;
        }
        const auto& cfg = cluster->config();
        // Detection + takeover + one full sweep cycle, plus slack.
        using cellbricks::BrokerShard;
        const Duration settle =
            BrokerShard::kHeartbeatInterval * (BrokerShard::kMissThreshold + 1) +
            cfg.broker.gc_interval * 2 + Duration::s(5);
        if (now - *last_disturbed < settle) return;
        const Duration horizon = cfg.broker.pair_timeout + settle;
        for (const auto& [key, pending] : cluster->observer().pending()) {
          const auto& [sid, period, side] = key;
          if (cluster->observer().pair_decided(sid, period)) continue;
          if (now - pending.received_at <= horizon) continue;
          std::ostringstream msg;
          msg << "session " << sid << " period " << period << " side " << side
              << ": report ingested at " << pending.received_at.to_seconds()
              << "s still has no verdict at " << now.to_seconds()
              << "s (pair timeout " << cfg.broker.pair_timeout.to_seconds()
              << "s, cluster undisturbed since " << last_disturbed->to_seconds()
              << "s) — a billing verdict was lost";
          r.fail(msg.str());
        }
      });
}

}  // namespace cb::check
