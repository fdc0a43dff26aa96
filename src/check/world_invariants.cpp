#include "check/world_invariants.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <sstream>

namespace cb::check {

namespace {

using When = InvariantEngine::When;
using Reporter = InvariantEngine::Reporter;

}  // namespace

void install_world_invariants(InvariantEngine& engine, scenario::World& world,
                              const sim::EngineProbe* probe) {
  auto* w = &world;

  if (probe) {
    engine.add("engine.health", When::Periodic, [probe](Reporter& r) {
      if (probe->past_events != 0) {
        std::ostringstream s;
        s << probe->past_events << " event(s) popped with a timestamp in the past";
        r.fail(s.str());
      }
      if (probe->order_regressions != 0) {
        std::ostringstream s;
        s << probe->order_regressions << " non-monotone heap pop(s)";
        r.fail(s.str());
      }
    });
  }

  engine.add("session.single_bearer", When::Periodic, [w](Reporter& r) {
    std::size_t up = 0;
    for (const auto& [cell, site] : w->ran_map().sites()) {
      if (site.radio_link && site.radio_link->is_up()) ++up;
    }
    if (up > 1) {
      std::ostringstream s;
      s << up << " radio bearers up simultaneously (host-driven mobility is "
           "break-before-make: at most 1)";
      r.fail(s.str());
    }
  });

  engine.add("session.gc_horizon", When::Periodic, [w](Reporter& r) {
    const auto& cfg = w->config().btelco_config;
    // A session idle since `cutoff` has survived the inactivity timeout plus
    // two full GC sweeps plus slack — the GC is broken if one still exists.
    const Duration horizon =
        cfg.session_timeout + cfg.gc_interval * 2 + Duration::s(5);
    const TimePoint now = w->simulator().now();
    if (now.nanos() < horizon.nanos()) return;
    for (std::size_t i = 0; i < w->n_btelcos(); ++i) {
      auto* t = w->btelco(i);
      if (t->crashed()) continue;
      const std::size_t stale = t->sessions_stale_since(now - horizon);
      if (stale != 0) {
        std::ostringstream s;
        s << t->id() << ": " << stale << " session(s) idle beyond the GC horizon ("
          << horizon.to_seconds() << "s)";
        r.fail(s.str());
      }
    }
  });

  // The broker invariants read the cluster's observer fold: the auditor's
  // view of every authored settlement entry, at any shard count and across
  // shard crashes.
  engine.add("sap.session_backed", When::Periodic, [w](Reporter& r) {
    auto* broker = w->broker_cluster();
    if (!broker) return;
    for (std::size_t i = 0; i < w->n_btelcos(); ++i) {
      auto* t = w->btelco(i);
      for (std::uint64_t sid : t->session_ids()) {
        if (!broker->observer().sessions().contains(sid)) {
          std::ostringstream s;
          s << t->id() << ": installed session " << sid
            << " has no broker-issued record (no signed verdict backs it)";
          r.fail(s.str());
        }
      }
    }
  });

  engine.add("sap.nonce_unique", When::Periodic,
             [w, prev = std::make_shared<std::pair<std::size_t, std::uint64_t>>(
                     0, 0)](Reporter& r) mutable {
               auto* broker = w->broker_cluster();
               if (!broker) return;
               const std::size_t nonces = broker->nonces_seen();
               const std::uint64_t issued = broker->sessions_issued();
               if (nonces < issued) {
                 std::ostringstream s;
                 s << "broker issued " << issued << " sessions from only " << nonces
                   << " distinct nonces (a nonce was reused)";
                 r.fail(s.str());
               }
               if (nonces < prev->first || issued < prev->second) {
                 r.fail("nonce/session counters went backwards");
               }
               *prev = {nonces, issued};
             });

  engine.add("billing.dedup", When::Periodic, [w](Reporter& r) {
    auto* broker = w->broker_cluster();
    if (!broker) return;
    for (const auto& [sid, rec] : broker->observer().sessions()) {
      if (rec.accumulations != rec.reports) {
        std::ostringstream s;
        s << "session " << sid << ": " << rec.accumulations
          << " accumulations for " << rec.reports
          << " distinct (period, reporter) keys — a retransmitted report was "
             "double-counted";
        r.fail(s.str());
      }
    }
  });

  engine.add("billing.conservation", When::Periodic, [w](Reporter& r) {
    auto* broker = w->broker_cluster();
    if (!broker) return;
    for (const auto& [sid, rec] : broker->observer().sessions()) {
      if (rec.mismatches != 0) continue;  // flagged pairs may diverge freely
      const double telco = static_cast<double>(rec.telco_paired_bytes);
      const double ue = static_cast<double>(rec.ue_paired_bytes);
      if (std::abs(telco - ue) > rec.paired_threshold + 1e-6) {
        std::ostringstream s;
        s << "session " << sid << ": paired bytes diverge beyond tolerance "
          << "(telco=" << rec.telco_paired_bytes
          << " ue=" << rec.ue_paired_bytes
          << " tol=" << rec.paired_threshold << ") with no mismatch flagged";
        r.fail(s.str());
      }
    }
  });

  engine.add(
      "reputation.honest", When::Periodic,
      [w, prev = std::make_shared<std::map<std::string, double>>()](Reporter& r) mutable {
        auto* broker = w->broker_cluster();
        if (!broker) return;
        const auto& rep = broker->reputation();
        const bool honest_world = w->config().telco0_overreport == 1.0 &&
                                  w->config().ue_underreport == 1.0;
        for (std::size_t i = 0; i < w->n_btelcos(); ++i) {
          const std::string& id = w->btelco(i)->id();
          const double score = rep.telco_score(id);
          const bool clean =
              rep.mismatches(id) == 0 && rep.missing_reports(id) == 0;
          if (clean && score < 1.0 - 1e-9) {
            std::ostringstream s;
            s << id << ": score " << score
              << " dropped with no mismatch and no missing report recorded";
            r.fail(s.str());
          }
          // Monotonicity: an honest world's scores never fall (clean pairs
          // only recover; faults can delay reports, but record_missing always
          // bumps missing_reports, which clears `clean` above — so a silent
          // decrease is a reputation-accounting bug either way).
          auto it = prev->find(id);
          if (it != prev->end() && score < it->second - 1e-9 && clean && honest_world) {
            std::ostringstream s;
            s << id << ": score fell " << it->second << " -> " << score
              << " while clean and honest";
            r.fail(s.str());
          }
          (*prev)[id] = score;
        }
      });

  engine.add("transport.sanity", When::Periodic, [w](Reporter& r) {
    for (auto* stack : {w->ue_mptcp(), w->server_mptcp()}) {
      if (!stack) continue;
      const auto& c = stack->sanity();
      if (c.total() != 0) {
        std::ostringstream s;
        s << "MPTCP impossible-state counters nonzero (dead_subflow="
          << c.data_on_dead_subflow << " past_fin=" << c.data_past_fin
          << " ack_beyond_sent=" << c.ack_beyond_sent << ")";
        r.fail(s.str());
      }
    }
  });
}

}  // namespace cb::check
