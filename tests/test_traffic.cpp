// Hybrid fluid/packet traffic engine (DESIGN.md §11): arena layout, max-min
// shares, byte conservation, the fluid/packet fidelity boundary, same-seed
// determinism, and the small-N packet-vs-fluid agreement the CI gates on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "scenario/scale_traffic.hpp"
#include "sim/simulator.hpp"
#include "test_seed.hpp"
#include "traffic/arena.hpp"
#include "traffic/fluid.hpp"

namespace cb::traffic {
namespace {

TEST(Arena, SoALayoutAndRecycling) {
  SessionArena arena(8);
  const SessionId a = arena.create(0, 1.0f, 5e6);
  const SessionId b = arena.create(1, 2.0f, 0.0, 2);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(arena.size(), 2u);
  arena.release(a);
  EXPECT_EQ(arena.size(), 1u);
  // Freed slot is recycled, not grown.
  const SessionId c = arena.create(3, 1.0f, 1e6);
  EXPECT_EQ(c, a);
  EXPECT_EQ(arena.slots(), 2u);
  EXPECT_EQ(arena.cell(c), 3u);
  EXPECT_EQ(arena.mode(c), FlowMode::Idle);
  // The working-set figure is a compile-time constant of the column set.
  EXPECT_EQ(SessionArena::bytes_per_session(), 4u + 4u + 2u + 6u * 8u + 2u * 8u);
}

TEST(Fluid, EqualShareSplitsCapacity) {
  sim::Simulator sim(1);
  SessionArena arena(4);
  FluidEngine eng(sim, arena);
  const std::uint32_t cell = eng.add_cell(100e6);
  for (int i = 0; i < 4; ++i) arena.create(cell, 1.0f, 0.0);
  for (SessionId id = 0; id < 4; ++id) eng.start_flow(id, 1e9);
  eng.flush();  // mutations defer the water-fill to the same-timestamp drain
  for (SessionId id = 0; id < 4; ++id) EXPECT_DOUBLE_EQ(arena.rate_bps(id), 25e6);
}

TEST(Fluid, CapBoundFlowsReleaseCapacityToOthers) {
  sim::Simulator sim(1);
  SessionArena arena(3);
  FluidEngine eng(sim, arena);
  const std::uint32_t cell = eng.add_cell(90e6);
  arena.create(cell, 1.0f, 10e6);  // shaper-capped
  arena.create(cell, 1.0f, 0.0);
  arena.create(cell, 1.0f, 0.0);
  for (SessionId id = 0; id < 3; ++id) eng.start_flow(id, 1e9);
  eng.flush();
  // Water-filling: capped flow keeps 10, the other two split the remaining 80.
  EXPECT_DOUBLE_EQ(arena.rate_bps(0), 10e6);
  EXPECT_DOUBLE_EQ(arena.rate_bps(1), 40e6);
  EXPECT_DOUBLE_EQ(arena.rate_bps(2), 40e6);
}

TEST(Fluid, WeightedShares) {
  sim::Simulator sim(1);
  SessionArena arena(2);
  FluidEngine eng(sim, arena);
  const std::uint32_t cell = eng.add_cell(30e6);
  arena.create(cell, 2.0f, 0.0);  // premium QCI, weight 2
  arena.create(cell, 1.0f, 0.0);
  eng.start_flow(0, 1e9);
  eng.start_flow(1, 1e9);
  eng.flush();
  EXPECT_DOUBLE_EQ(arena.rate_bps(0), 20e6);
  EXPECT_DOUBLE_EQ(arena.rate_bps(1), 10e6);
}

TEST(Fluid, CompletionTimeIsAnalytic) {
  sim::Simulator sim(1);
  SessionArena arena(1);
  FluidEngine eng(sim, arena);
  const std::uint32_t cell = eng.add_cell(8e6);  // 1 MB/s
  arena.create(cell, 1.0f, 0.0);
  std::vector<SessionId> done;
  eng.on_complete = [&](SessionId id) { done.push_back(id); };
  eng.start_flow(0, 10e6);  // 10 MB at 1 MB/s -> 10 s
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(arena.mode(0), FlowMode::Done);
  EXPECT_DOUBLE_EQ(arena.delivered_bytes(0), 10e6);
  EXPECT_NEAR(static_cast<double>(arena.finish_ns(0)) / 1e9, 10.0, 1e-3);
  // Only rate-change points generated events: O(1) events for the whole flow.
  EXPECT_LT(sim.events_executed(), 10u);
}

TEST(Fluid, ConservationLedgerAcrossChurn) {
  sim::Simulator sim(1);
  SessionArena arena(16);
  FluidEngine eng(sim, arena);
  const std::uint32_t c0 = eng.add_cell(50e6);
  const std::uint32_t c1 = eng.add_cell(50e6);
  for (int i = 0; i < 16; ++i) arena.create(i % 2 ? c0 : c1, 1.0f, 0.0);
  for (SessionId id = 0; id < 16; ++id) {
    sim.schedule(Duration::ms(50 * id), [&eng, id] { eng.start_flow(id, 4e6); });
  }
  // Mid-run churn: handovers and a capacity dip — all rate-change points.
  sim.schedule(Duration::seconds(1.0), [&] {
    for (SessionId id = 0; id < 8; ++id) eng.handover(id, arena.cell(id) == c0 ? c1 : c0);
  });
  sim.schedule(Duration::seconds(2.0), [&] { eng.set_cell_capacity(c0, 10e6); });
  sim.schedule(Duration::seconds(3.0), [&] { eng.set_cell_capacity(c0, 50e6); });
  sim.run();

  double delivered = 0.0;
  for (SessionId id = 0; id < 16; ++id) {
    EXPECT_EQ(arena.mode(id), FlowMode::Done);
    EXPECT_DOUBLE_EQ(arena.delivered_bytes(id), arena.demand_bytes(id));
    delivered += arena.delivered_bytes(id);
  }
  // fluid.conservation: delivered == sum of banked segments, no negatives.
  EXPECT_NEAR(eng.segment_bytes(), delivered, 1.0);
  EXPECT_EQ(eng.negative_residuals(), 0u);
  EXPECT_EQ(eng.active_fluid_flows(), 0u);
}

TEST(Fluid, GhostReservationConservesCellCapacity) {
  sim::Simulator sim(1);
  SessionArena arena(2);
  FluidEngine eng(sim, arena);
  const std::uint32_t cell = eng.add_cell(20e6);
  arena.create(cell, 1.0f, 0.0);
  arena.create(cell, 1.0f, 0.0);
  double ghost_share = -1.0;
  eng.on_rate_share = [&](SessionId id, double share) {
    EXPECT_EQ(id, 0u);
    ghost_share = share;
  };
  eng.start_flow(0, 1e9);
  eng.start_flow(1, 1e9);
  eng.demote(0);
  // The ghost still holds its 10 Mb/s share; the fluid flow does NOT absorb it.
  EXPECT_DOUBLE_EQ(ghost_share, 10e6);
  EXPECT_DOUBLE_EQ(arena.rate_bps(1), 10e6);
  // Packet progress is recorded by the caller; promote re-derives residual.
  arena.delivered_bytes(0) += 5e6;
  eng.promote(0);
  EXPECT_EQ(arena.mode(0), FlowMode::Fluid);
  EXPECT_DOUBLE_EQ(arena.rate_bps(0), 10e6);
  EXPECT_DOUBLE_EQ(arena.residual_bytes(0), 1e9 - 5e6);
}

TEST(Fluid, CommitCallbackDemoteMidDrainSupersedes) {
  // Commit-time re-entrancy (DESIGN.md §13): an on_rate_share handler fired
  // while a drain is committing may synchronously mutate a cell whose
  // outcome from the SAME drain has not committed yet. The inline fill from
  // demote() must supersede that outcome — its stale ghost shares must never
  // be replayed after the fresh ones, its stale completion event must not be
  // scheduled — while its accrual (banked before the handler ran) still
  // reaches the ledger, and a ghost only the stale outcome reported is
  // replayed at the CURRENT share rather than dropped.
  sim::Simulator sim(1);
  SessionArena arena(4);
  FluidEngine eng(sim, arena);
  const std::uint32_t c0 = eng.add_cell(20e6);
  const std::uint32_t c1 = eng.add_cell(30e6);
  arena.create(c0, 1.0f, 0.0);  // 0: ghost in c0 (the re-entrancy trigger)
  arena.create(c0, 1.0f, 0.0);  // 1: fluid in c0
  arena.create(c1, 1.0f, 0.0);  // 2: fluid in c1, demoted by the handler
  arena.create(c1, 1.0f, 0.0);  // 3: ghost in c1 (the stale-share victim)

  std::vector<std::pair<SessionId, double>> published;
  bool reacted = false;
  eng.on_rate_share = [&](SessionId id, double share) {
    published.emplace_back(id, share);
    if (id == 0 && share == 20e6 && !reacted) {
      // Fired from the drain's commit of c0, with c1's outcome still
      // pending: grow c1 (deferred, dirty) and demote its fluid flow —
      // fill_cell_now(c1) commits fresh 40 Mb/s shares inline, making the
      // pending outcome (30 Mb/s shares, a completion event for flow 2)
      // stale mid-drain.
      reacted = true;
      eng.set_cell_capacity(c1, 80e6);
      eng.demote(2);
    }
  };

  eng.start_flow(0, 1e9);
  eng.start_flow(1, 1e9);
  eng.start_flow(2, 1e9);
  eng.start_flow(3, 1e9);
  eng.demote(0);  // publishes (0, 10e6)
  eng.demote(3);  // publishes (3, 15e6)
  // Same-timestamp capacity bumps dirty both cells into one drain; c0
  // commits first (ascending cell id) and its ghost-share bump triggers the
  // handler above.
  sim.schedule(Duration::seconds(2.0), [&] {
    eng.set_cell_capacity(c0, 40e6);
    eng.set_cell_capacity(c1, 60e6);
  });
  sim.run();

  // Flow 1 (the only remaining fluid flow) must still complete — a stale
  // commit for c1 must not have perturbed c0's completion machinery.
  EXPECT_EQ(arena.mode(1), FlowMode::Done);
  EXPECT_DOUBLE_EQ(arena.delivered_bytes(1), 1e9);
  // Final shares: flow 0 alone in c0 at 40 Mb/s; c1's ghosts split 80 Mb/s.
  EXPECT_DOUBLE_EQ(arena.rate_bps(0), 40e6);
  EXPECT_DOUBLE_EQ(arena.rate_bps(2), 40e6);
  EXPECT_DOUBLE_EQ(arena.rate_bps(3), 40e6);
  // The full publication log, in order. At t=2 the fresh inline fill
  // publishes (2, 40e6) and (3, 40e6); the superseded outcome then replays
  // ghost 3 at the CURRENT share — (3, 40e6) again, never its stale 30e6 —
  // and flow 1's completion later re-fills c0, bumping ghost 0 to 40 Mb/s.
  const std::vector<std::pair<SessionId, double>> expected = {
      {0, 10e6}, {3, 15e6},              // t=0 demotions
      {0, 20e6},                         // t=2 drain, c0 commit (trigger)
      {2, 40e6}, {3, 40e6}, {3, 40e6},   // inline fill, then stale-skip replay
      {0, 40e6},                         // flow 1 completes, c0 re-fills
  };
  EXPECT_EQ(published, expected);
  // Ledger still conserves: flow 1's 1e9 fluid bytes plus flow 2's 2 s at
  // 15 Mb/s before its demotion — the accrual banked by the superseded
  // outcome must not be dropped with it.
  EXPECT_NEAR(eng.segment_bytes(), 1e9 + 2.0 * 15e6 / 8.0, 1.0);
  EXPECT_EQ(eng.negative_residuals(), 0u);
}

TEST(Fluid, PromoteAfterPacketWindowDoesNotDoubleCount) {
  // Regression: promote() must accrue the cell BEFORE flipping the mode back
  // to Fluid. Sim time advances between demote and promote here — if the
  // accrual runs after the flip, the ghost's nonzero share over the packet
  // window is banked again as fluid segments on top of the lane's TCP bytes.
  sim::Simulator sim(1);
  SessionArena arena(2);
  FluidEngine eng(sim, arena);
  const std::uint32_t cell = eng.add_cell(20e6);
  arena.create(cell, 1.0f, 0.0);
  arena.create(cell, 1.0f, 0.0);
  eng.start_flow(0, 100e6);
  eng.start_flow(1, 1e9);
  double packet_bytes = 0.0;
  sim.schedule(Duration::seconds(1.0), [&] { eng.demote(0); });
  sim.schedule(Duration::seconds(3.0), [&] {
    // The lane delivered 2 s at the 10 Mb/s ghost share; the caller banks it.
    packet_bytes = 2.0 * 10e6 / 8.0;
    arena.delivered_bytes(0) += packet_bytes;
    eng.promote(0);
    // Segments so far: 1 s of flow 0 pre-demote + 3 s of flow 1, all at
    // 10 Mb/s — the packet window contributes zero fluid segments.
    EXPECT_NEAR(eng.segment_bytes(), 4.0 * 10e6 / 8.0, 1.0);
    EXPECT_NEAR(arena.delivered_bytes(0), 1.25e6 + packet_bytes, 1.0);
  });
  sim.run();
  EXPECT_EQ(arena.mode(0), FlowMode::Done);
  EXPECT_EQ(arena.mode(1), FlowMode::Done);
  EXPECT_DOUBLE_EQ(arena.delivered_bytes(0), 100e6);
  // Conservation across the boundary: every delivered byte is either a fluid
  // segment or a packet byte, never both.
  const double delivered = arena.delivered_bytes(0) + arena.delivered_bytes(1);
  EXPECT_NEAR(eng.segment_bytes() + packet_bytes, delivered, 1.0);
}

// Reference from-scratch water-fill, mirroring the engine's arithmetic
// exactly (same visit order, same fresh weight sum over the id-ordered
// member list, same fair-share expression) — the ground truth the
// incremental engine must match to the last ulp.
void reference_fill(const SessionArena& arena, std::vector<SessionId> members,
                    double capacity, std::vector<double>& expected) {
  auto key = [&](SessionId id) {
    const double cap = arena.cap_bps(id);
    return cap > 0.0 ? cap / arena.weight(id) : std::numeric_limits<double>::infinity();
  };
  double weight_left = 0.0;
  for (SessionId id : members) weight_left += arena.weight(id);  // ascending id
  std::sort(members.begin(), members.end(), [&](SessionId a, SessionId b) {
    const double ka = key(a);
    const double kb = key(b);
    if (ka != kb) return ka < kb;
    return a < b;
  });
  double remaining = capacity;
  for (SessionId id : members) {
    const double w = arena.weight(id);
    double rate = 0.0;
    if (remaining > 0.0 && weight_left > 0.0) {
      const double fair = remaining * w / weight_left;
      const double cap = arena.cap_bps(id);
      rate = (cap > 0.0 && cap < fair) ? cap : fair;
    }
    remaining -= rate;
    weight_left -= w;
    expected[id] = rate;
  }
}

TEST(Fluid, IncrementalEqualsFromScratchUnderChurn) {
  // DESIGN.md §13 property: the persistently maintained fill order plus
  // deferred dirty-cell drains must produce BIT-IDENTICAL rates to a
  // from-scratch water-fill of the same members, after any interleaving of
  // join / leave / cap-change / demote / promote / handover / capacity
  // churn. 40 seeds x 120 ops; every surviving member's arena rate is
  // compared exactly (ghosts included — their published share is a rate).
  constexpr int kSeeds = 40;
  constexpr int kOps = 120;
  constexpr std::uint32_t kCells = 3;
  constexpr SessionId kSessions = 48;
  for (int s = 0; s < kSeeds; ++s) {
    const std::uint64_t seed = cb::test::seed_or(1000) + static_cast<std::uint64_t>(s);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Simulator sim(seed);
    SessionArena arena(kSessions);
    FluidEngine eng(sim, arena);
    Rng rng(seed);
    for (std::uint32_t c = 0; c < kCells; ++c) eng.add_cell(rng.uniform(20e6, 120e6));
    for (SessionId id = 0; id < kSessions; ++id) {
      const double cap = rng.chance(0.5) ? rng.uniform(1e6, 30e6) : 0.0;
      arena.create(rng.next_below(kCells), rng.chance(0.25) ? 2.0f : 1.0f, cap);
    }

    std::vector<double> expected(kSessions, 0.0);
    for (int op = 0; op < kOps; ++op) {
      const SessionId id = static_cast<SessionId>(rng.next_below(kSessions));
      const FlowMode mode = arena.mode(id);
      switch (rng.next_below(7)) {
        case 0:  // join
          if (mode == FlowMode::Idle || mode == FlowMode::Done) {
            if (mode == FlowMode::Done) arena.mode(id) = FlowMode::Idle;
            eng.start_flow(id, rng.uniform(1e6, 40e6));
          }
          break;
        case 1:  // cap change (including to/from uncapped)
          if (mode == FlowMode::Fluid || mode == FlowMode::Packet) {
            eng.set_flow_cap(id, rng.chance(0.3) ? 0.0 : rng.uniform(1e6, 30e6));
          }
          break;
        case 2:
          if (mode == FlowMode::Fluid) eng.demote(id);
          break;
        case 3:
          if (mode == FlowMode::Packet) eng.promote(id);
          break;
        case 4:
          if (mode == FlowMode::Fluid || mode == FlowMode::Packet) {
            eng.handover(id, static_cast<std::uint32_t>(rng.next_below(kCells)));
          }
          break;
        case 5:
          eng.set_cell_capacity(static_cast<std::uint32_t>(rng.next_below(kCells)),
                                rng.uniform(10e6, 120e6));
          break;
        case 6:  // advance time — completions fire, leaves happen
          sim.run_until(sim.now() + Duration::millis(rng.uniform(1.0, 500.0)));
          break;
      }
      eng.flush();

      // From-scratch reference per cell, membership derived from the arena.
      for (std::uint32_t c = 0; c < kCells; ++c) {
        std::vector<SessionId> members;
        for (SessionId m = 0; m < kSessions; ++m) {
          const FlowMode mm = arena.mode(m);
          if ((mm == FlowMode::Fluid || mm == FlowMode::Packet) && arena.cell(m) == c) {
            members.push_back(m);
          }
        }
        reference_fill(arena, members, eng.cell_capacity(c), expected);
        for (SessionId m : members) {
          ASSERT_EQ(arena.rate_bps(m), expected[m])
              << "op=" << op << " cell=" << c << " session=" << m;
        }
      }
    }
    EXPECT_EQ(eng.negative_residuals(), 0u);
  }
}

// --- scenario-level properties ---------------------------------------------

scenario::ScaleTrafficConfig small_config(std::uint64_t seed) {
  scenario::ScaleTrafficConfig cfg;
  cfg.n_ues = 24;
  cfg.n_cells = 2;
  cfg.seed = seed;
  cfg.mean_flow_mbytes = 2.0;
  cfg.start_window_s = 2.0;
  cfg.horizon_s = 600.0;
  return cfg;
}

TEST(ScaleTraffic, FluidDeterministicAcrossRuns) {
  const std::uint64_t seed = cb::test::seed_or(7);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto cfg = small_config(seed);
  cfg.mode = scenario::TrafficMode::Fluid;
  cfg.mobility_interval_s = 20.0;
  cfg.shaper_resample_s = 30.0;
  const auto a = scenario::run_scale_traffic(cfg);
  const auto b = scenario::run_scale_traffic(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.completed, cfg.n_ues);
  EXPECT_EQ(a.negative_residuals, 0u);
  EXPECT_NEAR(a.delivered_bytes, a.segment_bytes + a.packet_ledger_bytes, 1.0);
}

TEST(ScaleTraffic, PacketDeterministicAcrossRuns) {
  const std::uint64_t seed = cb::test::seed_or(11);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto cfg = small_config(seed);
  cfg.n_ues = 8;
  cfg.mode = scenario::TrafficMode::Packet;
  const auto a = scenario::run_scale_traffic(cfg);
  const auto b = scenario::run_scale_traffic(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.completed, cfg.n_ues);
}

TEST(ScaleTraffic, PacketVsFluidAgreementSmallN) {
  // The Table-1-style agreement the bench and CI gate on: identical
  // seed-derived workload, both modes complete everything, delivered bytes
  // and billing byte-exact, completion times within the documented tolerance.
  // The timing gate runs in the shaper-dominated regime (cell capacity not
  // contended) — that is where the fluid steady-state assumption holds; under
  // heavy contention TCP's slow convergence diverges from instant max-min
  // and the hybrid engine demotes to packets instead (see EXPERIMENTS.md).
  const std::uint64_t seed = cb::test::seed_or(3);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto cfg = small_config(seed);
  cfg.scheduler_capacity_bps = 400e6;  // shaper caps are the bottleneck
  cfg.mode = scenario::TrafficMode::Fluid;
  const auto fluid = scenario::run_scale_traffic(cfg);
  cfg.mode = scenario::TrafficMode::Packet;
  const auto packet = scenario::run_scale_traffic(cfg);

  ASSERT_EQ(fluid.completed, cfg.n_ues);
  ASSERT_EQ(packet.completed, cfg.n_ues);
  // Same flows, both complete: byte totals and billing must match exactly.
  EXPECT_DOUBLE_EQ(fluid.delivered_bytes, packet.delivered_bytes);
  EXPECT_DOUBLE_EQ(fluid.billing_usd, packet.billing_usd);
  // Completion-time agreement: fluid skips handshake + slow start (~5 RTTs
  // on these flows), so the tolerance is behavioral, not numerical.
  EXPECT_NEAR(fluid.completion_mean_s, packet.completion_mean_s,
              0.15 * packet.completion_mean_s);
  EXPECT_NEAR(fluid.completion_p99_s, packet.completion_p99_s,
              0.25 * packet.completion_p99_s);
}

TEST(ScaleTraffic, ContendedCellBytesStillExact) {
  // Under cell contention the timing models legitimately diverge, but byte
  // totals, billing, and the conservation ledger must stay exact.
  const std::uint64_t seed = cb::test::seed_or(3);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto cfg = small_config(seed);
  cfg.mode = scenario::TrafficMode::Fluid;
  const auto fluid = scenario::run_scale_traffic(cfg);
  cfg.mode = scenario::TrafficMode::Packet;
  const auto packet = scenario::run_scale_traffic(cfg);
  ASSERT_EQ(fluid.completed, cfg.n_ues);
  ASSERT_EQ(packet.completed, cfg.n_ues);
  EXPECT_DOUBLE_EQ(fluid.delivered_bytes, packet.delivered_bytes);
  EXPECT_DOUBLE_EQ(fluid.billing_usd, packet.billing_usd);
  EXPECT_NEAR(fluid.delivered_bytes, fluid.segment_bytes, 1.0);
}

TEST(ScaleTraffic, HybridFaultDemotesAndRepromotesByteExact) {
  // A chaos fault mid-transfer demotes the faulted cell's flows to packet
  // lanes; after the window they re-promote and every flow still completes
  // with delivered == demand — byte-exact against a pure-fluid run of the
  // same seed (the fidelity boundary must not create or destroy bytes).
  const std::uint64_t seed = cb::test::seed_or(5);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto cfg = small_config(seed);
  cfg.mode = scenario::TrafficMode::Hybrid;
  cfg.fault_start_s = 3.0;
  cfg.fault_duration_s = 5.0;
  const auto hybrid = scenario::run_scale_traffic(cfg);
  EXPECT_EQ(hybrid.completed, cfg.n_ues);
  EXPECT_GT(hybrid.demotions, 0u);
  EXPECT_GT(hybrid.promotions + /*finished inside window*/ 0u, 0u);
  EXPECT_EQ(hybrid.negative_residuals, 0u);
  // Conservation across the boundary: every delivered byte is either a
  // fluid segment or a packet-lane byte, never both.
  EXPECT_NEAR(hybrid.delivered_bytes, hybrid.segment_bytes + hybrid.packet_ledger_bytes, 1.0);

  auto pure = small_config(seed);
  pure.mode = scenario::TrafficMode::Fluid;
  const auto fluid = scenario::run_scale_traffic(pure);
  // Same workload, same total bytes — the fault changes *when*, not *what*.
  EXPECT_DOUBLE_EQ(hybrid.delivered_bytes, fluid.delivered_bytes);
  EXPECT_DOUBLE_EQ(hybrid.billing_usd, fluid.billing_usd);
  // And the hybrid run is deterministic too.
  const auto again = scenario::run_scale_traffic(cfg);
  EXPECT_EQ(hybrid.fingerprint(), again.fingerprint());
}

TEST(ScaleTraffic, FullOutageThrottlesLanes) {
  // fault_capacity_factor == 0 computes a zero ghost share, which the
  // change-only on_rate_share callback never publishes (demote() zeroes the
  // arena rate first). The lane link must still be pinned to the floored
  // rate — not left at 0, which a Link treats as infinite — so demoted flows
  // cannot finish inside the outage window.
  const std::uint64_t seed = cb::test::seed_or(5);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto cfg = small_config(seed);
  cfg.mode = scenario::TrafficMode::Hybrid;
  cfg.fault_start_s = 1.0;
  cfg.fault_duration_s = 5.0;
  cfg.fault_capacity_factor = 0.0;
  scenario::ScaleTrafficSim sim(cfg);
  const auto r = sim.run_to_completion();
  EXPECT_EQ(r.completed, cfg.n_ues);
  EXPECT_GT(r.demotions, 0u);
  const auto& arena = sim.arena();
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(cfg.n_ues); ++i) {
    const double finish_s = static_cast<double>(arena.finish_ns(i)) / 1e9;
    if (arena.cell(i) != 0 || finish_s <= cfg.fault_start_s) continue;
    EXPECT_GE(finish_s, cfg.fault_start_s + cfg.fault_duration_s) << "ue=" << i;
  }
}

TEST(ScaleTraffic, FluidThreadsBitIdentical) {
  // DESIGN.md §13 determinism contract: the parallel drain at 4 worker
  // threads must be BIT-identical to the serial engine on the same seed —
  // same fingerprint (delivered/segment/billing totals, event counts), same
  // per-session delivered bytes, and byte-identical metrics snapshots. Two
  // inputs. The small hybrid run exercises every commit-time path:
  // multi-cell churn via mobility, epoch-aligned cap resamples (many dirty
  // cells per drain), and a hybrid fault window (ghost-share callbacks
  // replayed at commit). Its drains are too small for the pool, so they
  // fill inline at any thread count. The 10k-UE fluid run's epoch drains
  // cross the pool-size rule, and its parallel_drains count proves the
  // 4-thread arm really ran the pool.
  const std::uint64_t seed = cb::test::seed_or(13);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto hybrid = small_config(seed);
  hybrid.mode = scenario::TrafficMode::Hybrid;
  hybrid.n_cells = 4;
  hybrid.mobility_interval_s = 15.0;
  hybrid.shaper_resample_s = 20.0;
  hybrid.fault_start_s = 3.0;
  hybrid.fault_duration_s = 5.0;

  scenario::ScaleTrafficConfig pooled;
  pooled.mode = scenario::TrafficMode::Fluid;
  pooled.n_ues = 10000;
  pooled.n_cells = 16;
  pooled.seed = seed;
  pooled.mean_flow_mbytes = 1.0;
  pooled.start_window_s = 2.0;
  pooled.shaper_resample_s = 5.0;
  pooled.horizon_s = 3600.0;

  struct Run {
    scenario::ScaleTrafficResult result;
    std::string metrics_json;
    std::vector<double> per_session;
    std::uint64_t parallel_drains = 0;
  };
  auto run_with = [](scenario::ScaleTrafficConfig cfg, int threads) {
    cfg.fluid_threads = threads;
    obs::Registry reg;
    obs::ScopedRegistry scope(&reg);
    scenario::ScaleTrafficSim sim(cfg);
    Run run;
    run.result = sim.run_to_completion();
    run.metrics_json = reg.to_json();
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(cfg.n_ues); ++i) {
      run.per_session.push_back(sim.arena().delivered_bytes(i));
      run.per_session.push_back(sim.arena().billed_usd(i));
    }
    run.parallel_drains = sim.fluid()->parallel_drains();
    return run;
  };

  for (const scenario::ScaleTrafficConfig& cfg : {hybrid, pooled}) {
    SCOPED_TRACE(std::string("mode=") + scenario::traffic_mode_name(cfg.mode));
    const Run serial = run_with(cfg, 1);
    const Run parallel = run_with(cfg, 4);
    EXPECT_EQ(serial.result.fingerprint(), parallel.result.fingerprint());
    EXPECT_EQ(serial.result.events, parallel.result.events);
    EXPECT_EQ(serial.result.rate_events, parallel.result.rate_events);
    // Exact: every session's delivered + billed.
    EXPECT_EQ(serial.per_session, parallel.per_session);
    EXPECT_EQ(serial.metrics_json, parallel.metrics_json);  // byte-identical snapshot
    EXPECT_EQ(serial.result.completed, cfg.n_ues);
    EXPECT_EQ(serial.parallel_drains, 0u);
    if (cfg.mode == scenario::TrafficMode::Fluid) {
      EXPECT_GT(parallel.parallel_drains, 0u);
    }
  }
}

TEST(ScaleTraffic, FluidGolden) {
  // Pins a small fluid run with handovers and shaper-resample epochs, at 1
  // and 4 drain threads. The values were computed before small drains were
  // filled inline, the completion scan was folded into the fill, and the
  // per-UE resample timers became one event per epoch; they must never be
  // edited to follow a change.
  //
  // One explained re-freeze since: resampling now costs one sim event per
  // epoch instead of one per live UE, so only `events` moved (3231 -> 2433).
  scenario::ScaleTrafficConfig cfg;
  cfg.mode = scenario::TrafficMode::Fluid;
  cfg.n_ues = 400;
  cfg.n_cells = 4;
  cfg.seed = 2026;
  cfg.mean_flow_mbytes = 2.0;
  cfg.start_window_s = 4.0;
  cfg.shaper_resample_s = 5.0;
  cfg.mobility_interval_s = 10.0;
  cfg.horizon_s = 600.0;
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.fluid_threads = threads;
    const auto r = scenario::run_scale_traffic(cfg);
    EXPECT_EQ(r.completed, cfg.n_ues);
    EXPECT_EQ(bits(r.completion_mean_s), 0x40157a22247d4de1ULL);
    EXPECT_EQ(bits(r.completion_p99_s), 0x402b4a5cf86ca368ULL);
    EXPECT_EQ(bits(r.delivered_bytes), 0x41c9dda069800000ULL);
    EXPECT_EQ(bits(r.segment_bytes), 0x41c9dda069800002ULL);
    EXPECT_EQ(bits(r.billing_usd), 0x3ffbc5eadcf1f7c3ULL);
    EXPECT_EQ(r.rate_events, 1235u);
    EXPECT_EQ(r.events, 2433u);
  }
}

TEST(ScaleTraffic, PacketModeRefusesAbsurdN) {
  scenario::ScaleTrafficConfig cfg;
  cfg.mode = scenario::TrafficMode::Packet;
  cfg.n_ues = 100000;
  EXPECT_THROW(scenario::ScaleTrafficSim s(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace cb::traffic
