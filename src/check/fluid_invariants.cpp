#include "check/fluid_invariants.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "traffic/arena.hpp"
#include "traffic/fluid.hpp"

namespace cb::check {

namespace {

/// Double-accumulation slack: one ULP per banked segment is invisible at
/// these magnitudes, so a flat byte epsilon keeps the check honest without
/// false positives on long runs.
constexpr double kLedgerEpsBytes = 16.0;

}  // namespace

void install_fluid_invariants(InvariantEngine& engine, scenario::ScaleTrafficSim& sim) {
  using When = InvariantEngine::When;
  scenario::ScaleTrafficSim* s = &sim;

  engine.add("fluid.conservation", When::Periodic, [s](InvariantEngine::Reporter& r) {
    const traffic::SessionArena& arena = s->arena();
    const int n = s->config().n_ues;
    double delivered = 0.0;
    for (traffic::SessionId id = 0; id < static_cast<traffic::SessionId>(n); ++id) {
      const double d = arena.delivered_bytes(id);
      const double demand = arena.demand_bytes(id);
      if (d > demand + 0.5) {
        r.fail("session " + std::to_string(id) + " delivered " + std::to_string(d) +
               " > demand " + std::to_string(demand));
      }
      delivered += d;
    }
    const double ledger =
        (s->fluid() ? s->fluid()->segment_bytes() : 0.0) + s->packet_ledger_bytes();
    if (std::abs(delivered - ledger) > kLedgerEpsBytes) {
      r.fail("delivered " + std::to_string(delivered) + " != segment+packet ledger " +
             std::to_string(ledger));
    }
    if (s->fluid() && s->fluid()->negative_residuals() != 0) {
      r.fail(std::to_string(s->fluid()->negative_residuals()) +
             " negative residual observations");
    }
  });

  engine.add("fluid.allocation", When::Periodic, [s](InvariantEngine::Reporter& r) {
    const traffic::FluidEngine* eng = s->fluid();
    if (!eng) return;  // pure packet mode has no allocator to check
    const traffic::SessionArena& arena = s->arena();
    const int n = s->config().n_ues;
    std::vector<double> cell_sum(eng->n_cells(), 0.0);
    std::size_t fluid_count = 0;
    for (traffic::SessionId id = 0; id < static_cast<traffic::SessionId>(n); ++id) {
      const double rate = eng->rate_bps(id);
      if (rate < 0.0) {
        r.fail("session " + std::to_string(id) + " has negative rate " + std::to_string(rate));
      }
      const traffic::FlowMode mode = arena.mode(id);
      if (mode == traffic::FlowMode::Fluid) ++fluid_count;
      // Fluid flows and packet ghosts both hold shares of their cell.
      if (mode == traffic::FlowMode::Fluid || mode == traffic::FlowMode::Packet) {
        cell_sum[arena.cell(id)] += rate;
      }
    }
    for (std::size_t c = 0; c < cell_sum.size(); ++c) {
      const double cap = eng->cell_capacity(c);
      if (cell_sum[c] > cap * (1.0 + 1e-9) + 1.0) {
        r.fail("cell " + std::to_string(c) + " oversubscribed: " + std::to_string(cell_sum[c]) +
               " bps allocated > capacity " + std::to_string(cap));
      }
    }
    if (fluid_count != eng->active_fluid_flows()) {
      r.fail("engine counts " + std::to_string(eng->active_fluid_flows()) +
             " active fluid flows, arena shows " + std::to_string(fluid_count));
    }
  });

  engine.add("fluid.billing", When::EndOnly, [s](InvariantEngine::Reporter& r) {
    const traffic::SessionArena& arena = s->arena();
    const double price = scenario::kPricePerGbUsd / 1e9;
    const int n = s->config().n_ues;
    for (traffic::SessionId id = 0; id < static_cast<traffic::SessionId>(n); ++id) {
      if (arena.billed_bytes(id) > arena.delivered_bytes(id) + 0.5) {
        r.fail("session " + std::to_string(id) + " billed for " +
               std::to_string(arena.billed_bytes(id)) + " bytes but delivered " +
               std::to_string(arena.delivered_bytes(id)));
      }
      const double expect_usd = arena.billed_bytes(id) * price;
      if (std::abs(arena.billed_usd(id) - expect_usd) > 1e-6) {
        r.fail("session " + std::to_string(id) + " billed $" +
               std::to_string(arena.billed_usd(id)) + ", ledger implies $" +
               std::to_string(expect_usd));
      }
    }
  });
}

}  // namespace cb::check
