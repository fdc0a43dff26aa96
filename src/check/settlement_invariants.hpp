// Settlement-log invariants for every CellBricks world (DESIGN.md §12); on
// a one-shard broker the replica checks hold trivially.
//
//   broker.settlement_prefix_agreement — every shard's applied prefix of
//       every stream chain-hashes identically to the observer fold's copy
//       (replicas may lag, but can never diverge in content).
//   broker.settlement_verdict_unique   — no (session, period) pair ever
//       received two verdicts with conflicting content, on any shard's fold
//       or the observer's (failover double-authoring must be idempotent).
//   broker.settlement_no_verdict_loss  — once the cluster has been
//       undisturbed (no shard crashed/recovering) for a settling window,
//       no report sits unpaired past the pair timeout without a verdict:
//       failover may delay verdicts, never lose them.
#pragma once

#include "check/invariant.hpp"
#include "scenario/world.hpp"

namespace cb::check {

void install_settlement_invariants(InvariantEngine& engine, scenario::World& world);

}  // namespace cb::check
