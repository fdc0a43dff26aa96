// Fig.7 experiment harness: measure end-to-end attachment latency (radio
// legs excluded, as in the paper) under each attach protocol, with the
// SubscriberDB/broker placed "local", in "us-west-1", or in "us-east-1",
// and break the latency down by module.
#pragma once

#include <string>
#include <vector>

#include "scenario/world.hpp"

namespace cb::scenario {

struct AttachPlacement {
  std::string name;
  Duration cloud_rtt;
};

inline std::vector<AttachPlacement> attach_placements() {
  return {{"local", Duration::millis(0.5)},
          {"us-west-1", Duration::millis(7.2)},
          {"us-east-1", Duration::millis(73.5)}};
}

struct AttachBreakdown {
  AttachProtocol protocol = AttachProtocol::Default;
  double total_ms = 0.0;      // mean end-to-end attach latency (full attaches)
  double agw_core_ms = 0.0;   // AGW + SubscriberDB/broker processing
  double enb_ms = 0.0;        // eNB relay processing
  double ue_ms = 0.0;         // UE processing
  double other_ms = 0.0;      // remainder: dominated by AGW<->cloud RTT
  int attaches = 0;
  /// SapResume only: ticket-resumed re-attaches (mean latency + count) and
  /// resume attempts that fell back to a full SAP attach.
  double resume_ms = 0.0;
  int resumes = 0;
  int resume_fallbacks = 0;
};

/// Run `n` sequential attach/detach cycles under `protocol` and return the
/// mean breakdown. Under SapResume the first cycle is a full SAP
/// attach that mints the ticket; because a ticket is single-use per bTelco,
/// later cycles on the one-tower world alternate resume / fallback-and-remint
/// — `total_ms` averages the clean full attaches, `resume_ms` the resumes,
/// and fallback cycles (failed resume + full attach in one latency) are
/// excluded from both means.
AttachBreakdown run_attach_experiment(AttachProtocol protocol, Duration cloud_rtt, int n,
                                      std::uint64_t seed = 1);

/// Concurrent attach storm: `n_ues` all request attachment at once; returns
/// mean and p99 latency (scaling claim of §6 / queueing at the broker).
struct AttachStorm {
  int n_ues = 0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  int completed = 0;
  /// Simulated seconds actually executed (storms stop at the last event,
  /// well before the 120 s guard) — feeds the bench's sim-per-wall ratio.
  double sim_s = 0.0;
};
/// `protocol` is EpsAka (queueing at the HSS) or Sap (at the broker); any
/// other protocol throws std::invalid_argument.
AttachStorm run_attach_storm(AttachProtocol protocol, int n_ues, Duration cloud_rtt,
                             double radio_loss, std::uint64_t seed = 1);

}  // namespace cb::scenario
