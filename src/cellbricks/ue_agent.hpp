// UE agent: the host side of CellBricks.
//
// Implements (i) the UE's SAP procedures (Fig.2), (ii) host-driven mobility
// (§4.2): on every serving-cell change it detaches — invalidating the IP,
// exactly like the baseband setting the interface to 0.0.0.0 — runs SAP
// against the new bTelco, configures the new IP, and notifies the MPTCP
// path manager; and (iii) the baseband traffic meter whose signed reports
// make billing verifiable (§4.3).
//
// Failure handling: attaches run against a deadline and retry with
// decorrelated-jitter backoff, blacklisting unresponsive cells and falling
// back to the next-best candidate; a bearer watchdog detects a dead serving
// link (bTelco crash, radio drop) and re-enters recovery; traffic reports
// ride the broker's ACKed channel (BrokerChannel: ACK + retransmission) so
// billing survives loss.
#pragma once

#include <unordered_map>
#include <vector>

#include "cellbricks/broker_channel.hpp"
#include "cellbricks/btelco.hpp"
#include "common/stats.hpp"
#include "cellbricks/sap.hpp"
#include "ran/ran_map.hpp"
#include "transport/mptcp.hpp"

namespace cb::cellbricks {

/// UDP port the UE agent sources reports from and receives broker ACKs on.
inline constexpr std::uint16_t kUeReportPort = 4599;

class UeAgent {
 public:
  struct Config {
    /// Baseband reporting cycle.
    Duration report_interval = Duration::s(10);
    /// Dishonesty knob: scale reported DL usage (1.0 = honest; <1 models a
    /// user trying to under-pay). Requires a tampered baseband.
    double underreport_factor = 1.0;
    /// Attach deadline: if SAP has not completed by then the attempt is
    /// abandoned (covers a crashed AGW that never answers).
    Duration attach_timeout = Duration::s(3);
  };

  UeAgent(net::Network& network, net::Node& ue_node, SapUe sap, const ran::RanMap& ran_map,
          std::function<Btelco*(ran::CellId)> telco_of_cell, net::EndPoint broker_report_ep,
          Config config);

  /// Attach to `cell` via SAP. `done` gets the assigned IP or the error.
  /// One-shot: a failure (denial, timeout) is reported, not retried. While
  /// the UE holds a broker-minted resumption ticket (ticket.hpp; only
  /// SapResume worlds mint them), the same procedure presents the ticket
  /// instead of authReqU (no broker round trip); a rejected resume drops the
  /// ticket and re-enters attach, which then runs full SAP.
  void attach(ran::CellId cell, std::function<void(Result<net::Ipv4Addr>)> done);

  /// Resilient attach: try `preferred` first, then fall back to the best
  /// non-blacklisted candidate (see set_candidate_source), retrying with
  /// decorrelated-jitter backoff until some attach succeeds or
  /// cancel_recovery(). A retry that finds every usable cell blacklisted
  /// tries the preferred cell, else the best candidate, anyway.
  void attach_with_recovery(ran::CellId preferred);
  void cancel_recovery();
  bool in_recovery() const { return in_recovery_; }

  /// Candidate cells for recovery fallback, best first (the mobility path
  /// wires this to UeRadio::candidates).
  void set_candidate_source(std::function<std::vector<ran::CellId>()> source) {
    candidate_source_ = std::move(source);
    recovery_enabled_ = true;
  }

  /// Detach from the current bTelco (radio drop + IP invalidation).
  void detach();

  /// Wire the MPTCP path manager notifications.
  void set_mptcp(transport::MptcpStack* mptcp) { mptcp_ = mptcp; }

  /// Sharded-broker deployments: route reports by session id through the
  /// shard map instead of the fixed broker_report_ep, follow Redirect
  /// replies, and fail over on retransmission timeouts. Unset = single
  /// broker (default).
  void set_router(ShardRouter* router) { reports_.set_router(router); }

  bool attached() const { return current_ip_.valid(); }
  net::Ipv4Addr current_ip() const { return current_ip_; }
  ran::CellId serving_cell() const { return serving_cell_; }
  const std::string& id() const { return sap_.id_u(); }

  /// Most recent attach latency (radio legs excluded) — the paper's `d`.
  Duration last_attach_latency() const { return last_attach_latency_; }
  const Summary& attach_latencies() const { return attach_latencies_; }
  std::uint64_t attach_failures() const { return attach_failures_; }
  /// Resumption-ticket statistics (SapResume mode): attaches completed via
  /// the local resume path, resume attempts that fell back to full SAP, and
  /// the latencies of successful resumes (strictly cheaper than full SAP —
  /// the frozen fig8 delta).
  std::uint64_t resumes_succeeded() const { return resumes_succeeded_; }
  std::uint64_t resume_fallbacks() const { return resume_fallbacks_; }
  const Summary& resume_latencies() const { return resume_latencies_; }
  bool has_ticket() const { return !ticket_.empty(); }
  /// Serving-bearer losses detected by the watchdog (crash/radio fault).
  std::uint64_t bearer_losses() const { return bearer_losses_; }
  /// Outage-to-recovered latency per successful recovery (ms).
  const Summary& reattach_latencies() const { return reattach_latencies_; }
  /// Reports dropped after exhausting every retransmission attempt.
  std::uint64_t reports_abandoned() const { return reports_abandoned_; }
  std::size_t outstanding_reports() const { return reports_.size(); }
  Duration ue_busy_time() const { return ue_queue_.busy_time(); }
  Duration enb_busy_time() const { return enb_queue_.busy_time(); }

  /// Fired after each completed attach (Table-1 instrumentation).
  std::function<void(ran::CellId, Duration latency)> on_attached;

 private:
  /// Tail of a full or resumed attach: adopt the IP/session, rebaseline
  /// the meter, restart report/watchdog timers, flush stranded reports.
  void complete_attach(ran::CellId cell, const ran::TowerSite& site, Btelco* telco,
                       net::Ipv4Addr ip, std::uint64_t session_id, bool resumed,
                       const std::shared_ptr<std::function<void(Result<net::Ipv4Addr>)>>& done);
  void send_report(bool final_report);
  void detach_locally();  // radio + IP teardown, no bTelco signalling
  void drop_superseded_bearer(ran::CellId next);
  /// `retry`: called after a backoff, so a blacklisted cell may be picked
  /// when no other usable cell exists.
  void try_attach(ran::CellId preferred, bool retry);
  ran::CellId pick_candidate(ran::CellId preferred, bool retry);
  void schedule_retry(ran::CellId preferred);
  void start_watchdog();
  void watchdog();
  bool cell_blacklisted(ran::CellId cell) const;

  net::Network& network_;
  net::Node& ue_node_;
  SapUe sap_;
  const ran::RanMap& ran_map_;
  std::function<Btelco*(ran::CellId)> telco_of_cell_;
  Config config_;
  sim::ServiceQueue ue_queue_;
  sim::ServiceQueue enb_queue_;
  Rng rng_;
  /// Dedicated stream for retry jitter so backoff draws never perturb the
  /// crypto/protocol stream (replays stay bit-identical).
  Rng jitter_rng_;

  transport::MptcpStack* mptcp_ = nullptr;

  // Session state.
  net::Ipv4Addr current_ip_;
  ran::CellId serving_cell_ = 0;
  std::uint64_t session_id_ = 0;
  Btelco* serving_telco_ = nullptr;
  std::uint32_t next_period_ = 0;
  std::uint64_t dl_base_ = 0;
  std::uint64_t ul_base_ = 0;
  std::uint64_t dl_lost_base_ = 0;
  std::uint64_t dl_sent_base_ = 0;
  TimePoint session_started_;
  sim::EventHandle report_timer_;
  sim::EventHandle attach_deadline_;
  sim::EventHandle watchdog_timer_;
  std::uint64_t attach_generation_ = 0;
  // Cell of the attach attempt currently in flight (0 = none). A newer
  // mobility event can supersede that attempt via the generation bump, in
  // which case none of its continuations run — the next attach uses this to
  // lower the superseded target's optimistically-raised bearer
  // (break-before-make must hold across retargets too).
  ran::CellId attach_pending_ = 0;

  // Reliable report channel: paused while detached, flushed (oldest
  // first) by the next attach.
  std::uint64_t next_report_seq_ = 1;
  BrokerChannel reports_;

  // Recovery state.
  bool recovery_enabled_ = false;
  bool in_recovery_ = false;
  std::function<std::vector<ran::CellId>()> candidate_source_;
  std::unordered_map<ran::CellId, TimePoint> blacklist_;  // cell -> until
  Duration recovery_backoff_ = Duration::zero();
  sim::EventHandle recovery_timer_;
  TimePoint outage_started_;

  TimePoint attach_started_;
  Duration last_attach_latency_ = Duration::zero();
  Summary attach_latencies_;
  Summary reattach_latencies_;
  std::uint64_t attach_failures_ = 0;
  std::uint64_t bearer_losses_ = 0;
  std::uint64_t reports_abandoned_ = 0;

  // Resumption-ticket state (empty unless the broker mints tickets).
  Bytes ticket_;       // most recent broker-minted ticket (opaque wire form)
  Bytes ss_resume_;    // HKDF of that session's ss; proves ticket possession
  Summary resume_latencies_;
  std::uint64_t resumes_succeeded_ = 0;
  std::uint64_t resume_fallbacks_ = 0;
};

}  // namespace cb::cellbricks
