// bTelco: a CellBricks access provider of any scale — here the extreme
// design point the paper evaluates (§6.2): ONE tower per provider, with the
// core appliances (AGW) co-located on the tower node.
//
// Responsibilities (§3/§4): forward SAP messages between UE and broker
// (adding qosCap and its signature), install sessions on authorization
// (assign an IP from its own pool, anchor the user plane, enforce qosInfo),
// meter per-session usage at its gateway, and periodically send signed,
// encrypted traffic reports to the broker. Everything it sends the broker
// (SAP auth requests, reports, resume notifies) rides one BrokerChannel per
// request type, which frames, resends, routes and decodes the replies. No
// inter-bTelco coordination, no handover support, no subscriber database:
// that is the simplification the architecture buys.
#pragma once

#include <unordered_set>
#include <vector>

#include "cellbricks/billing.hpp"
#include "cellbricks/broker_channel.hpp"
#include "cellbricks/broker_cluster.hpp"
#include "cellbricks/sap.hpp"
#include "cellbricks/ticket.hpp"
#include "net/network.hpp"
#include "sim/service_queue.hpp"

namespace cb::cellbricks {

class Btelco {
 public:
  struct Config {
    /// Reporting cycle for traffic reports ("order of many seconds").
    Duration report_interval = Duration::s(10);
    /// Subscriber IP pool subnet (first octet).
    std::uint8_t ip_subnet = 100;
    /// Dishonesty knob: multiply reported DL usage (1.0 = honest). The
    /// "dishonest but not malicious" threat model of §4.3.
    double overreport_factor = 1.0;
    /// How long after a SAP response with no matching UE detach before the
    /// session is garbage collected (inactivity timeout).
    Duration session_timeout = Duration::s(120);
    /// Inactivity-GC sweep cadence.
    Duration gc_interval = Duration::s(15);
  };

  Btelco(net::Network& network, net::Node& node, SapTelco sap,
         crypto::Certificate broker_cert, net::EndPoint broker_endpoint);
  Btelco(net::Network& network, net::Node& node, SapTelco sap,
         crypto::Certificate broker_cert, net::EndPoint broker_endpoint, Config config);

  /// SAP entry point, invoked by the UE agent over the radio control
  /// channel. On success `reply` receives (authRespU bytes, assigned IP).
  using AttachReply = std::function<void(Result<std::pair<Bytes, net::Ipv4Addr>>)>;
  void handle_attach(Bytes auth_req_u, net::Node* ue_node, net::Link* radio_link,
                     AttachReply reply);

  /// UE-initiated detach: finalize accounting, send the final report, and
  /// release the session.
  void handle_detach(std::uint64_t session_id);

  /// Join the broker's ticket federation: accept resumption tickets sealed
  /// under `ticket_key` (the STEK) without a broker round trip.
  void enable_resume(Bytes ticket_key);
  bool resume_enabled() const { return !ticket_key_.empty(); }

  /// Resume entry point: the UE presents a broker-minted ticket instead of
  /// authReqU. Verification is entirely local (broker signature, expiry,
  /// STEK seal, proof-of-possession, single-use, revocation); on success
  /// `reply` receives (resume-confirm bytes, assigned IP) and the broker is
  /// notified asynchronously off the attach critical path.
  void handle_resume(Bytes resume_req, net::Node* ue_node, net::Link* radio_link,
                     AttachReply reply);

  /// Audit trail of accepted resumes — the check layer's evidence that a
  /// ticket was never honoured past expiry, twice, or while revoked.
  struct TicketAudit {
    Bytes ticket_id;
    std::uint64_t session_id = 0;
    std::string pseudonym;
    std::uint64_t expiry_ns = 0;
    std::uint64_t accepted_at_ns = 0;
    bool was_revoked = false;  // pseudonym was on the revocation list at accept
  };
  const std::vector<TicketAudit>& ticket_audit() const { return ticket_audit_; }
  std::uint64_t resumes_served() const { return resumes_; }
  std::uint64_t resumes_rejected() const { return resumes_rejected_; }
  const std::unordered_set<std::string>& revoked_pseudonyms() const { return revoked_; }
  /// Pseudonyms with a live session (check layer: revoked implies not live).
  std::vector<std::string> session_pseudonyms() const;

  /// Sharded-broker deployments: route auth requests, reports and resume
  /// notifies through the shard map (auth sticky, the rest by session id),
  /// follow Redirect replies, and fail over on retransmission timeouts.
  /// Unset = single broker endpoint (default).
  void set_router(ShardRouter* router) {
    auth_.set_router(router);
    reports_.set_router(router);
    notifies_.set_router(router);
  }

  /// Fault injection: `crash` kills the provider — the node goes dark, every
  /// session (bearers, IPs, report timers, in-flight broker transactions,
  /// queued AGW jobs) is lost, exactly as if the co-located AGW appliance
  /// rebooted. `restart` brings the node back with empty state; UEs must
  /// re-attach via SAP.
  void crash();
  void restart();
  bool crashed() const { return crashed_; }

  const std::string& id() const { return sap_.id_t(); }
  net::Node& node() { return node_; }
  std::size_t active_sessions() const { return sessions_.size(); }
  std::uint64_t attaches_served() const { return attaches_; }
  /// Sessions reclaimed by the inactivity GC (UE vanished without detach).
  std::uint64_t sessions_gced() const { return sessions_gced_; }
  /// Reports dropped after exhausting every retransmission attempt.
  std::uint64_t reports_abandoned() const { return reports_abandoned_; }
  std::size_t outstanding_reports() const { return reports_.size(); }
  Duration busy_time() const { return queue_.busy_time(); }

  /// Ids of currently installed sessions (check layer: every one must be
  /// backed by a broker-issued record — no session without a signed verdict).
  std::vector<std::uint64_t> session_ids() const;
  /// Sessions whose last uplink activity predates `cutoff` — candidates the
  /// inactivity GC must reclaim (check layer: none may outlive the GC
  /// horizon). Gateway counters are consulted so a session with fresh
  /// not-yet-swept uplink traffic is not reported stale.
  std::size_t sessions_stale_since(TimePoint cutoff) const;

  /// Callback fired when a session is installed (the scenario uses it to
  /// hook the QoS cap into the bearer shaper).
  std::function<void(net::Link* radio_link, const QosInfo&)> on_session_installed;

 private:
  struct Session {
    std::uint64_t id = 0;
    std::string pseudonym;
    net::Node* ue_node = nullptr;
    net::Link* radio_link = nullptr;
    net::Ipv4Addr ip;
    QosInfo qos;
    SecurityContext security;
    TimePoint started_at;
    std::uint32_t next_period = 0;
    // Gateway-side counter snapshots at the start of the current period:
    // DL measured pre-radio (what the gateway sent), UL post-radio.
    std::uint64_t dl_sent_base = 0;
    std::uint64_t ul_delivered_base = 0;
    /// Last instant uplink bytes arrived from the UE (any live UE produces
    /// some — at minimum its periodic reports cross the bearer). Drives the
    /// session_timeout inactivity GC.
    TimePoint last_activity;
    sim::EventHandle report_timer;
  };

  void install_session(const TelcoSession& ts, net::Node* ue_node, net::Link* radio_link,
                       Bytes auth_resp_u, AttachReply reply,
                       std::uint32_t first_period = 0);
  void send_resume_notify(std::uint64_t session_id, const Bytes& ticket_id);
  /// The broker's ResumeNotifyAck carried a revocation verdict.
  void revoke_resumed_session(std::uint64_t session_id);
  void send_report(std::uint64_t session_id, bool final_report);
  /// Hand the broker's SAP verdict for `txn` to the attach waiting on it;
  /// an empty reader is a denial.
  void deliver_auth_verdict(std::uint64_t txn, ByteReader& verdict);
  void release_session(std::uint64_t session_id);
  void ensure_gc();
  void gc_sweep();
  std::uint64_t downlink_sent_bytes(const Session& s) const;
  std::uint64_t uplink_delivered_bytes(const Session& s) const;

  net::Network& network_;
  net::Node& node_;
  SapTelco sap_;
  crypto::Certificate broker_cert_;
  Config config_;
  sim::ServiceQueue queue_;
  Rng rng_;
  /// Dedicated stream for retry jitter (see UeAgent::jitter_rng_).
  Rng jitter_rng_;
  std::uint16_t port_ = 0;
  // The broker channels: SAP auth requests (keyed by auth txn), traffic
  // reports (keyed by report seq) and resume notifies (best-effort with
  // bounded retries, keyed by notify txn; the ack may carry a revocation
  // verdict).
  BrokerChannel auth_;
  BrokerChannel reports_;
  BrokerChannel notifies_;

  std::uint64_t next_txn_ = 1;
  std::unordered_map<std::uint64_t, std::function<void(ByteReader&)>> awaiting_broker_;
  std::unordered_map<std::uint64_t, Session> sessions_;  // by session id
  std::unordered_map<net::Ipv4Addr, std::uint64_t> by_ip_;
  std::uint64_t next_report_seq_ = 1;
  sim::EventHandle gc_timer_;
  bool crashed_ = false;
  std::uint64_t attaches_ = 0;
  std::uint64_t sessions_gced_ = 0;
  std::uint64_t reports_abandoned_ = 0;

  // Resumption state (inert until enable_resume).
  Bytes ticket_key_;
  std::unordered_set<std::string> used_tickets_;  // hex(ticket_id): one use here
  std::unordered_set<std::string> revoked_;       // pseudonyms barred from resume
  std::vector<TicketAudit> ticket_audit_;
  std::uint64_t next_notify_txn_ = 1;
  std::uint64_t resumes_ = 0;
  std::uint64_t resumes_rejected_ = 0;
};

}  // namespace cb::cellbricks
