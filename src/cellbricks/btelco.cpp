#include "cellbricks/btelco.hpp"

#include <algorithm>
#include <vector>

#include "cellbricks/broker_cluster.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace cb::cellbricks {

namespace {

/// Per-message AGW processing (x2 per attach; Fig.7: 6.5 ms each).
constexpr Duration kAgwMsg = Duration::millis(6.5);
/// QoS capability advertised to brokers: unconstrained rates, every QCI group.
constexpr QosCap kQosCap{};
/// Auth-request retransmission: a fixed 1 s gap, 4 sends (the UDP control
/// path can lose datagrams under degraded conditions). The cap equals the
/// first gap, so the schedule draws no jitter.
constexpr RetrySchedule kAuthSchedule{Duration::s(1), 4, Duration::s(1)};

}  // namespace

Btelco::Btelco(net::Network& network, net::Node& node, SapTelco sap,
               crypto::Certificate broker_cert, net::EndPoint broker_endpoint)
    : Btelco(network, node, std::move(sap), std::move(broker_cert), broker_endpoint,
             Config()) {}

Btelco::Btelco(net::Network& network, net::Node& node, SapTelco sap,
               crypto::Certificate broker_cert, net::EndPoint broker_endpoint, Config config)
    : network_(network),
      node_(node),
      sap_(std::move(sap)),
      broker_cert_(std::move(broker_cert)),
      config_(config),
      queue_(node.simulator()),
      rng_(node.simulator().rng().fork(0xB7E1C0)),
      jitter_rng_(node.simulator().rng().fork(0xB7E1C1)),
      port_(node.alloc_port()),
      // Unset source address: Node::send stamps the tower's primary address.
      auth_(node, BrokerMsg::AuthReq, net::EndPoint{net::Ipv4Addr{}, port_}, broker_endpoint,
            jitter_rng_, kAuthSchedule),
      reports_(node, BrokerMsg::Report, net::EndPoint{net::Ipv4Addr{}, port_}, broker_endpoint,
               jitter_rng_, kAgentSchedule),
      notifies_(node, BrokerMsg::ResumeNotify, net::EndPoint{net::Ipv4Addr{}, port_},
                broker_endpoint, jitter_rng_, kAgentSchedule) {
  // The broker's SAP verdict goes to the attach waiting on that txn; a
  // denial, or silence after the last attempt, delivers an empty verdict.
  auth_.on_ack = [this](std::uint64_t txn, const BrokerChannel::Acked& acked, ByteReader& r) {
    if (acked.reply == BrokerMsg::AuthOk) {
      deliver_auth_verdict(txn, r);
      return;
    }
    CB_LOG(Info, "btelco") << id() << ": broker denied attach: " << r.str();
    ByteReader denied{BytesView{}};
    deliver_auth_verdict(txn, denied);
  };
  auth_.on_abandon = [this](std::uint64_t txn) {
    ByteReader denied{BytesView{}};
    deliver_auth_verdict(txn, denied);
  };
  reports_.on_transmit = [](std::uint64_t) { obs::inc(obs::counter("btelco.reports.tx")); };
  reports_.on_abandon = [this](std::uint64_t seq) {
    ++reports_abandoned_;
    obs::inc(obs::counter("btelco.reports.abandoned"));
    obs::trace(node_.simulator().now(), obs::TraceType::ReportAbandoned, seq);
    CB_LOG(Info, "btelco") << id() << ": report " << seq << " abandoned (no broker ACK)";
  };
  reports_.on_ack = [this](std::uint64_t seq, const BrokerChannel::Acked&, ByteReader&) {
    obs::inc(obs::counter("btelco.reports.acked"));
    obs::trace(node_.simulator().now(), obs::TraceType::ReportAck, seq);
  };
  reports_.on_redirect = [](std::uint64_t) {
    obs::inc(obs::counter("btelco.reports.redirected"));
  };
  notifies_.on_ack = [this](std::uint64_t, const BrokerChannel::Acked& acked, ByteReader& r) {
    if (r.u8() != 0) revoke_resumed_session(acked.session_id);
  };
  // Best-effort: the session stays up (it is backed by the broker's original
  // issuance); only the id_t rebinding and the revocation check are lost,
  // and the report channel's own retries cover billing.
  notifies_.on_abandon = [](std::uint64_t) {
    obs::inc(obs::counter("btelco.resume.notify_abandoned"));
  };
  node_.bind_udp(port_, [this](const net::Packet& p) {
    if (crashed_) return;
    // Each reply type answers exactly one channel's requests.
    auth_.receive(p) || reports_.receive(p) || notifies_.receive(p);
  });

  // User-plane uplink metering happens via per-session counters on the
  // radio link; downlink traffic to subscriber IPs is anchored here.
}

void Btelco::handle_attach(Bytes auth_req_u, net::Node* ue_node, net::Link* radio_link,
                           AttachReply reply) {
  // A crashed AGW never answers: the request dies on the radio control
  // channel and the UE's attach deadline is what surfaces the failure.
  if (crashed_) return;
  // [AGW msg 1/2] Augment the UE request with service parameters and our
  // signature, then forward it to the subscriber's broker.
  queue_.submit(kAgwMsg, [this, auth_req_u = std::move(auth_req_u), ue_node, radio_link,
                          reply = std::move(reply)]() mutable {
    // A job queued before a crash dies with the AGW.
    if (crashed_) return;
    const Bytes auth_req_t = sap_.make_auth_req_t(auth_req_u, kQosCap);
    const std::uint64_t txn = next_txn_++;

    awaiting_broker_[txn] = [this, ue_node, radio_link,
                             reply = std::move(reply)](ByteReader& r) mutable {
      if (r.remaining() == 0) {
        reply(Result<std::pair<Bytes, net::Ipv4Addr>>::err("broker denied attachment"));
        return;
      }
      Bytes auth_resp_t = r.bytes();
      Bytes auth_resp_u = r.bytes();
      // [AGW msg 2/2] Verify the broker's authorization and install the
      // session (bearer, IP, QoS).
      queue_.submit(kAgwMsg, [this, ue_node, radio_link, auth_resp_t = std::move(auth_resp_t),
                              auth_resp_u = std::move(auth_resp_u),
                              reply = std::move(reply)]() mutable {
        if (crashed_) return;
        auto session = sap_.process_auth_resp(auth_resp_t, broker_cert_,
                                              node_.simulator().now());
        if (!session) {
          reply(Result<std::pair<Bytes, net::Ipv4Addr>>::err(session.error()));
          return;
        }
        install_session(session.value(), ue_node, radio_link, std::move(auth_resp_u),
                        std::move(reply));
      });
    };
    auth_.send(txn, auth_req_t, 0);
  });
}

void Btelco::enable_resume(Bytes ticket_key) { ticket_key_ = std::move(ticket_key); }

void Btelco::handle_resume(Bytes resume_req, net::Node* ue_node, net::Link* radio_link,
                           AttachReply reply) {
  using R = Result<std::pair<Bytes, net::Ipv4Addr>>;
  if (crashed_) return;
  // [AGW msg 1/2] Verify the ticket entirely locally: broker signature,
  // expiry, STEK seal, proof-of-possession MAC, single-use, revocation.
  queue_.submit(kAgwMsg, [this, resume_req = std::move(resume_req), ue_node, radio_link,
                          reply = std::move(reply)]() mutable {
    if (crashed_) return;
    auto rejected = [this, &reply](std::string why) {
      ++resumes_rejected_;
      obs::inc(obs::counter("btelco.resume.rejected"));
      CB_LOG(Info, "btelco") << id() << ": resume rejected: " << why;
      reply(R::err(std::move(why)));
    };
    if (ticket_key_.empty()) {
      rejected("resume: not enabled on this bTelco");
      return;
    }
    auto grant = verify_resume_request(resume_req, id(), broker_cert_.key(), ticket_key_,
                                       node_.simulator().now());
    if (!grant) {
      rejected(grant.error());
      return;
    }
    ResumeGrant g = std::move(grant).value();
    const std::string tid = to_hex(g.inner.ticket_id);
    if (used_tickets_.contains(tid)) {
      rejected("resume: ticket already used here");
      return;
    }
    if (revoked_.contains(g.inner.pseudonym)) {
      rejected("resume: subscriber revoked");
      return;
    }
    if (sessions_.contains(g.inner.session_id)) {
      rejected("resume: session already installed");
      return;
    }
    used_tickets_.insert(tid);

    // [AGW msg 2/2] Install the session and confirm to the UE. No broker
    // leg on the critical path — that is the latency win.
    queue_.submit(kAgwMsg, [this, g = std::move(g), ue_node, radio_link,
                            reply = std::move(reply)]() mutable {
      if (crashed_) return;
      TicketAudit audit;
      audit.ticket_id = g.inner.ticket_id;
      audit.session_id = g.inner.session_id;
      audit.pseudonym = g.inner.pseudonym;
      audit.expiry_ns = g.expiry_ns;
      audit.accepted_at_ns = static_cast<std::uint64_t>(node_.simulator().now().nanos());
      audit.was_revoked = revoked_.contains(g.inner.pseudonym);
      ticket_audit_.push_back(std::move(audit));
      ++resumes_;
      obs::inc(obs::counter("btelco.resume.accepted"));

      TelcoSession ts;
      ts.ue_pseudonym = g.inner.pseudonym;
      ts.session_id = g.inner.session_id;
      ts.qos = g.inner.qos;
      ts.security = SecurityContext::derive(g.inner.ss_resume);
      const Bytes confirm = make_resume_confirm(g, rng_);
      const std::uint64_t sid = g.inner.session_id;
      const Bytes ticket_id = g.inner.ticket_id;
      install_session(ts, ue_node, radio_link, confirm, std::move(reply), g.period_base);
      send_resume_notify(sid, ticket_id);
    });
  });
}

void Btelco::send_resume_notify(std::uint64_t session_id, const Bytes& ticket_id) {
  // Authenticated like an authReqT (certificate + signature): the broker may
  // have never seen this bTelco — local resumption is exactly the case where
  // the serving provider skipped the auth round trip.
  ByteWriter body;
  body.str(id());
  body.u64(session_id);
  body.bytes(ticket_id);
  ByteWriter inner;
  inner.bytes(body.data());
  inner.bytes(sap_.certificate().serialize());
  inner.bytes(sap_.sign(body.data()));
  const Bytes sealed = crypto::seal(broker_cert_.key(), inner.data(), rng_);

  obs::inc(obs::counter("btelco.resume.notify_sent"));
  notifies_.send(next_notify_txn_++, sealed, session_id);
}

void Btelco::revoke_resumed_session(std::uint64_t session_id) {
  // The broker vetoed the resumption (suspect subscriber or a session it
  // never issued): bar the pseudonym from further resumes here and tear the
  // session down after a final accounting report.
  auto sit = sessions_.find(session_id);
  if (sit != sessions_.end()) {
    revoked_.insert(sit->second.pseudonym);
    CB_LOG(Info, "btelco") << id() << ": broker revoked resumed session " << session_id
                           << ", tearing down";
    obs::inc(obs::counter("btelco.resume.revoked"));
    send_report(session_id, /*final=*/true);
    release_session(session_id);
  }
}

void Btelco::deliver_auth_verdict(std::uint64_t txn, ByteReader& verdict) {
  auto it = awaiting_broker_.find(txn);
  if (it == awaiting_broker_.end()) return;
  auto continuation = std::move(it->second);
  awaiting_broker_.erase(it);
  continuation(verdict);
}

std::uint64_t Btelco::downlink_sent_bytes(const Session& s) const {
  // What the gateway put on the radio toward the UE (pre-loss).
  return s.radio_link->counters(&node_).sent_bytes;
}

std::uint64_t Btelco::uplink_delivered_bytes(const Session& s) const {
  // What actually arrived from the UE.
  return s.radio_link->counters(s.ue_node).delivered_bytes;
}

void Btelco::install_session(const TelcoSession& ts, net::Node* ue_node,
                             net::Link* radio_link, Bytes auth_resp_u, AttachReply reply,
                             std::uint32_t first_period) {
  Session s;
  s.id = ts.session_id;
  s.pseudonym = ts.ue_pseudonym;
  s.ue_node = ue_node;
  s.radio_link = radio_link;
  s.qos = ts.qos;
  s.security = ts.security;
  s.next_period = first_period;
  s.started_at = node_.simulator().now();
  s.ip = network_.alloc_address(config_.ip_subnet);
  s.dl_sent_base = radio_link->counters(&node_).sent_bytes;
  s.ul_delivered_base = radio_link->counters(ue_node).delivered_bytes;
  s.last_activity = node_.simulator().now();

  // Anchor the subscriber IP at this gateway; downlink goes straight onto
  // the radio bearer (the "tower + core appliances" are one site).
  network_.register_address(s.ip, &node_, /*proxy_only=*/true);
  const std::uint64_t sid = s.id;
  node_.add_proxy_address(s.ip, [this, sid](net::Packet&& packet) {
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) return;
    it->second.radio_link->send(&node_, std::move(packet));
  });
  network_.recompute_routes();

  by_ip_[s.ip] = s.id;
  const net::Ipv4Addr ip = s.ip;
  auto [sit, inserted] = sessions_.emplace(s.id, std::move(s));
  ++attaches_;
  obs::inc(obs::counter("btelco.attaches"));
  obs::set(obs::gauge("btelco.sessions.active"), static_cast<double>(sessions_.size()));
  obs::trace(node_.simulator().now(), obs::TraceType::SessionInstalled, sid);

  // Periodic traffic reports for billing.
  sit->second.report_timer = node_.simulator().schedule(
      config_.report_interval, [this, sid] { send_report(sid, /*final=*/false); });

  if (on_session_installed) on_session_installed(radio_link, sit->second.qos);
  ensure_gc();
  CB_LOG(Debug, "btelco") << id() << ": session " << sit->second.pseudonym << " ip "
                          << ip.to_string();
  reply(std::make_pair(std::move(auth_resp_u), ip));
}

void Btelco::send_report(std::uint64_t session_id, bool final_report) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || crashed_) return;
  Session& s = it->second;

  const std::uint64_t dl_now = downlink_sent_bytes(s);
  const std::uint64_t ul_now = uplink_delivered_bytes(s);
  if (ul_now > s.ul_delivered_base) s.last_activity = node_.simulator().now();
  TrafficReport report;
  report.session_id = s.id;
  report.reporter = Reporter::Telco;
  report.period = s.next_period++;
  report.dl_bytes = static_cast<std::uint64_t>(
      static_cast<double>(dl_now - s.dl_sent_base) * config_.overreport_factor);
  report.ul_bytes = ul_now - s.ul_delivered_base;
  report.duration_ms = static_cast<std::uint64_t>(
      (node_.simulator().now() - s.started_at).to_millis());
  const double period_s = config_.report_interval.to_seconds();
  report.avg_dl_bps = static_cast<double>(report.dl_bytes) * 8.0 / period_s;
  report.avg_ul_bps = static_cast<double>(report.ul_bytes) * 8.0 / period_s;
  s.dl_sent_base = dl_now;
  s.ul_delivered_base = ul_now;

  // Sign, seal to the broker, and ship over the reliable (ACK +
  // retransmission) report channel.
  const Bytes sealed = ReportFrame::seal(
      report, id(), [this](BytesView b) { return sap_.sign(b); }, broker_cert_.key(), rng_);

  const std::uint64_t seq = next_report_seq_++;
  obs::inc(obs::counter("btelco.reports.sent"));
  obs::trace(node_.simulator().now(), obs::TraceType::ReportSend, seq, report.period);
  reports_.send(seq, sealed, report.session_id);

  if (!final_report) {
    s.report_timer = node_.simulator().schedule(
        config_.report_interval, [this, session_id] { send_report(session_id, false); });
  }
}

void Btelco::handle_detach(std::uint64_t session_id) {
  if (crashed_) return;
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  send_report(session_id, /*final=*/true);
  release_session(session_id);
}

void Btelco::crash() {
  if (crashed_) return;
  crashed_ = true;
  node_.set_up(false);
  // The AGW's in-memory state is gone: bearers drop, subscriber IPs are
  // withdrawn, nothing is reported. UEs discover the loss via their bearer
  // watchdog and re-attach elsewhere.
  std::vector<std::uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [sid, _] : sessions_) ids.push_back(sid);
  for (std::uint64_t sid : ids) {
    if (auto it = sessions_.find(sid); it != sessions_.end()) {
      it->second.radio_link->set_up(false);
    }
    release_session(sid);
  }
  auth_.clear();
  reports_.clear();
  notifies_.clear();
  awaiting_broker_.clear();
  gc_timer_.cancel();
  // The used-ticket cache, the revocation list, and the audit trail survive
  // the crash (durable, like the subscriber IP pool config): a replayed
  // ticket must not become valid because the AGW rebooted.
  CB_LOG(Info, "btelco") << id() << ": crashed";
}

void Btelco::restart() {
  if (!crashed_) return;
  crashed_ = false;
  node_.set_up(true);
  CB_LOG(Info, "btelco") << id() << ": restarted (state empty)";
}

std::vector<std::string> Btelco::session_pseudonyms() const {
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [sid, s] : sessions_) out.push_back(s.pseudonym);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> Btelco::session_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [sid, s] : sessions_) ids.push_back(sid);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t Btelco::sessions_stale_since(TimePoint cutoff) const {
  std::size_t stale = 0;
  for (const auto& [sid, s] : sessions_) {
    // Same freshness rule as gc_sweep: pending uplink the sweeper has not
    // folded into last_activity yet counts as activity.
    if (uplink_delivered_bytes(s) > s.ul_delivered_base) continue;
    if (s.last_activity < cutoff) ++stale;
  }
  return stale;
}

void Btelco::ensure_gc() {
  // Lazy: runs only while sessions exist, so an idle bTelco leaves the
  // event queue empty and Simulator::run still terminates.
  if (gc_timer_.pending()) return;
  gc_timer_ = node_.simulator().schedule(config_.gc_interval, [this] { gc_sweep(); });
}

void Btelco::gc_sweep() {
  if (crashed_) return;
  const TimePoint now = node_.simulator().now();
  std::vector<std::uint64_t> expired;
  for (auto& [sid, s] : sessions_) {
    // Refresh activity from the meter so a chatty UE that last triggered a
    // report long ago is not reclaimed between reporting periods.
    if (uplink_delivered_bytes(s) > s.ul_delivered_base) s.last_activity = now;
    if (now - s.last_activity >= config_.session_timeout) expired.push_back(sid);
  }
  for (std::uint64_t sid : expired) {
    CB_LOG(Info, "btelco") << id() << ": session " << sid
                           << " inactive past timeout, reclaiming";
    send_report(sid, /*final=*/true);
    release_session(sid);
    ++sessions_gced_;
    obs::inc(obs::counter("btelco.sessions.gced"));
    obs::trace(now, obs::TraceType::SessionGc, sid);
  }
  if (!sessions_.empty()) {
    gc_timer_ = node_.simulator().schedule(config_.gc_interval, [this] { gc_sweep(); });
  }
}

void Btelco::release_session(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  s.report_timer.cancel();
  node_.remove_proxy_address(s.ip);
  network_.unregister_address(s.ip);
  by_ip_.erase(s.ip);
  sessions_.erase(it);
  obs::inc(obs::counter("btelco.sessions.released"));
  obs::set(obs::gauge("btelco.sessions.active"), static_cast<double>(sessions_.size()));
  obs::trace(node_.simulator().now(), obs::TraceType::SessionReleased, session_id);
}

}  // namespace cb::cellbricks
