#include "cellbricks/ue_agent.hpp"

#include "cellbricks/broker_cluster.hpp"
#include "cellbricks/ticket.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace cb::cellbricks {

namespace {

/// UE per-message processing incl. crypto (x2 per attach; Fig.7).
constexpr Duration kUeMsg = Duration::millis(1.25);
/// eNB relay processing per leg (x2 per attach).
constexpr Duration kEnbMsg = Duration::millis(0.375);
/// Bearer watchdog cadence while attached (detects serving-link death).
constexpr Duration kWatchdogInterval = Duration::millis(500);
/// Recovery retry backoff: decorrelated jitter from this base, capped at the
/// max.
constexpr Duration kRetryBackoff = Duration::millis(500);
constexpr Duration kRetryBackoffMax = Duration::s(8);
/// How long a cell that failed an attach is skipped during recovery.
constexpr Duration kCellBlacklist = Duration::s(10);

}  // namespace

UeAgent::UeAgent(net::Network& network, net::Node& ue_node, SapUe sap,
                 const ran::RanMap& ran_map, std::function<Btelco*(ran::CellId)> telco_of_cell,
                 net::EndPoint broker_report_ep, Config config)
    : network_(network),
      ue_node_(ue_node),
      sap_(std::move(sap)),
      ran_map_(ran_map),
      telco_of_cell_(std::move(telco_of_cell)),
      config_(config),
      ue_queue_(ue_node.simulator()),
      enb_queue_(ue_node.simulator()),
      rng_(ue_node.simulator().rng().fork(0x0EA6)),
      jitter_rng_(ue_node.simulator().rng().fork(0x0EA7)),
      // The source address is set per attach (complete_attach).
      reports_(ue_node, BrokerMsg::Report, net::EndPoint{}, broker_report_ep, jitter_rng_,
               kAgentSchedule) {
  reports_.on_transmit = [](std::uint64_t) { obs::inc(obs::counter("ue_agent.reports.tx")); };
  reports_.on_abandon = [this](std::uint64_t seq) {
    ++reports_abandoned_;
    obs::inc(obs::counter("ue_agent.reports.abandoned"));
    obs::trace(ue_node_.simulator().now(), obs::TraceType::ReportAbandoned, seq);
    CB_LOG(Info, "ue-agent") << id() << ": report " << seq << " abandoned (no broker ACK)";
  };
  reports_.on_ack = [this](std::uint64_t seq, const BrokerChannel::Acked&, ByteReader&) {
    obs::inc(obs::counter("ue_agent.reports.acked"));
    obs::trace(ue_node_.simulator().now(), obs::TraceType::ReportAck, seq);
  };
  reports_.on_redirect = [](std::uint64_t) {
    obs::inc(obs::counter("ue_agent.reports.redirected"));
  };
  // Broker ACKs for the reliable report channel arrive on the report port.
  ue_node_.bind_udp(kUeReportPort, [this](const net::Packet& p) { reports_.receive(p); });
}

void UeAgent::attach(ran::CellId cell, std::function<void(Result<net::Ipv4Addr>)> done) {
  using R = Result<net::Ipv4Addr>;
  Btelco* telco = telco_of_cell_(cell);
  if (telco == nullptr) {
    if (done) done(R::err("no CellBricks provider on this cell"));
    return;
  }
  // Resume-first: a broker-minted ticket skips the broker round trip and
  // authenticates locally at the bTelco (SapResume mode). The ticket picks
  // the request, the bTelco entry and how the reply is read; the ladder,
  // deadline and failure path are the same for both.
  const bool resume = !ticket_.empty();
  const ran::TowerSite site = ran_map_.site(cell);
  drop_superseded_bearer(cell);
  site.radio_link->set_up(true);  // radio-layer connectivity (reused as-is)
  attach_started_ = ue_node_.simulator().now();
  obs::inc(obs::counter(resume ? "ue_agent.resume.attempts" : "ue_agent.attach.attempts"));
  obs::trace(attach_started_, obs::TraceType::AttachStart, cell);
  const std::uint64_t gen = ++attach_generation_;
  auto done_shared =
      std::make_shared<std::function<void(R)>>(done ? std::move(done) : [](R) {});

  // A failed attach must not leave the radio bearer admin-up: undo the
  // optimistic set_up unless this link meanwhile serves a live session.
  auto fail = [this, cell, site, done_shared](std::string error) {
    ++attach_failures_;
    obs::inc(obs::counter("ue_agent.attach.failure"));
    obs::trace(ue_node_.simulator().now(), obs::TraceType::AttachFail, cell);
    if (!attached() || serving_cell_ != cell) site.radio_link->set_up(false);
    if (attach_pending_ == cell) attach_pending_ = 0;
    (*done_shared)(R::err(std::move(error)));
  };

  // Deadline: a crashed AGW (or a dead control path) never answers, so the
  // UE gives up on its own clock. Bumping the generation invalidates any
  // continuation that might still limp in afterwards.
  attach_deadline_.cancel();
  attach_deadline_ =
      ue_node_.simulator().schedule(config_.attach_timeout, [this, gen, cell, resume, fail] {
        if (gen != attach_generation_) return;
        ++attach_generation_;
        CB_LOG(Info, "ue-agent") << id() << (resume ? ": resume timed out" : ": attach timed out");
        obs::inc(obs::counter("ue_agent.attach.timeout"));
        obs::trace(ue_node_.simulator().now(), obs::TraceType::AttachTimeout, cell);
        fail("attach timeout");
      });

  // [UE msg 1/2] craft authReqU (encrypt authVec to pkB, sign), or the
  // resume request: ticket + possession MAC over a fresh nonce. Its period
  // base carries the meter's period counter so the resumed bTelco's reports
  // continue the numbering instead of colliding at the broker.
  ue_queue_.submit(kUeMsg, [this, gen, cell, site, telco, resume, done_shared, fail] {
    if (gen != attach_generation_) return;  // superseded by newer mobility event
    Bytes nonce;
    Bytes req = resume ? make_resume_request(ticket_, telco->id(), next_period_, ss_resume_,
                                             rng_, &nonce)
                       : sap_.make_auth_req(telco->id(), rng_);
    // [eNB leg 1/2] relay to the bTelco AGW.
    enb_queue_.submit(kEnbMsg, [this, gen, cell, site, telco, resume, done_shared, fail,
                                req = std::move(req), nonce = std::move(nonce)]() mutable {
      if (gen != attach_generation_) return;
      const auto entry = resume ? &Btelco::handle_resume : &Btelco::handle_attach;
      (telco->*entry)(
          std::move(req), &ue_node_, site.radio_link,
          [this, gen, cell, site, telco, resume, done_shared, fail,
           nonce](Result<std::pair<Bytes, net::Ipv4Addr>> result) {
            // [eNB leg 2/2] + [UE msg 2/2] verify authRespU or open the
            // resume confirm, configure IP.
            enb_queue_.submit(kEnbMsg, [this, gen, cell, site, telco, resume, done_shared,
                                        fail, nonce, result = std::move(result)]() mutable {
              ue_queue_.submit(kUeMsg, [this, gen, cell, site, telco, resume, done_shared,
                                        fail, nonce, result = std::move(result)]() mutable {
                if (gen != attach_generation_) return;
                attach_deadline_.cancel();
                // A rejected ticket (already used at this bTelco, revoked,
                // expired, resumption not enabled there) is not an outage,
                // and a forged or corrupted confirm earns no trust: drop the
                // ticket and re-enter attach, whose full SAP run
                // re-authenticates end to end and mints a fresh ticket.
                auto fall_back = [this, cell, &done_shared] {
                  ++resume_fallbacks_;
                  obs::inc(obs::counter("ue_agent.resume.fallback"));
                  ticket_.clear();
                  ss_resume_.clear();
                  attach(cell, *done_shared);
                };
                if (!result.ok()) {
                  if (!resume) {
                    fail(result.error());
                    return;
                  }
                  CB_LOG(Info, "ue-agent")
                      << id() << ": resume rejected (" << result.error()
                      << "), falling back to full SAP";
                  fall_back();
                  return;
                }
                auto& [reply, ip] = result.value();
                if (resume) {
                  auto confirm = open_resume_confirm(reply, ss_resume_);
                  if (!confirm.ok() || confirm.value().nonce != nonce) {
                    CB_LOG(Warn, "ue-agent") << id() << ": resume confirm rejected";
                    fall_back();
                    return;
                  }
                  ++resumes_succeeded_;
                  complete_attach(cell, site, telco, ip, confirm.value().session_id,
                                  /*resumed=*/true, done_shared);
                  return;
                }
                auto session = sap_.process_auth_resp(reply);
                if (!session.ok()) {
                  CB_LOG(Warn, "ue-agent") << id() << ": " << session.error();
                  fail(session.error());
                  return;
                }
                // Harvest the resumption ticket (if the broker minted one)
                // for the next re-attach; its possession proof is derived
                // from this session's ss so a stolen ticket alone is useless.
                if (!session.value().ticket.empty()) {
                  ticket_ = session.value().ticket;
                  ss_resume_ = derive_resume_secret(session.value().security.kasme);
                }
                complete_attach(cell, site, telco, ip, session.value().session_id,
                                /*resumed=*/false, done_shared);
              });
            });
          });
    });
  });
}

void UeAgent::complete_attach(
    ran::CellId cell, const ran::TowerSite& site, Btelco* telco, net::Ipv4Addr ip,
    std::uint64_t session_id, bool resumed,
    const std::shared_ptr<std::function<void(Result<net::Ipv4Addr>)>>& done_shared) {
  current_ip_ = ip;
  serving_cell_ = cell;
  serving_telco_ = telco;
  session_id_ = session_id;
  attach_pending_ = 0;
  reports_.set_source(net::EndPoint{ip, kUeReportPort});
  ue_node_.add_address(ip);
  ue_node_.set_default_route(site.radio_link);

  // Baseband meter baselines (PDCP/RLC counters).
  const auto& dl = site.radio_link->counters(site.node);
  const auto& ul = site.radio_link->counters(&ue_node_);
  dl_base_ = dl.delivered_bytes;
  dl_sent_base_ = dl.sent_bytes;
  ul_base_ = ul.sent_bytes;
  session_started_ = ue_node_.simulator().now();
  // A resumed session keeps its period numbering (the bTelco was told the
  // base in the resume request); a fresh session starts at zero.
  if (!resumed) next_period_ = 0;
  report_timer_ = ue_node_.simulator().schedule(config_.report_interval,
                                                [this] { send_report(false); });

  last_attach_latency_ = ue_node_.simulator().now() - attach_started_;
  attach_latencies_.add(last_attach_latency_.to_millis());
  obs::inc(obs::counter("ue_agent.attach.success"));
  obs::observe(obs::histogram("ue_agent.attach_latency_ms"),
               last_attach_latency_.to_millis());
  obs::trace(ue_node_.simulator().now(), obs::TraceType::AttachOk, cell,
             static_cast<std::uint64_t>(last_attach_latency_.nanos() / 1000));
  if (resumed) {
    resume_latencies_.add(last_attach_latency_.to_millis());
    obs::inc(obs::counter("ue_agent.resume.success"));
    obs::observe(obs::histogram("ue_agent.resume_latency_ms"),
                 last_attach_latency_.to_millis());
  }

  // Flush reports stranded while detached (oldest first). The silence was
  // our own detach, not the broker's fault, so the flush strikes no shard.
  reports_.resume();

  start_watchdog();
  if (mptcp_) mptcp_->notify_address_available(current_ip_);
  if (on_attached) on_attached(cell, last_attach_latency_);
  (*done_shared)(current_ip_);
}

// An attach superseded mid-flight (generation bump from a newer mobility
// event) never runs its fail path — the continuations all bail on the
// generation check — so its target bearer would stay admin-up forever.
// Lower the stale one before raising the next target's: break-before-make
// holds across retargets, which the session.single_bearer invariant checks.
void UeAgent::drop_superseded_bearer(ran::CellId next) {
  if (attach_pending_ != 0 && attach_pending_ != next && attach_pending_ != serving_cell_) {
    ran_map_.site(attach_pending_).radio_link->set_up(false);
  }
  attach_pending_ = next;
}

void UeAgent::attach_with_recovery(ran::CellId preferred) {
  recovery_enabled_ = true;
  cancel_recovery();
  in_recovery_ = true;
  recovery_backoff_ = kRetryBackoff;
  outage_started_ = ue_node_.simulator().now();
  try_attach(preferred);
}

void UeAgent::cancel_recovery() {
  recovery_timer_.cancel();
  in_recovery_ = false;
}

bool UeAgent::cell_blacklisted(ran::CellId cell) const {
  auto it = blacklist_.find(cell);
  return it != blacklist_.end() && it->second > ue_node_.simulator().now();
}

ran::CellId UeAgent::pick_candidate(ran::CellId preferred) {
  if (preferred != 0 && !cell_blacklisted(preferred) && telco_of_cell_(preferred) != nullptr) {
    return preferred;
  }
  if (candidate_source_) {
    for (ran::CellId cell : candidate_source_()) {
      if (!cell_blacklisted(cell) && telco_of_cell_(cell) != nullptr) return cell;
    }
  }
  return 0;  // nothing usable right now: back off and retry
}

void UeAgent::try_attach(ran::CellId preferred) {
  if (!in_recovery_ || attached()) return;
  const ran::CellId cell = pick_candidate(preferred);
  if (cell == 0) {
    schedule_retry(preferred);
    return;
  }
  attach(cell, [this, preferred, cell](Result<net::Ipv4Addr> result) {
    if (!in_recovery_) return;  // cancelled meanwhile
    if (result.ok()) {
      in_recovery_ = false;
      const Duration outage = ue_node_.simulator().now() - outage_started_;
      reattach_latencies_.add(outage.to_millis());
      obs::observe(obs::histogram("ue_agent.reattach_latency_ms"), outage.to_millis());
      obs::trace(ue_node_.simulator().now(), obs::TraceType::HandoverReattach, cell,
                 static_cast<std::uint64_t>(outage.nanos() / 1000));
      CB_LOG(Info, "ue-agent") << id() << ": recovered on cell " << cell << " after "
                               << outage.to_millis() << " ms";
      return;
    }
    // This cell is sick (denied, timed out, dead AGW): skip it for a while
    // and let the backoff pick the next-best candidate.
    blacklist_[cell] = ue_node_.simulator().now() + kCellBlacklist;
    schedule_retry(preferred);
  });
}

void UeAgent::schedule_retry(ran::CellId preferred) {
  obs::inc(obs::counter("ue_agent.attach.retries"));
  obs::trace(ue_node_.simulator().now(), obs::TraceType::AttachRetry, preferred);
  recovery_backoff_ =
      decorrelated_backoff(jitter_rng_, kRetryBackoff, recovery_backoff_, kRetryBackoffMax);
  recovery_timer_ = ue_node_.simulator().schedule(recovery_backoff_,
                                                  [this, preferred] { try_attach(preferred); });
}

void UeAgent::start_watchdog() {
  watchdog_timer_.cancel();
  watchdog_timer_ =
      ue_node_.simulator().schedule(kWatchdogInterval, [this] { watchdog(); });
}

void UeAgent::watchdog() {
  if (!attached()) return;
  const ran::TowerSite site = ran_map_.site(serving_cell_);
  const bool bearer_dead =
      !site.radio_link->is_up() || (site.node != nullptr && !site.node->is_up());
  if (!bearer_dead) {
    watchdog_timer_ =
        ue_node_.simulator().schedule(kWatchdogInterval, [this] { watchdog(); });
    return;
  }
  ++bearer_losses_;
  const ran::CellId lost = serving_cell_;
  obs::inc(obs::counter("ue_agent.bearer_losses"));
  obs::trace(ue_node_.simulator().now(), obs::TraceType::BearerLoss, lost);
  CB_LOG(Info, "ue-agent") << id() << ": bearer to cell " << lost
                           << " lost, entering recovery";
  detach_locally();
  blacklist_[lost] = ue_node_.simulator().now() + kCellBlacklist;
  if (recovery_enabled_) attach_with_recovery(0);
}

void UeAgent::send_report(bool final_report) {
  if (!attached()) return;
  const ran::TowerSite site = ran_map_.site(serving_cell_);
  const auto& dl = site.radio_link->counters(site.node);
  const auto& ul = site.radio_link->counters(&ue_node_);

  TrafficReport report;
  report.session_id = session_id_;
  report.reporter = Reporter::Ue;
  report.period = next_period_++;
  const std::uint64_t dl_delivered = dl.delivered_bytes - dl_base_;
  const std::uint64_t dl_sent = dl.sent_bytes - dl_sent_base_;
  report.dl_bytes = static_cast<std::uint64_t>(
      static_cast<double>(dl_delivered) * config_.underreport_factor);
  report.ul_bytes = ul.sent_bytes - ul_base_;
  report.dl_loss_rate =
      dl_sent > 0 ? 1.0 - static_cast<double>(dl_delivered) / static_cast<double>(dl_sent)
                  : 0.0;
  report.duration_ms = static_cast<std::uint64_t>(
      (ue_node_.simulator().now() - session_started_).to_millis());
  const double period_s = config_.report_interval.to_seconds();
  report.avg_dl_bps = static_cast<double>(report.dl_bytes) * 8.0 / period_s;
  report.avg_ul_bps = static_cast<double>(report.ul_bytes) * 8.0 / period_s;
  dl_base_ = dl.delivered_bytes;
  dl_sent_base_ = dl.sent_bytes;
  ul_base_ = ul.sent_bytes;

  // Sign inside the "baseband", seal to the broker (§4.3), ship over the
  // reliable (ACK + retransmission) report channel. A final report sent at
  // detach time may lose its first copy with the radio; the retransmission
  // resumes after the next attach.
  const Bytes sealed = ReportFrame::seal(
      report, id(), [this](BytesView b) { return sap_.sign(b); }, sap_.broker_key(), rng_);
  const std::uint64_t seq = next_report_seq_++;
  obs::inc(obs::counter("ue_agent.reports.sent"));
  obs::trace(ue_node_.simulator().now(), obs::TraceType::ReportSend, seq, report.period);
  reports_.send(seq, sealed, report.session_id);

  if (!final_report) {
    report_timer_ =
        ue_node_.simulator().schedule(config_.report_interval, [this] { send_report(false); });
  }
}

void UeAgent::detach() {
  if (!attached()) return;
  send_report(/*final=*/true);
  serving_telco_->handle_detach(session_id_);
  detach_locally();
}

void UeAgent::detach_locally() {
  if (serving_cell_ != 0) {
    obs::trace(ue_node_.simulator().now(), obs::TraceType::HandoverDetach, serving_cell_);
  }
  report_timer_.cancel();
  attach_deadline_.cancel();
  watchdog_timer_.cancel();
  // Pause report retransmission until the next attach gives us an IP again.
  reports_.pause();
  ran_map_.site(serving_cell_).radio_link->set_up(false);
  // The generation bump below orphans any in-flight attach, so close its
  // optimistically-raised bearer here — nothing else will.
  drop_superseded_bearer(0);
  ue_node_.remove_address(current_ip_);
  // (The bTelco unregisters the address from the routing oracle when it
  // releases the session.)
  const net::Ipv4Addr old_ip = current_ip_;
  current_ip_ = net::Ipv4Addr{};
  serving_cell_ = 0;
  serving_telco_ = nullptr;
  session_id_ = 0;
  ++attach_generation_;  // invalidate in-flight attach continuations
  if (mptcp_) mptcp_->notify_address_invalidated(old_ip);
}

}  // namespace cb::cellbricks
