// Differential attach-protocol conformance suite (DESIGN.md §14).
//
// Every protocol on the axis — eps_aka | 5g_aka | sap | sap_resume — runs
// through the SAME seeded scenario matrix (clean attach, handover re-attach,
// broker/HSS unreachable, mid-attach chaos window) at 1 and 4 broker shards
// under the full invariant catalogue, and each cell must come back (i)
// violation-free and (ii) bit-stable: two runs of the same seed produce
// identical fingerprints.
// World-level tests then check what the scenario runner cannot see from the
// outside: the 5G key-agreement transcript (KSEAF equality across the air
// interface), the calibrated latency ordering between protocols, resolution
// of the protocol axis onto architectures, and the resumption-ticket
// lifecycle (audit trail, single-use handles, replay/expiry/forgery).
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "cellbricks/ticket.hpp"
#include "check/runner.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/world.hpp"

namespace cb {
namespace {

using scenario::AttachProtocol;
using scenario::FuzzFault;
using scenario::FuzzScenario;
using scenario::RouteSpec;
using scenario::World;
using scenario::WorldConfig;

// ---------------------------------------------------------------------------
// The scenario matrix: run_scenario across every protocol variant
// ---------------------------------------------------------------------------

struct MatrixCase {
  AttachProtocol protocol;
  int broker_shards;
  std::string label(const char* scenario) const {
    return std::string(scenario) + "/" + to_string(protocol) + "/shards=" +
           std::to_string(broker_shards);
  }
};

// Every protocol at one and at four broker shards (the EPC worlds build no
// broker and ignore the shard count).
std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (int shards : {1, 4}) {
    for (AttachProtocol p : {AttachProtocol::EpsAka, AttachProtocol::Aka5g, AttachProtocol::Sap,
                             AttachProtocol::SapResume}) {
      cases.push_back({p, shards});
    }
  }
  return cases;
}

// Common geometry: 3 bTelcos 400 m apart, UE at 25 m/s -> cell crossings at
// ~8 s and ~24 s, so a 30 s horizon exercises two re-attaches.
FuzzScenario matrix_scenario(const MatrixCase& c) {
  FuzzScenario s;
  s.seed = 1234;
  s.protocol = c.protocol;
  s.broker_shards = c.broker_shards;
  s.n_towers = 3;
  s.night = false;
  s.speed_mps = 25.0;
  s.tower_spacing_m = 400.0;
  s.duration_s = 30.0;
  s.app = 0;  // mobility only; the matrix is about the control plane
  return s;
}

// One matrix cell: the run must be invariant-clean (attach.* included) and
// the same seed must reproduce the exact end-state fingerprint.
check::RunReport expect_conformant(const FuzzScenario& s, const std::string& label,
                                   bool require_attached) {
  const check::RunReport a = check::run_scenario(s);
  for (const auto& v : a.violations) {
    ADD_FAILURE() << label << ": invariant " << v.invariant << " violated: " << v.detail;
  }
  EXPECT_GT(a.checks_run, 0u) << label;
  if (require_attached) {
    EXPECT_TRUE(a.ue_attached_at_end) << label;
  }
  const check::RunReport b = check::run_scenario(s);
  EXPECT_EQ(a.fingerprint(), b.fingerprint()) << label << ": same-seed rerun diverged";
  return a;
}

TEST(AttachMatrix, CleanAttach) {
  for (const MatrixCase& c : matrix_cases()) {
    FuzzScenario s = matrix_scenario(c);
    s.speed_mps = 1.0;  // never leaves the first cell: pure attach + idle
    s.duration_s = 20.0;
    expect_conformant(s, c.label("clean"), /*require_attached=*/true);
  }
}

TEST(AttachMatrix, HandoverReattach) {
  for (const MatrixCase& c : matrix_cases()) {
    FuzzScenario s = matrix_scenario(c);
    s.app = 2;  // ping keeps the user plane observable across re-attaches
    const check::RunReport r = expect_conformant(s, c.label("handover"), /*require_attached=*/true);
    // Plain SAP re-runs the broker round-trip per crossing (one session per
    // attach); sap_resume keeps the ORIGINAL session across resumed
    // re-attaches — billing continuity is the differential signature of the
    // ticket path. The EPC variants never touch the broker.
    if (c.protocol == AttachProtocol::EpsAka || c.protocol == AttachProtocol::Aka5g) {
      EXPECT_EQ(r.sessions_issued, 0u) << c.label("handover");
    } else if (c.protocol == AttachProtocol::SapResume) {
      EXPECT_EQ(r.sessions_issued, 1u) << c.label("handover");
    } else {
      EXPECT_GE(r.sessions_issued, 2u) << c.label("handover");
    }
  }
}

TEST(AttachMatrix, BrokerUnreachableWindow) {
  // The cloud host (the broker for SAP, HSS for the EPC protocols) goes dark
  // across the first cell crossing; recovery/backoff must re-attach once the
  // window lifts, and the run must stay invariant-clean throughout.
  for (const MatrixCase& c : matrix_cases()) {
    FuzzScenario s = matrix_scenario(c);
    FuzzFault outage;
    outage.kind = FuzzFault::Kind::BrokerOutage;
    outage.start_s = 6.0;
    outage.duration_s = 10.0;
    s.faults.push_back(outage);
    expect_conformant(s, c.label("broker-outage"), /*require_attached=*/true);
  }
}

TEST(AttachMatrix, MidAttachChaosWindow) {
  // A short outage lands exactly on the 8 s crossing (the re-attach is
  // in-flight when the control path dies), then a radio drop and a provider
  // crash later in the drive. Liveness at the horizon is not promised under
  // an unhealed radio fault — determinism and invariant-cleanliness are.
  for (const MatrixCase& c : matrix_cases()) {
    FuzzScenario s = matrix_scenario(c);
    FuzzFault outage;
    outage.kind = FuzzFault::Kind::BrokerOutage;
    outage.start_s = 7.5;
    outage.duration_s = 3.0;
    FuzzFault drop;
    drop.kind = FuzzFault::Kind::RadioDrop;
    drop.start_s = 20.0;
    FuzzFault crash;
    crash.kind = FuzzFault::Kind::TelcoCrash;
    crash.start_s = 22.0;
    crash.duration_s = 4.0;
    crash.telco = 2;
    s.faults = {outage, drop, crash};
    expect_conformant(s, c.label("chaos"), /*require_attached=*/false);
  }
}

// ---------------------------------------------------------------------------
// Key-agreement transcripts and calibrated ordering (world level)
// ---------------------------------------------------------------------------

// A three-tower sap_resume drive: crossings at ~8 s and ~24 s.
WorldConfig resume_drive() {
  WorldConfig cfg;
  cfg.protocol = AttachProtocol::SapResume;
  cfg.seed = 11;
  cfg.n_towers = 3;
  cfg.route = RouteSpec{"resume", false, 25.0, 400.0, ran::RatePolicy::day()};
  return cfg;
}

// One sap_resume tower and a parked UE: the attach tests below drive
// UeAgent::attach by hand, with no mobility loop.
WorldConfig one_tower_resume() {
  WorldConfig cfg;
  cfg.protocol = AttachProtocol::SapResume;
  cfg.seed = 5;
  cfg.n_towers = 1;
  cfg.route = RouteSpec{"parked", false, 0.1, 500.0, ran::RatePolicy::day()};
  return cfg;
}

WorldConfig small_world(AttachProtocol protocol, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = seed;
  cfg.n_towers = 2;
  cfg.route = RouteSpec{"conformance", false, 0.5, 900.0, ran::RatePolicy::day()};
  return cfg;
}

TEST(KeyAgreement, FiveGTranscriptMatchesAcrossAirInterface) {
  World world(small_world(AttachProtocol::Aka5g, 7));
  world.start();
  world.simulator().run_for(Duration::s(5));
  ASSERT_NE(world.ue_nas(), nullptr);
  ASSERT_TRUE(world.ue_nas()->attached());
  EXPECT_TRUE(world.ue_nas()->is_5g());
  // The serving side learned KSEAF from the AUSF confirm; the UE derived it
  // from K and RAND. Agreement is the whole point of the RES* dialog.
  ASSERT_FALSE(world.mme()->last_kseaf().empty());
  EXPECT_EQ(world.mme()->last_kseaf(), world.ue_nas()->last_kseaf());
}

TEST(KeyAgreement, EpsAkaWorldStaysFourG) {
  World world(small_world(AttachProtocol::EpsAka, 7));
  world.start();
  world.simulator().run_for(Duration::s(5));
  ASSERT_NE(world.ue_nas(), nullptr);
  ASSERT_TRUE(world.ue_nas()->attached());
  EXPECT_FALSE(world.ue_nas()->is_5g());
  // No 5G dialog ran, so neither side holds a KSEAF: the 4G transcript is
  // K_ASME inside the EPS vector (covered by test_epc's vector tests).
  EXPECT_TRUE(world.mme()->last_kseaf().empty());
  EXPECT_TRUE(world.ue_nas()->last_kseaf().empty());
}

TEST(KeyAgreement, ProtocolLatencyOrderingMatchesCalibration) {
  // Same seed, same geometry, protocol swapped: the paper's d ordering is
  // sap < eps_aka < 5g_aka (one broker RTT vs two vs three HSS RTTs).
  auto first_attach_ms = [](AttachProtocol protocol) {
    World world(small_world(protocol, 3));
    world.start();
    world.simulator().run_for(Duration::s(5));
    if (world.ue_agent() != nullptr) {
      EXPECT_TRUE(world.ue_agent()->attached()) << to_string(protocol);
      return world.ue_agent()->last_attach_latency().to_millis();
    }
    EXPECT_TRUE(world.ue_nas()->attached()) << to_string(protocol);
    return world.ue_nas()->last_attach_latency().to_millis();
  };
  const double sap = first_attach_ms(AttachProtocol::Sap);
  const double eps = first_attach_ms(AttachProtocol::EpsAka);
  const double aka5g = first_attach_ms(AttachProtocol::Aka5g);
  EXPECT_LT(sap, eps);
  EXPECT_LT(eps, aka5g);
}

TEST(ProtocolResolution, DefaultFollowsArchitectureAndOverridesWin) {
  {
    WorldConfig cfg = small_world(AttachProtocol::Default, 5);
    cfg.arch = scenario::Architecture::Mno;
    World world(cfg);
    EXPECT_EQ(world.protocol(), AttachProtocol::EpsAka);
    EXPECT_NE(world.mme(), nullptr);
    EXPECT_EQ(world.ue_agent(), nullptr);
  }
  {
    WorldConfig cfg = small_world(AttachProtocol::Default, 5);
    cfg.arch = scenario::Architecture::CellBricks;
    World world(cfg);
    EXPECT_EQ(world.protocol(), AttachProtocol::Sap);
    EXPECT_NE(world.broker_cluster(), nullptr);
  }
  {
    // A non-Default protocol overrides the architecture knob entirely.
    WorldConfig cfg = small_world(AttachProtocol::EpsAka, 5);
    cfg.arch = scenario::Architecture::CellBricks;
    World world(cfg);
    EXPECT_EQ(world.protocol(), AttachProtocol::EpsAka);
    EXPECT_NE(world.mme(), nullptr);
    EXPECT_EQ(world.broker_cluster(), nullptr);
  }
}

TEST(ProtocolResolution, ShardedBrokerResumesTickets) {
  // Ticket resumption runs through the settlement log, so a sharded broker
  // serves sap_resume as it is: the drive keeps its one session, and every
  // resume is logged at whichever shard received its ResumeNotify.
  WorldConfig cfg = resume_drive();
  cfg.broker_shards = 4;
  World world(cfg);
  world.start();
  world.simulator().run_for(Duration::s(30));

  EXPECT_EQ(world.protocol(), AttachProtocol::SapResume);
  const cellbricks::BrokerCluster& broker = *world.broker_cluster();
  ASSERT_EQ(broker.n_shards(), 4u);
  const auto* ue = world.ue_agent();
  EXPECT_EQ(broker.sessions_issued(), 1u);
  EXPECT_GE(ue->resumes_succeeded(), 2u);
  EXPECT_EQ(broker.resumes_notified(), ue->resumes_succeeded());
  EXPECT_EQ(broker.resume_revocations(), 0u);
}

// Regression: sap_resume on a sharded broker (a combination that used to be
// degraded to plain SAP) must run a full scenario clean — billing pairs on
// the sharded settlement path and every invariant holds.
TEST(ProtocolResolution, DegradedResumeScenarioStillPairsBilling) {
  scenario::FuzzScenario s;
  s.seed = 20260808;
  s.n_towers = 3;
  s.speed_mps = 20.0;
  s.tower_spacing_m = 700.0;
  s.duration_s = 60.0;
  s.report_interval_s = 5.0;
  s.app = 1;
  s.protocol = AttachProtocol::SapResume;
  s.broker_shards = 2;
  const check::RunReport report = check::run_scenario(s, check::RunOptions{});
  for (const auto& v : report.violations) {
    ADD_FAILURE() << v.invariant << " @" << v.at.to_seconds() << "s: " << v.detail;
  }
  EXPECT_GT(report.pairs_compared, 0u) << "sharded resume world must still settle billing";
  EXPECT_TRUE(report.ue_attached_at_end);
  // The differential signature of live tickets: plain SAP mints one session
  // per attach, so the drive's cell crossings would mint fresh sessions; a
  // resumed re-attach keeps the original session.
  EXPECT_EQ(report.sessions_issued, 1u) << "resume tickets must be honored on a sharded broker";
}

TEST(ProtocolResolution, ToStringCoversTheAxis) {
  EXPECT_STREQ(to_string(AttachProtocol::Default), "default");
  EXPECT_STREQ(to_string(AttachProtocol::EpsAka), "eps_aka");
  EXPECT_STREQ(to_string(AttachProtocol::Aka5g), "5g_aka");
  EXPECT_STREQ(to_string(AttachProtocol::Sap), "sap");
  EXPECT_STREQ(to_string(AttachProtocol::SapResume), "sap_resume");
}

TEST(ProtocolResolution, FromStringInvertsToString) {
  for (AttachProtocol p : {AttachProtocol::Default, AttachProtocol::EpsAka, AttachProtocol::Aka5g,
                           AttachProtocol::Sap, AttachProtocol::SapResume}) {
    EXPECT_EQ(scenario::from_string(to_string(p)), p) << to_string(p);
  }
  // The retired cbsim spellings, a wrong case and the empty string.
  for (const char* bad : {"MNO", "mno", "cb", "SAP", "ttt", ""}) {
    EXPECT_EQ(scenario::from_string(bad), std::nullopt) << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Resumption-ticket lifecycle
// ---------------------------------------------------------------------------

TEST(ResumeLifecycle, HandoverDriveResumesAndAuditsStayClean) {
  World world(resume_drive());
  world.start();
  world.simulator().run_for(Duration::s(30));

  auto* ue = world.ue_agent();
  ASSERT_NE(ue, nullptr);
  EXPECT_EQ(world.protocol(), AttachProtocol::SapResume);
  EXPECT_TRUE(ue->attached());
  EXPECT_TRUE(ue->has_ticket());
  // Both cell crossings hit a fresh bTelco, so both re-attaches resumed.
  EXPECT_GE(ue->resumes_succeeded(), 2u);
  // A resumed attach skips the broker round-trip: strictly cheaper than the
  // full SAP attach that minted the ticket.
  ASSERT_FALSE(ue->resume_latencies().empty());
  EXPECT_LT(ue->resume_latencies().mean(), ue->attach_latencies().max());

  // Audit trail: every honoured ticket was within expiry, unrevoked, and a
  // ticket_id is used at most once per bTelco; the totals reconcile with the
  // UE's own counter and the broker heard about every resume (ResumeNotify
  // is async but well inside the 30 s horizon).
  std::uint64_t audited = 0;
  for (std::size_t i = 0; i < world.n_btelcos(); ++i) {
    std::set<std::string> seen_ids;
    for (const auto& audit : world.btelco(i)->ticket_audit()) {
      EXPECT_LE(audit.accepted_at_ns, audit.expiry_ns);
      EXPECT_FALSE(audit.was_revoked);
      EXPECT_TRUE(seen_ids.insert(to_hex(audit.ticket_id)).second)
          << "ticket honoured twice at " << world.btelco(i)->id();
    }
    audited += world.btelco(i)->resumes_served();
  }
  EXPECT_EQ(audited, ue->resumes_succeeded());
  ASSERT_NE(world.broker_cluster(), nullptr);
  EXPECT_EQ(world.broker_cluster()->resumes_notified(), ue->resumes_succeeded());
  EXPECT_EQ(world.broker_cluster()->resume_revocations(), 0u);
}

TEST(ResumeLifecycle, PreResumeTelcoLateReportStillPairs) {
  // Tower-0's control path is down across the first crossing, so its final
  // report for the pre-resume period retransmits only after tower-1's
  // ResumeNotify reached the broker. tower-0 is still a party of the
  // session: the report is ingested and pairs with the UE's half, and no
  // bTelco is charged with a missing report.
  World world(resume_drive());
  sim::Simulator& sim = world.simulator();
  sim.schedule_at(TimePoint::zero() + Duration::s(6),
                  [&world] { world.cloud_link(0)->set_up(false); });
  sim.schedule_at(TimePoint::zero() + Duration::s(11),
                  [&world] { world.cloud_link(0)->set_up(true); });
  world.start();
  sim.run_for(Duration::s(70));

  const cellbricks::BrokerCluster& broker = *world.broker_cluster();
  ASSERT_GE(world.ue_agent()->resumes_succeeded(), 1u);
  ASSERT_EQ(broker.sessions_issued(), 1u);
  const auto& session = broker.observer().sessions().begin()->second;
  EXPECT_TRUE(session.has_telco("btelco-0"));
  EXPECT_TRUE(session.has_telco("btelco-1"));
  EXPECT_EQ(world.btelco(0)->reports_abandoned(), 0u);
  EXPECT_EQ(broker.reports_rejected(), 0u) << "the pre-resume bTelco's late report was refused";
  EXPECT_EQ(broker.unpaired_expired(), 0u);
  for (std::size_t i = 0; i < world.n_btelcos(); ++i) {
    EXPECT_EQ(broker.reputation().missing_reports(world.btelco(i)->id()), 0u)
        << world.btelco(i)->id() << " charged with a missing report";
  }
}

// Four attach/detach cycles on one tower walk every branch of the attach
// procedure: full SAP mints a ticket, the ticket resumes, the same ticket is
// refused by the bTelco that already honoured it (the UE drops it and falls
// back to full SAP, which mints a fresh one), and the fresh ticket resumes.
TEST(ResumeLifecycle, AttachCyclesRunFullResumeFallbackResume) {
  World world(one_tower_resume());
  cellbricks::UeAgent* ue = world.ue_agent();
  ASSERT_NE(ue, nullptr);
  struct Expected {
    std::uint64_t resumes, fallbacks, sessions;
  };
  constexpr Expected kCycles[] = {{0, 0, 1}, {1, 0, 1}, {1, 1, 2}, {2, 1, 2}};
  for (std::size_t i = 0; i < std::size(kCycles); ++i) {
    SCOPED_TRACE(::testing::Message() << "cycle " << i + 1);
    bool ok = false;
    ue->attach(1, [&ok](Result<net::Ipv4Addr> r) { ok = r.ok(); });
    world.simulator().run_for(Duration::s(1));
    ASSERT_TRUE(ok);
    EXPECT_TRUE(ue->has_ticket());
    EXPECT_EQ(ue->resumes_succeeded(), kCycles[i].resumes);
    EXPECT_EQ(ue->resume_fallbacks(), kCycles[i].fallbacks);
    EXPECT_EQ(world.broker_cluster()->sessions_issued(), kCycles[i].sessions);
    ue->detach();
    world.simulator().run_for(Duration::s(1));
  }
  EXPECT_EQ(ue->resumes_succeeded(), 2u);
  EXPECT_EQ(ue->resume_fallbacks(), 1u);
  EXPECT_EQ(ue->attach_failures(), 0u);
  EXPECT_EQ(ue->attach_latencies().count(), 4u);
  EXPECT_EQ(ue->resume_latencies().count(), 2u);
  EXPECT_EQ(world.btelco(0)->resumes_served(), 2u);
}

// A resume that meets a crashed bTelco is an outage, not a rejected ticket:
// the UE's own deadline ends it with one failure and no fallback, the ticket
// stays for the next cell, and the bearer the attempt raised goes back down.
TEST(ResumeLifecycle, ResumeAgainstCrashedTelcoTimesOutAndKeepsTicket) {
  WorldConfig cfg = one_tower_resume();
  cfg.ue_config.attach_timeout = Duration::s(1);
  World world(cfg);
  cellbricks::UeAgent* ue = world.ue_agent();
  ASSERT_NE(ue, nullptr);
  bool ok = false;
  ue->attach(1, [&ok](Result<net::Ipv4Addr> r) { ok = r.ok(); });
  world.simulator().run_for(Duration::s(1));
  ASSERT_TRUE(ok);
  ASSERT_TRUE(ue->has_ticket());
  ue->detach();
  world.btelco(0)->crash();

  std::string error;
  TimePoint failed_at;
  const TimePoint started = world.simulator().now();
  ue->attach(1, [&](Result<net::Ipv4Addr> r) {
    if (!r.ok()) error = r.error();
    failed_at = world.simulator().now();
  });
  world.simulator().run_for(Duration::s(5));
  EXPECT_EQ(error, "attach timeout");
  EXPECT_EQ(failed_at - started, cfg.ue_config.attach_timeout);
  EXPECT_EQ(ue->attach_failures(), 1u);
  EXPECT_EQ(ue->resume_fallbacks(), 0u);
  EXPECT_EQ(ue->resumes_succeeded(), 0u);
  EXPECT_TRUE(ue->has_ticket());
  EXPECT_FALSE(ue->attached());
  EXPECT_FALSE(world.ran_map().site(1).radio_link->is_up());
}

// Regression: the broker logged every copy of a ResumeNotify it received,
// so one lost ResumeNotifyAck made it count one resume twice. The shard now
// answers a resent notify from its reply cache.
TEST(ResumeLifecycle, LostNotifyAckStillCountsOneResume) {
  WorldConfig cfg = resume_drive();
  cfg.broker_shards = 4;
  World world(cfg);
  // The cloud host is the hub in front of the shards: lose the first
  // ResumeNotifyAck on its way back to the bTelco.
  int dropped = 0;
  world.cloud_node()->set_forward_hook([&dropped](net::Packet& p) {
    if (dropped > 0 || p.payload.empty() ||
        p.payload[0] != static_cast<std::uint8_t>(cellbricks::BrokerMsg::ResumeNotifyAck)) {
      return false;
    }
    ++dropped;
    return true;
  });
  world.start();
  world.simulator().run_for(Duration::s(60));

  ASSERT_EQ(dropped, 1);
  const cellbricks::UeAgent* ue = world.ue_agent();
  std::uint64_t served = 0;
  for (std::size_t i = 0; i < world.n_btelcos(); ++i) served += world.btelco(i)->resumes_served();
  EXPECT_EQ(ue->resumes_succeeded(), 2u);
  EXPECT_EQ(served, ue->resumes_succeeded());
  EXPECT_EQ(world.broker_cluster()->resumes_notified(), ue->resumes_succeeded());
}

// The pure-layer half of the ticket matrix: replayed / expired / forged
// tickets fail closed before any session state is touched (the bTelco's
// single-use cache and revocation list are layered on top — see the
// negative-path tests in test_sap.cpp).
class ResumeTicketMatrix : public ::testing::Test {
 protected:
  ResumeTicketMatrix() : rng_(7) {}

  void SetUp() override {
    broker_keys_ = crypto::RsaKeyPair::generate(rng_, 512);
    stek_ = rng_.random_bytes(32);
    inner_.pseudonym = "pseud-1";
    inner_.session_id = 77;
    inner_.ss_resume = cellbricks::derive_resume_secret(rng_.random_bytes(32));
    inner_.ticket_id = rng_.random_bytes(cellbricks::kTicketIdSize);
    expiry_ = TimePoint::zero() + Duration::s(60);
    ticket_ = cellbricks::mint_resume_ticket(broker_keys_, stek_, inner_, expiry_, rng_);
  }

  Rng rng_;
  crypto::RsaKeyPair broker_keys_{};
  Bytes stek_;
  cellbricks::TicketInner inner_;
  TimePoint expiry_;
  Bytes ticket_;
};

TEST_F(ResumeTicketMatrix, ValidRequestGrantsAndConfirmRoundTrips) {
  Bytes nonce;
  const Bytes req =
      cellbricks::make_resume_request(ticket_, "telco-1", 3, inner_.ss_resume, rng_, &nonce);
  auto grant = cellbricks::verify_resume_request(req, "telco-1", broker_keys_.public_key(),
                                                 stek_, TimePoint::zero());
  ASSERT_TRUE(grant.ok()) << grant.error();
  EXPECT_EQ(grant.value().inner.pseudonym, inner_.pseudonym);
  EXPECT_EQ(grant.value().inner.session_id, inner_.session_id);
  EXPECT_EQ(grant.value().inner.ss_resume, inner_.ss_resume);
  EXPECT_EQ(grant.value().inner.ticket_id, inner_.ticket_id);
  EXPECT_EQ(grant.value().period_base, 3u);
  EXPECT_EQ(grant.value().nonce, nonce);

  const Bytes confirm = cellbricks::make_resume_confirm(grant.value(), rng_);
  auto opened = cellbricks::open_resume_confirm(confirm, inner_.ss_resume);
  ASSERT_TRUE(opened.ok()) << opened.error();
  EXPECT_EQ(opened.value().nonce, nonce);
  EXPECT_EQ(opened.value().session_id, inner_.session_id);
}

TEST_F(ResumeTicketMatrix, ReplayedTicketCarriesTheSameSingleUseHandle) {
  // The wire layer is stateless, so two requests from the same ticket both
  // verify — but they expose the identical ticket_id, which is exactly the
  // handle the bTelco's per-provider single-use cache keys on.
  const Bytes req1 =
      cellbricks::make_resume_request(ticket_, "telco-1", 0, inner_.ss_resume, rng_);
  const Bytes req2 =
      cellbricks::make_resume_request(ticket_, "telco-1", 1, inner_.ss_resume, rng_);
  auto g1 = cellbricks::verify_resume_request(req1, "telco-1", broker_keys_.public_key(), stek_,
                                              TimePoint::zero());
  auto g2 = cellbricks::verify_resume_request(req2, "telco-1", broker_keys_.public_key(), stek_,
                                              TimePoint::zero());
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1.value().inner.ticket_id, g2.value().inner.ticket_id);
}

TEST_F(ResumeTicketMatrix, ExpiredTicketRejected) {
  const Bytes req =
      cellbricks::make_resume_request(ticket_, "telco-1", 0, inner_.ss_resume, rng_);
  auto grant = cellbricks::verify_resume_request(req, "telco-1", broker_keys_.public_key(),
                                                 stek_, expiry_);  // now == expiry: stale
  ASSERT_FALSE(grant.ok());
  EXPECT_NE(grant.error().find("expired"), std::string::npos);
}

TEST_F(ResumeTicketMatrix, ForgedBrokerSignatureRejected) {
  auto attacker = crypto::RsaKeyPair::generate(rng_, 512);
  const Bytes forged = cellbricks::mint_resume_ticket(attacker, stek_, inner_, expiry_, rng_);
  const Bytes req =
      cellbricks::make_resume_request(forged, "telco-1", 0, inner_.ss_resume, rng_);
  auto grant = cellbricks::verify_resume_request(req, "telco-1", broker_keys_.public_key(),
                                                 stek_, TimePoint::zero());
  ASSERT_FALSE(grant.ok());
  EXPECT_NE(grant.error().find("signature"), std::string::npos);
}

TEST_F(ResumeTicketMatrix, StolenTicketWithoutResumeSecretRejected) {
  // A thief holds the ticket bytes but not ss_resume: the PoP MAC fails.
  const Bytes wrong_secret = rng_.random_bytes(32);
  const Bytes req = cellbricks::make_resume_request(ticket_, "telco-1", 0, wrong_secret, rng_);
  auto grant = cellbricks::verify_resume_request(req, "telco-1", broker_keys_.public_key(),
                                                 stek_, TimePoint::zero());
  ASSERT_FALSE(grant.ok());
  EXPECT_NE(grant.error().find("proof-of-possession"), std::string::npos);
}

TEST_F(ResumeTicketMatrix, RequestBoundToAnotherTelcoRejected) {
  const Bytes req =
      cellbricks::make_resume_request(ticket_, "telco-1", 0, inner_.ss_resume, rng_);
  auto grant = cellbricks::verify_resume_request(req, "telco-2", broker_keys_.public_key(),
                                                 stek_, TimePoint::zero());
  ASSERT_FALSE(grant.ok());
  EXPECT_NE(grant.error().find("another bTelco"), std::string::npos);
}

}  // namespace
}  // namespace cb
