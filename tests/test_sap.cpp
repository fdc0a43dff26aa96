// SAP protocol tests (pure logic, no network): the Fig.2/Fig.3 procedures,
// their security properties (replay, tampering, relay binding, IMSI
// privacy), QoS negotiation, and the security-context derivation.
#include <gtest/gtest.h>

#include "cellbricks/sap.hpp"
#include "cellbricks/ticket.hpp"

namespace cb::cellbricks {
namespace {

// Shared fixture: one CA, one broker, two bTelcos, two subscribers.
class SapTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBits = 512;

  SapTest() : rng_(42) {}

  void SetUp() override {
    ca_ = std::make_unique<crypto::CertificateAuthority>("root", rng_, kBits);
    const TimePoint forever = TimePoint::zero() + Duration::s(1'000'000);

    auto broker_keys = crypto::RsaKeyPair::generate(rng_, kBits);
    broker_cert_ = ca_->issue("broker", broker_keys.public_key(), TimePoint::zero(), forever);
    broker_pk_ = broker_keys.public_key();
    broker_ = std::make_unique<SapBroker>("broker", std::move(broker_keys), broker_cert_,
                                          ca_->public_key());

    auto t1_keys = crypto::RsaKeyPair::generate(rng_, kBits);
    auto t1_cert = ca_->issue("telco-1", t1_keys.public_key(), TimePoint::zero(), forever);
    telco1_ = std::make_unique<SapTelco>("telco-1", std::move(t1_keys), t1_cert,
                                         ca_->public_key());

    auto t2_keys = crypto::RsaKeyPair::generate(rng_, kBits);
    auto t2_cert = ca_->issue("telco-2", t2_keys.public_key(), TimePoint::zero(), forever);
    telco2_ = std::make_unique<SapTelco>("telco-2", std::move(t2_keys), t2_cert,
                                         ca_->public_key());

    auto ue_keys = crypto::RsaKeyPair::generate(rng_, kBits);
    broker_->add_subscriber("alice", ue_keys.public_key());
    ue_ = std::make_unique<SapUe>("alice", "broker", std::move(ue_keys), broker_pk_);
  }

  Result<BrokerDecision> broker_process(BytesView req_t) {
    return broker_->process_auth_req(req_t, TimePoint::zero(), rng_, QosInfo{},
                                     /*authorize=*/nullptr);
  }

  Rng rng_;
  std::unique_ptr<crypto::CertificateAuthority> ca_;
  crypto::Certificate broker_cert_;
  crypto::RsaPublicKey broker_pk_;
  std::unique_ptr<SapBroker> broker_;
  std::unique_ptr<SapTelco> telco1_;
  std::unique_ptr<SapTelco> telco2_;
  std::unique_ptr<SapUe> ue_;
};

TEST_F(SapTest, FullExchangeSucceeds) {
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  auto decision = broker_process(req_t);
  ASSERT_TRUE(decision.ok()) << decision.error();
  EXPECT_EQ(decision.value().id_u, "alice");
  EXPECT_EQ(decision.value().id_t, "telco-1");

  auto t_session = telco1_->process_auth_resp(decision.value().auth_resp_t, broker_cert_,
                                              TimePoint::zero());
  ASSERT_TRUE(t_session.ok()) << t_session.error();
  auto u_session = ue_->process_auth_resp(decision.value().auth_resp_u);
  ASSERT_TRUE(u_session.ok()) << u_session.error();

  // Both sides derived the SAME security context from ss (= K_ASME).
  EXPECT_EQ(t_session.value().security, u_session.value().security);
  EXPECT_EQ(t_session.value().session_id, u_session.value().session_id);
  EXPECT_EQ(u_session.value().id_t, "telco-1");
}

TEST_F(SapTest, TelcoNeverSeesSubscriberIdentity) {
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  // The cleartext request must not contain the subscriber id ("alice") —
  // the anti-IMSI-catcher property.
  const std::string as_str(req_u.begin(), req_u.end());
  EXPECT_EQ(as_str.find("alice"), std::string::npos);

  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  auto decision = broker_process(req_t);
  ASSERT_TRUE(decision.ok());
  // The bTelco-facing response carries only a pseudonym.
  auto t_session = telco1_->process_auth_resp(decision.value().auth_resp_t, broker_cert_,
                                              TimePoint::zero());
  ASSERT_TRUE(t_session.ok());
  EXPECT_EQ(t_session.value().ue_pseudonym.find("alice"), std::string::npos);
}

TEST_F(SapTest, ReplayedRequestRejected) {
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  ASSERT_TRUE(broker_process(req_t).ok());
  // Same nonce again: replay.
  auto replay = broker_process(req_t);
  EXPECT_FALSE(replay.ok());
  EXPECT_NE(replay.error().find("replay"), std::string::npos);
}

TEST_F(SapTest, RelayToDifferentTelcoRejected) {
  // The UE authorised telco-1; telco-2 relaying the same authReqU must fail
  // (the authVec binds idT).
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  const Bytes req_t = telco2_->make_auth_req_t(req_u, QosCap{});
  auto decision = broker_process(req_t);
  EXPECT_FALSE(decision.ok());
  EXPECT_NE(decision.error().find("mismatch"), std::string::npos);
}

TEST_F(SapTest, UnknownSubscriberRejected) {
  Rng other_rng(99);
  auto mallory_keys = crypto::RsaKeyPair::generate(other_rng, kBits);
  SapUe mallory("mallory", "broker", std::move(mallory_keys), broker_pk_);
  const Bytes req_u = mallory.make_auth_req("telco-1", other_rng);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  EXPECT_FALSE(broker_process(req_t).ok());
}

TEST_F(SapTest, StolenIdentityWrongKeyRejected) {
  // Mallory claims to be alice but signs with her own key.
  Rng other_rng(100);
  auto mallory_keys = crypto::RsaKeyPair::generate(other_rng, kBits);
  SapUe impostor("alice", "broker", std::move(mallory_keys), broker_pk_);
  const Bytes req_u = impostor.make_auth_req("telco-1", other_rng);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  auto decision = broker_process(req_t);
  EXPECT_FALSE(decision.ok());
  EXPECT_NE(decision.error().find("signature"), std::string::npos);
}

TEST_F(SapTest, UncertifiedTelcoRejected) {
  // A bTelco whose certificate was signed by a different CA.
  Rng other_rng(101);
  crypto::CertificateAuthority rogue_ca("rogue", other_rng, kBits);
  auto keys = crypto::RsaKeyPair::generate(other_rng, kBits);
  auto cert = rogue_ca.issue("telco-evil", keys.public_key(), TimePoint::zero(),
                             TimePoint::zero() + Duration::s(1000));
  SapTelco evil("telco-evil", std::move(keys), cert, rogue_ca.public_key());

  const Bytes req_u = ue_->make_auth_req("telco-evil", rng_);
  const Bytes req_t = evil.make_auth_req_t(req_u, QosCap{});
  auto decision = broker_process(req_t);
  EXPECT_FALSE(decision.ok());
  EXPECT_NE(decision.error().find("certificate"), std::string::npos);
}

TEST_F(SapTest, TelcoCertificateKeyWithModulusOneRejected) {
  // The broker parses the bTelco's certificate before it checks any
  // signature, so any sender of an authReqT controls this key. A modulus of
  // 1 once threw out of the parser and aborted the run.
  ByteWriter key;
  key.bytes(from_hex("01"));
  key.bytes(from_hex("010001"));
  ByteWriter tbs;
  tbs.str("telco-1");
  tbs.bytes(key.data());
  tbs.str("root");
  tbs.u64(0);
  tbs.u64(static_cast<std::uint64_t>(Duration::s(1000).nanos()));
  ByteWriter cert;
  cert.bytes(tbs.data());
  cert.bytes({});

  ByteWriter body;
  body.bytes(ue_->make_auth_req("telco-1", rng_));
  body.str("telco-1");
  QosCap{}.serialize(body);
  body.bytes(cert.data());
  ByteWriter req_t;
  req_t.bytes(body.data());
  req_t.bytes({});
  auto decision = broker_process(req_t.data());
  ASSERT_FALSE(decision.ok());
  EXPECT_NE(decision.error().find("cert"), std::string::npos) << decision.error();
}

TEST_F(SapTest, TamperedRequestRejected) {
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  for (std::size_t offset : {req_t.size() / 4, req_t.size() / 2, req_t.size() - 1}) {
    Bytes bad = req_t;
    bad[offset] ^= 0x01;
    EXPECT_FALSE(broker_process(bad).ok()) << "offset " << offset;
  }
}

TEST_F(SapTest, AuthorizationPolicyHookDenies) {
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  auto decision = broker_->process_auth_req(
      req_t, TimePoint::zero(), rng_, QosInfo{},
      [](const std::string&, const std::string&) { return false; });
  EXPECT_FALSE(decision.ok());
  EXPECT_NE(decision.error().find("denied"), std::string::npos);
}

TEST_F(SapTest, ResponseForOtherTelcoRejected) {
  // telco-2 must not be able to use telco-1's authorization.
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  auto decision = broker_process(req_t);
  ASSERT_TRUE(decision.ok());
  auto hijack = telco2_->process_auth_resp(decision.value().auth_resp_t, broker_cert_,
                                           TimePoint::zero());
  EXPECT_FALSE(hijack.ok());
}

TEST_F(SapTest, UeRejectsTamperedResponse) {
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  auto decision = broker_process(req_t);
  ASSERT_TRUE(decision.ok());
  Bytes bad = decision.value().auth_resp_u;
  bad[bad.size() / 2] ^= 1;
  EXPECT_FALSE(ue_->process_auth_resp(bad).ok());
}

TEST_F(SapTest, UeRejectsReplayedResponse) {
  const Bytes req1 = ue_->make_auth_req("telco-1", rng_);
  auto d1 = broker_process(telco1_->make_auth_req_t(req1, QosCap{}));
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(ue_->process_auth_resp(d1.value().auth_resp_u).ok());

  // New attach (new nonce) — the old response must not be accepted.
  (void)ue_->make_auth_req("telco-1", rng_);
  auto replay = ue_->process_auth_resp(d1.value().auth_resp_u);
  EXPECT_FALSE(replay.ok());
}

TEST_F(SapTest, QosNegotiationClampsToCapability) {
  QosCap cap;
  cap.max_dl_bps = 5e6;
  cap.max_ul_bps = 1e6;
  QosInfo desired;
  desired.dl_bps = 20e6;
  desired.ul_bps = 0.5e6;
  const QosInfo out = QosInfo::negotiate(desired, cap);
  EXPECT_DOUBLE_EQ(out.dl_bps, 5e6);
  EXPECT_DOUBLE_EQ(out.ul_bps, 0.5e6);

  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, cap);
  auto decision = broker_->process_auth_req(req_t, TimePoint::zero(), rng_, desired, nullptr);
  ASSERT_TRUE(decision.ok());
  EXPECT_DOUBLE_EQ(decision.value().qos.dl_bps, 5e6);
  auto t_session = telco1_->process_auth_resp(decision.value().auth_resp_t, broker_cert_,
                                              TimePoint::zero());
  ASSERT_TRUE(t_session.ok());
  EXPECT_DOUBLE_EQ(t_session.value().qos.dl_bps, 5e6);
}

TEST_F(SapTest, SecurityContextDerivationIsDeterministicAndSeparated) {
  const Bytes ss(32, 0x11);
  const SecurityContext a = SecurityContext::derive(ss);
  const SecurityContext b = SecurityContext::derive(ss);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.k_nas_enc, a.k_nas_int);
  EXPECT_NE(a.k_nas_enc, a.k_as);
  const SecurityContext c = SecurityContext::derive(Bytes(32, 0x12));
  EXPECT_NE(a.k_nas_enc, c.k_nas_enc);
}

TEST_F(SapTest, RevokedSubscriberRejected) {
  broker_->remove_subscriber("alice");
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  const Bytes req_t = telco1_->make_auth_req_t(req_u, QosCap{});
  EXPECT_FALSE(broker_process(req_t).ok());
}

TEST_F(SapTest, SessionKeysDifferAcrossAttachments) {
  auto run = [&] {
    const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
    auto d = broker_process(telco1_->make_auth_req_t(req_u, QosCap{}));
    EXPECT_TRUE(d.ok());
    return d.value().ss;
  };
  EXPECT_NE(run(), run());
}

// --- Resumption tickets: negative paths fail closed ------------------------
//
// The broker's reputation engine keys on these verdict strings, so each
// rejection must be byte-deterministic, never a partial grant.

TEST_F(SapTest, ResumeEnabledBrokerMintsAVerifiableTicket) {
  const Bytes stek = rng_.random_bytes(32);
  broker_->enable_resume(stek, Duration::s(60));
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  auto decision = broker_process(telco1_->make_auth_req_t(req_u, QosCap{}));
  ASSERT_TRUE(decision.ok()) << decision.error();
  auto session = ue_->process_auth_resp(decision.value().auth_resp_u);
  ASSERT_TRUE(session.ok()) << session.error();
  ASSERT_FALSE(session.value().ticket.empty());

  // The UE derives ss_resume from ss (= kasme); a federated bTelco verifies
  // the whole request locally and learns only the pseudonym.
  const Bytes ss_resume = derive_resume_secret(session.value().security.kasme);
  const Bytes req =
      make_resume_request(session.value().ticket, "telco-2", 1, ss_resume, rng_);
  auto grant = verify_resume_request(req, "telco-2", broker_pk_, stek, TimePoint::zero());
  ASSERT_TRUE(grant.ok()) << grant.error();
  EXPECT_EQ(grant.value().inner.session_id, session.value().session_id);
  EXPECT_EQ(grant.value().inner.pseudonym.find("alice"), std::string::npos);
}

TEST_F(SapTest, TamperedTicketSignatureFailsClosedDeterministically) {
  const Bytes stek = rng_.random_bytes(32);
  broker_->enable_resume(stek, Duration::s(60));
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  auto decision = broker_process(telco1_->make_auth_req_t(req_u, QosCap{}));
  ASSERT_TRUE(decision.ok());
  auto session = ue_->process_auth_resp(decision.value().auth_resp_u);
  ASSERT_TRUE(session.ok());
  const Bytes ss_resume = derive_resume_secret(session.value().security.kasme);

  // Flip one bit anywhere in the ticket — sealed blob, expiry, or the
  // trailing broker signature — and the verdict is the same exact string.
  const Bytes& ticket = session.value().ticket;
  for (std::size_t i : {std::size_t{4}, ticket.size() / 2, ticket.size() - 1}) {
    Bytes tampered = ticket;
    tampered[i] ^= 0x01;
    const Bytes req = make_resume_request(tampered, "telco-2", 0, ss_resume, rng_);
    auto grant = verify_resume_request(req, "telco-2", broker_pk_, stek, TimePoint::zero());
    ASSERT_FALSE(grant.ok()) << "byte " << i;
    EXPECT_EQ(grant.error(), "resume: ticket: broker signature invalid") << "byte " << i;
  }
}

TEST_F(SapTest, WrongStekFailsClosedWithoutLeakingContents) {
  const Bytes stek = rng_.random_bytes(32);
  broker_->enable_resume(stek, Duration::s(60));
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  auto decision = broker_process(telco1_->make_auth_req_t(req_u, QosCap{}));
  ASSERT_TRUE(decision.ok());
  auto session = ue_->process_auth_resp(decision.value().auth_resp_u);
  ASSERT_TRUE(session.ok());
  const Bytes ss_resume = derive_resume_secret(session.value().security.kasme);
  const Bytes req =
      make_resume_request(session.value().ticket, "telco-2", 0, ss_resume, rng_);
  // A bTelco outside the federation (different STEK) cannot honour — or
  // read — the ticket, even though the broker signature checks out.
  const Bytes other_stek = rng_.random_bytes(32);
  auto grant = verify_resume_request(req, "telco-2", broker_pk_, other_stek, TimePoint::zero());
  ASSERT_FALSE(grant.ok());
  EXPECT_NE(grant.error().find("STEK seal invalid"), std::string::npos);
}

TEST_F(SapTest, ClockSkewedTicketExpiryFailsClosedAtTheBoundary) {
  Rng rng(55);
  const auto broker_keys = crypto::RsaKeyPair::generate(rng, kBits);
  const Bytes stek = rng.random_bytes(32);
  TicketInner inner;
  inner.pseudonym = "pseud-9";
  inner.session_id = 9;
  inner.ss_resume = derive_resume_secret(rng.random_bytes(32));
  inner.ticket_id = rng.random_bytes(kTicketIdSize);
  const TimePoint expiry = TimePoint::zero() + Duration::s(30);
  const Bytes ticket = mint_resume_ticket(broker_keys, stek, inner, expiry, rng);

  // One nanosecond before expiry: honoured. At and past expiry (a bTelco
  // whose clock has drifted forward must still reject): fail closed.
  const TimePoint just_before = expiry - Duration::ns(1);
  EXPECT_TRUE(open_ticket(ticket, broker_keys.public_key(), stek, just_before).ok());
  for (const TimePoint now : {expiry, expiry + Duration::s(10)}) {
    auto opened = open_ticket(ticket, broker_keys.public_key(), stek, now);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error(), "ticket: expired");
  }
}

TEST_F(SapTest, StaleBrokerCertificateRejectedByTelco) {
  const Bytes req_u = ue_->make_auth_req("telco-1", rng_);
  auto decision = broker_process(telco1_->make_auth_req_t(req_u, QosCap{}));
  ASSERT_TRUE(decision.ok());
  // The broker certificate lapsed between issuance and the bTelco's check:
  // the response is discarded, no session is installed.
  const TimePoint past_validity = TimePoint::zero() + Duration::s(2'000'000);
  auto session =
      telco1_->process_auth_resp(decision.value().auth_resp_t, broker_cert_, past_validity);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.error(), "authRespT: broker certificate expired");
}

TEST_F(SapTest, StaleTelcoCertificateRejectedByBroker) {
  // A bTelco presenting a lapsed certificate is refused service — the
  // deterministic verdict the broker's reputation engine records.
  auto t3_keys = crypto::RsaKeyPair::generate(rng_, kBits);
  const TimePoint lapses = TimePoint::zero() + Duration::s(5);
  auto t3_cert = ca_->issue("telco-3", t3_keys.public_key(), TimePoint::zero(), lapses);
  SapTelco telco3("telco-3", std::move(t3_keys), t3_cert, ca_->public_key());

  const Bytes req_u = ue_->make_auth_req("telco-3", rng_);
  const Bytes req_t = telco3.make_auth_req_t(req_u, QosCap{});
  auto decision = broker_->process_auth_req(req_t, lapses + Duration::s(1), rng_, QosInfo{},
                                            /*authorize=*/nullptr);
  ASSERT_FALSE(decision.ok());
  EXPECT_EQ(decision.error(), "authReqT: bTelco certificate expired");
}

}  // namespace
}  // namespace cb::cellbricks
