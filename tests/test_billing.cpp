// Billing & reputation tests (pure logic): report serialization, the Fig.5
// discrepancy heuristic, score evolution, and the suspect-list policy.
#include <gtest/gtest.h>

#include "cellbricks/billing.hpp"
#include "cellbricks/reputation.hpp"

namespace cb::cellbricks {
namespace {

TrafficReport make_report(Reporter who, std::uint64_t dl, double loss = 0.0,
                          std::uint32_t period = 0) {
  TrafficReport r;
  r.session_id = 77;
  r.reporter = who;
  r.period = period;
  r.dl_bytes = dl;
  r.ul_bytes = dl / 10;
  r.dl_loss_rate = loss;
  r.duration_ms = 10'000;
  return r;
}

TEST(TrafficReport, SerializationRoundTrip) {
  TrafficReport r = make_report(Reporter::Telco, 123456, 0.015, 3);
  r.avg_dl_bps = 98765.4;
  r.avg_delay_ms = 23.5;
  auto parsed = TrafficReport::deserialize(r.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().session_id, 77u);
  EXPECT_EQ(parsed.value().reporter, Reporter::Telco);
  EXPECT_EQ(parsed.value().period, 3u);
  EXPECT_EQ(parsed.value().dl_bytes, 123456u);
  EXPECT_DOUBLE_EQ(parsed.value().dl_loss_rate, 0.015);
  EXPECT_DOUBLE_EQ(parsed.value().avg_dl_bps, 98765.4);
  EXPECT_DOUBLE_EQ(parsed.value().avg_delay_ms, 23.5);
}

TEST(TrafficReport, TruncatedRejected) {
  const Bytes wire = make_report(Reporter::Ue, 100).serialize();
  EXPECT_FALSE(TrafficReport::deserialize(BytesView(wire.data(), wire.size() / 2)).ok());
}

TEST(Fig5Heuristic, HonestPairWithinThreshold) {
  ReputationSystem rep;
  // bTelco saw 1 MB pre-radio; UE saw 0.99 MB with 1% measured loss.
  const auto v = rep.compare(make_report(Reporter::Ue, 990'000, 0.01),
                             make_report(Reporter::Telco, 1'000'000));
  EXPECT_FALSE(v.mismatch);
}

TEST(Fig5Heuristic, InflationBeyondLossFlagged) {
  ReputationSystem rep;
  // bTelco claims 1.5 MB while the UE received 1.0 MB with 1% loss:
  // threshold = (0.01 + 0.02) * 1 MB = 30 KB << 500 KB delta.
  const auto v = rep.compare(make_report(Reporter::Ue, 1'000'000, 0.01),
                             make_report(Reporter::Telco, 1'500'000));
  EXPECT_TRUE(v.mismatch);
  EXPECT_GT(v.degree, 0.3);
  EXPECT_EQ(v.delta, 500'000);
}

TEST(Fig5Heuristic, HighLossWidensTolerance) {
  ReputationSystem rep;
  // 20% radio loss: the bTelco legitimately counts ~25% more than the UE.
  const auto v = rep.compare(make_report(Reporter::Ue, 800'000, 0.20),
                             make_report(Reporter::Telco, 1'000'000));
  EXPECT_FALSE(v.mismatch);
}

TEST(Fig5Heuristic, UndercountingUeAlsoFlagged) {
  ReputationSystem rep;
  const auto v = rep.compare(make_report(Reporter::Ue, 400'000, 0.0),
                             make_report(Reporter::Telco, 1'000'000));
  EXPECT_TRUE(v.mismatch);
}

TEST(Reputation, ScoreDecaysWithMismatches) {
  ReputationSystem rep;
  EXPECT_DOUBLE_EQ(rep.telco_score("t"), 1.0);
  PairVerdict bad;
  bad.mismatch = true;
  bad.degree = 0.5;
  double prev = 1.0;
  for (int i = 0; i < 5; ++i) {
    rep.record("u", "t", bad);
    EXPECT_LT(rep.telco_score("t"), prev);
    prev = rep.telco_score("t");
  }
  EXPECT_EQ(rep.mismatches("t"), 5u);
}

TEST(Reputation, CleanPairsRecoverSlowly) {
  ReputationSystem rep;
  PairVerdict bad;
  bad.mismatch = true;
  bad.degree = 0.2;
  rep.record("u", "t", bad);
  const double after_bad = rep.telco_score("t");
  PairVerdict good;
  for (int i = 0; i < 10; ++i) rep.record("u", "t", good);
  EXPECT_GT(rep.telco_score("t"), after_bad);
  EXPECT_LE(rep.telco_score("t"), 1.0);
}

TEST(Reputation, AuthorizationThreshold) {
  ReputationConfig cfg;
  ReputationSystem rep(cfg);
  EXPECT_TRUE(rep.authorize("u", "t"));
  PairVerdict bad;
  bad.mismatch = true;
  bad.degree = 1.0;
  // Each full-degree mismatch adds 1.0 weighted: score 1/(1+k).
  rep.record("u1", "t", bad);
  EXPECT_TRUE(rep.authorize("u", "t"));  // 0.5 — still at threshold
  rep.record("u1", "t", bad);
  EXPECT_FALSE(rep.authorize("u", "t"));  // 0.33 < 0.5
}

TEST(Reputation, UserSuspectedAfterMismatchesWithManyTelcos) {
  ReputationSystem rep;  // kSuspectDistinctTelcos = 2
  PairVerdict bad;
  bad.mismatch = true;
  bad.degree = 0.5;
  rep.record("mallory", "t1", bad);
  EXPECT_FALSE(rep.is_suspect("mallory"));
  rep.record("mallory", "t1", bad);  // same telco again: still 1 distinct
  EXPECT_FALSE(rep.is_suspect("mallory"));
  rep.record("mallory", "t2", bad);  // second distinct telco: suspect
  EXPECT_TRUE(rep.is_suspect("mallory"));
  EXPECT_FALSE(rep.authorize("mallory", "t-any"));
  // Honest users are unaffected.
  EXPECT_FALSE(rep.is_suspect("alice"));
}

TEST(Reputation, DegreeWeighting) {
  // A large fraud should hurt more than a marginal one.
  ReputationSystem big, small;
  PairVerdict large;
  large.mismatch = true;
  large.degree = 1.0;
  PairVerdict marginal;
  marginal.mismatch = true;
  marginal.degree = 0.05;
  big.record("u", "t", large);
  small.record("u", "t", marginal);
  EXPECT_LT(big.telco_score("t"), small.telco_score("t"));
}

}  // namespace
}  // namespace cb::cellbricks
