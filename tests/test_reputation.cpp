// Direct unit tests for the reputation system (§4.3, Fig.5): pair
// comparison thresholds, verdict accumulation and score decay/recovery,
// the missing-counterpart path, and the attachment-authorization policy.
#include <gtest/gtest.h>

#include "cellbricks/reputation.hpp"

namespace {

using namespace cb::cellbricks;

TrafficReport ue_report(std::uint64_t dl_bytes, double dl_loss = 0.0) {
  TrafficReport r;
  r.reporter = Reporter::Ue;
  r.dl_bytes = dl_bytes;
  r.dl_loss_rate = dl_loss;
  return r;
}

TrafficReport telco_report(std::uint64_t dl_bytes) {
  TrafficReport r;
  r.reporter = Reporter::Telco;
  r.dl_bytes = dl_bytes;
  return r;
}

// --- compare(): the Fig.5 threshold ------------------------------------

TEST(ReputationCompare, AgreementWithinEpsilonIsClean) {
  ReputationSystem rep;
  // No loss: threshold = eps * dl_u + 1 MTU. A delta inside it is clean.
  const PairVerdict v = rep.compare(ue_report(1'000'000), telco_report(1'010'000));
  EXPECT_FALSE(v.mismatch);
  EXPECT_EQ(v.delta, 10'000);
  EXPECT_NEAR(v.threshold, 0.02 * 1'000'000 + 1500.0, 1e-6);
}

TEST(ReputationCompare, LinkLossSlackToleratesLegitimateOverReporting) {
  ReputationSystem rep;
  // The bTelco counts DL before the radio, so with 20% loss it legitimately
  // sees dl_u / (1 - l) bytes; that delta must not be flagged.
  const std::uint64_t dl_u = 8'000'000;
  const auto dl_t = static_cast<std::uint64_t>(dl_u / 0.8);
  const PairVerdict v = rep.compare(ue_report(dl_u, 0.20), telco_report(dl_t));
  EXPECT_FALSE(v.mismatch);

  // The same delta with no loss reported is well past the threshold.
  const PairVerdict cheat = rep.compare(ue_report(dl_u, 0.0), telco_report(dl_t));
  EXPECT_TRUE(cheat.mismatch);
  EXPECT_GT(cheat.degree, 0.0);
  EXPECT_LE(cheat.degree, 1.0);
}

TEST(ReputationCompare, DegreeScalesWithExcess) {
  ReputationSystem rep;
  const PairVerdict small = rep.compare(ue_report(1'000'000), telco_report(1'100'000));
  const PairVerdict large = rep.compare(ue_report(1'000'000), telco_report(3'000'000));
  ASSERT_TRUE(small.mismatch);
  ASSERT_TRUE(large.mismatch);
  EXPECT_LT(small.degree, large.degree);
  EXPECT_DOUBLE_EQ(large.degree, 1.0);  // capped
}

TEST(ReputationCompare, UnderReportingTelcoIsAlsoFlagged) {
  ReputationSystem rep;
  // |delta| is compared, so a bTelco reporting far fewer bytes than the UE
  // saw (impossible physically, suspicious either way) still mismatches.
  const PairVerdict v = rep.compare(ue_report(5'000'000), telco_report(1'000'000));
  EXPECT_TRUE(v.mismatch);
  EXPECT_LT(v.delta, 0);
}

// --- record(): accumulation, floor, decay ------------------------------

TEST(ReputationRecord, ScoresDecayWithMismatchesAndFloorApplies) {
  ReputationSystem rep;
  EXPECT_DOUBLE_EQ(rep.telco_score("t1"), 1.0);  // unknown = pristine

  // A barely-over-threshold verdict still costs the 0.1 incident floor.
  PairVerdict tiny;
  tiny.mismatch = true;
  tiny.degree = 0.001;
  rep.record("u1", "t1", tiny);
  EXPECT_DOUBLE_EQ(rep.telco_score("t1"), 1.0 / 1.1);
  EXPECT_EQ(rep.mismatches("t1"), 1u);

  // Full-degree incidents drive the score toward 0: 1 / (1 + sum(w)).
  PairVerdict gross;
  gross.mismatch = true;
  gross.degree = 1.0;
  rep.record("u1", "t1", gross);
  rep.record("u1", "t1", gross);
  EXPECT_DOUBLE_EQ(rep.telco_score("t1"), 1.0 / 3.1);
  EXPECT_EQ(rep.mismatches("t1"), 3u);
}

TEST(ReputationRecord, CleanPairsRecoverScoreButNeverPastOne) {
  ReputationSystem rep;

  PairVerdict bad;
  bad.mismatch = true;
  bad.degree = 0.1;
  rep.record("u1", "t1", bad);  // weighted = 0.1
  const double hurt = rep.telco_score("t1");
  EXPECT_LT(hurt, 1.0);

  PairVerdict clean;  // mismatch = false
  rep.record("u1", "t1", clean);
  EXPECT_GT(rep.telco_score("t1"), hurt);
  // One clean pair takes one recovery step: 0.1 -> 0.09.
  EXPECT_DOUBLE_EQ(rep.telco_score("t1"),
                   1.0 / (1.0 + 0.1 - ReputationSystem::kRecoveryPerCleanPair));
  // Nine more steps clear the 0.1 (up to rounding); two more push past it.
  for (int i = 0; i < 11; ++i) rep.record("u1", "t1", clean);
  // Recovery saturates at a pristine score; weighted never goes negative.
  EXPECT_DOUBLE_EQ(rep.telco_score("t1"), 1.0);
}

// --- record_missing(): the unpaired-report path ------------------------

TEST(ReputationMissing, MissingTelcoReportIsMildUnreliabilityPenalty) {
  ReputationSystem rep;
  rep.record_missing("u1", "t1", Reporter::Telco);
  EXPECT_EQ(rep.missing_reports("t1"), 1u);
  EXPECT_DOUBLE_EQ(rep.telco_score("t1"), 1.0 / 1.05);
  // Far milder than one mismatch incident (floor 0.1), and not a mismatch.
  EXPECT_EQ(rep.mismatches("t1"), 0u);

  // Repeated unreliability still accumulates enough to fail authorization.
  for (int i = 0; i < 25; ++i) rep.record_missing("u1", "t1", Reporter::Telco);
  EXPECT_LT(rep.telco_score("t1"), 0.5);
  EXPECT_FALSE(rep.authorize("u1", "t1"));
}

TEST(ReputationMissing, MissingUeReportIsCountedButNotTamperingEvidence) {
  ReputationSystem rep;
  rep.record_missing("u1", "t1", Reporter::Ue);
  rep.record_missing("u1", "t2", Reporter::Ue);
  rep.record_missing("u1", "t3", Reporter::Ue);
  EXPECT_EQ(rep.missing_reports("u1"), 3u);
  // A vanished UE (dead battery, coverage hole) is not a suspect, and its
  // bTelcos' scores are untouched.
  EXPECT_FALSE(rep.is_suspect("u1"));
  EXPECT_DOUBLE_EQ(rep.telco_score("t1"), 1.0);
  EXPECT_TRUE(rep.authorize("u1", "t1"));
}

// --- authorize(): policy over scores and suspects ----------------------

TEST(ReputationAuthorize, LowScoringTelcoIsRefused) {
  ReputationSystem rep;
  PairVerdict gross;
  gross.mismatch = true;
  gross.degree = 1.0;
  rep.record("u1", "t1", gross);
  // weighted = 1.0 -> score exactly 0.5: still authorized (>= threshold).
  EXPECT_DOUBLE_EQ(rep.telco_score("t1"), 0.5);
  EXPECT_TRUE(rep.authorize("u2", "t1"));
  rep.record("u1", "t1", gross);
  EXPECT_LT(rep.telco_score("t1"), 0.5);
  EXPECT_FALSE(rep.authorize("u2", "t1"));
  // Other bTelcos are unaffected.
  EXPECT_TRUE(rep.authorize("u2", "t2"));
}

TEST(ReputationAuthorize, CrossTelcoMismatchesMakeUserSuspect) {
  ReputationSystem rep;
  PairVerdict bad;
  bad.mismatch = true;
  bad.degree = 0.2;

  // Disagreeing with one bTelco, however often, blames the bTelco.
  rep.record("u1", "t1", bad);
  rep.record("u1", "t1", bad);
  rep.record("u1", "t1", bad);
  EXPECT_FALSE(rep.is_suspect("u1"));

  // Disagreeing with a second independent bTelco flips the blame.
  rep.record("u1", "t2", bad);
  EXPECT_TRUE(rep.is_suspect("u1"));
  // Suspects are refused everywhere, even at pristine bTelcos.
  EXPECT_FALSE(rep.authorize("u1", "t3"));
  EXPECT_DOUBLE_EQ(rep.telco_score("t3"), 1.0);
  // Other users are unaffected.
  EXPECT_TRUE(rep.authorize("u2", "t3"));
}

}  // namespace
