// QoS-discrepancy unit tests: the Fig.5 report-comparison threshold.
//
// The broker tolerates |dl_T - dl_U| up to (l/(1-l) + epsilon) * dl_U + MTU,
// where l is the DL loss rate the UE measured: with loss rate l over SENT
// bytes, dl_T*(1-l) = dl_U, so l/(1-l)*dl_U is exactly the legitimately
// lost traffic, epsilon is the fixed slack ratio, and one MTU absorbs the
// packet in flight at the period boundary. These tests pin the boundary
// semantics: strictly-greater trips, exactly-at passes, the loss term is
// derived (not a flat allowance), l is clamped, and a zero-traffic pair is
// governed by the MTU constant alone.
#include <gtest/gtest.h>

#include "cellbricks/reputation.hpp"

namespace cb::cellbricks {
namespace {

TrafficReport report(std::uint64_t dl_bytes, double dl_loss = 0.0) {
  TrafficReport r;
  r.session_id = 1;
  r.period = 0;
  r.dl_bytes = dl_bytes;
  r.dl_loss_rate = dl_loss;
  return r;
}

TEST(QosThreshold, ZeroTrafficPairIsGovernedByMtuSlackOnly) {
  const ReputationSystem rep;
  // Both sides idle: threshold degenerates to the +1500 MTU term.
  const PairVerdict same = rep.compare(report(0), report(0));
  EXPECT_FALSE(same.mismatch);
  EXPECT_DOUBLE_EQ(same.threshold, 1500.0);
  EXPECT_EQ(same.delta, 0);
  // One stray MTU of unseen traffic is tolerated; a byte past it is not.
  EXPECT_FALSE(rep.compare(report(0), report(1500)).mismatch);
  EXPECT_TRUE(rep.compare(report(0), report(1501)).mismatch);
}

TEST(QosThreshold, ExactlyAtThresholdPassesOneBytePastTrips) {
  // dl_U = 51200 makes the threshold exact at epsilon = 0.02:
  // 0.02 * 51200 + 1500 = 2524 bytes of tolerated discrepancy.
  ASSERT_EQ(ReputationSystem::kEpsilon, 0.02);
  const ReputationSystem rep;
  const PairVerdict at = rep.compare(report(51200), report(51200 + 2524));
  EXPECT_EQ(at.threshold, 2524.0);
  EXPECT_EQ(at.delta, 2524);
  EXPECT_FALSE(at.mismatch) << "excess must be STRICTLY positive to trip";
  EXPECT_DOUBLE_EQ(at.degree, 0.0);

  const PairVerdict past = rep.compare(report(51200), report(51200 + 2525));
  EXPECT_TRUE(past.mismatch);
  EXPECT_GT(past.degree, 0.0);
}

TEST(QosThreshold, LossDerivedTermCoversExactlyTheLostBytes) {
  // l = 0.2 over sent bytes: the bTelco sent 100000, the UE saw 80000 —
  // the 20000-byte delta is fully explained by loss, so the pair is clean
  // even though it dwarfs epsilon * dl_U.
  const ReputationSystem rep;
  const PairVerdict v = rep.compare(report(80000, 0.2), report(100000));
  EXPECT_FALSE(v.mismatch);
  // threshold = (0.25 + 0.02) * 80000 + 1500
  EXPECT_NEAR(v.threshold, 23100.0, 1e-6);
  EXPECT_EQ(v.delta, 20000);
  // The same delta WITHOUT the measured loss is way past tolerance.
  EXPECT_TRUE(rep.compare(report(80000, 0.0), report(100000)).mismatch);
}

TEST(QosThreshold, LossRateIsClampedAtNinetyFivePercent) {
  // A (dishonest or broken) UE reporting l ~ 1.0 must not push the
  // threshold to infinity: l clamps to 0.95, i.e. factor l/(1-l) = 19.
  const ReputationSystem rep;
  const PairVerdict v = rep.compare(report(1000, 0.999), report(1000));
  EXPECT_NEAR(v.threshold, (19.0 + ReputationSystem::kEpsilon) * 1000.0 + 1500.0, 1e-6);
  // Negative loss input clamps to zero rather than shrinking the MTU term.
  const PairVerdict neg = rep.compare(report(1000, -0.5), report(1000));
  EXPECT_NEAR(neg.threshold, ReputationSystem::kEpsilon * 1000.0 + 1500.0, 1e-6);
}

TEST(QosThreshold, UnderReportingTripsSymmetrically) {
  // The comparison is two-sided: a bTelco reporting LESS than the UE saw
  // (understating usage to undercut peers) trips exactly like overstating.
  const ReputationSystem rep;
  const PairVerdict v = rep.compare(report(100000), report(50000));
  EXPECT_TRUE(v.mismatch);
  EXPECT_EQ(v.delta, -50000);
  EXPECT_GT(v.degree, 0.0);
}

TEST(QosThreshold, DegreeNormalizesByUeBytesAndCapsAtOne) {
  const ReputationSystem rep;
  // Excess of ~8500 over dl_U = 10000: degree ~ 0.85.
  const PairVerdict mid = rep.compare(report(10000), report(20200));
  ASSERT_TRUE(mid.mismatch);
  EXPECT_NEAR(mid.degree, (10200.0 - mid.threshold) / 10000.0, 1e-9);
  // Wildly divergent reports cap at 1.0 (one incident, bounded weight).
  const PairVerdict wild = rep.compare(report(10000), report(10000000));
  ASSERT_TRUE(wild.mismatch);
  EXPECT_DOUBLE_EQ(wild.degree, 1.0);
}

}  // namespace
}  // namespace cb::cellbricks
