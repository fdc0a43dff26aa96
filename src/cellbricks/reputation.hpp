// Reputation system (§4.3, Fig.5) — the component the paper's prototype
// defers ("We defer its implementation ... to future work"); implemented
// here in full as a design extension.
//
// The broker maintains a per-bTelco aggregate score and a suspect list of
// its own users. Scores derive from report mismatches, weighted by degree:
// honest parties stay near 1.0; persistent over-reporters decay toward 0
// and eventually fail the attachment-authorization policy.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cellbricks/billing.hpp"

namespace cb::cellbricks {

/// Result of comparing one aligned (UE, bTelco) report pair.
struct PairVerdict {
  bool mismatch = false;
  double degree = 0.0;      // how far beyond the threshold, normalized
  double threshold = 0.0;   // bytes of tolerated discrepancy
  std::int64_t delta = 0;   // T-reported minus U-reported DL bytes
};

class ReputationSystem {
 public:
  /// Authorization threshold: bTelcos below this are refused.
  static constexpr double kMinTelcoScore = 0.5;
  /// A user mismatching against at least this many distinct bTelcos is
  /// suspected of tampering with its device.
  static constexpr int kSuspectDistinctTelcos = 2;
  /// Penalty folded into a bTelco's score when its report for a period never
  /// arrived (the broker's unpaired-report timeout). Much milder than a
  /// billing mismatch: losing reports is unreliability, not dishonesty.
  static constexpr double kMissingReportPenalty = 0.05;
  /// Fixed tolerance ratio epsilon from Fig.5 (acceptable link-loss slack).
  static constexpr double kEpsilon = 0.02;
  /// Mild score recovery per clean (matching) report pair.
  static constexpr double kRecoveryPerCleanPair = 0.01;

  /// Fig.5: compare aligned reports; threshold = (loss_U + eps) * dl_U.
  PairVerdict compare(const TrafficReport& from_ue, const TrafficReport& from_telco) const;

  /// Fold a verdict for (id_u, id_t) into the scores.
  void record(const std::string& id_u, const std::string& id_t, const PairVerdict& verdict);

  /// Fold a "missing counterpart" verdict: one side's report for an aligned
  /// period never reached the broker before the pairing timeout. `missing`
  /// names the side whose report is absent.
  void record_missing(const std::string& id_u, const std::string& id_t, Reporter missing);

  /// Per-bTelco aggregate score in (0, 1]; unknown bTelcos start at 1.0.
  double telco_score(const std::string& id_t) const;
  /// Attachment authorization policy for the broker.
  bool authorize(const std::string& id_u, const std::string& id_t) const;
  bool is_suspect(const std::string& id_u) const { return suspects_.contains(id_u); }

  std::uint64_t mismatches(const std::string& id_t) const;
  /// Reporting periods for which this party (bTelco or user) never delivered
  /// its half of the report pair.
  std::uint64_t missing_reports(const std::string& id) const;

 private:
  struct TelcoState {
    double weighted_mismatches = 0.0;
    std::uint64_t mismatch_count = 0;
    std::uint64_t clean_count = 0;
    std::uint64_t missing_count = 0;
  };
  struct UserState {
    std::unordered_set<std::string> mismatched_telcos;
    std::uint64_t missing_count = 0;
  };

  std::unordered_map<std::string, TelcoState> telcos_;
  std::unordered_map<std::string, UserState> users_;
  std::unordered_set<std::string> suspects_;
};

}  // namespace cb::cellbricks
