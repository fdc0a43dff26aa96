#include "cellbricks/reputation.hpp"

#include <algorithm>
#include <cmath>

namespace cb::cellbricks {

PairVerdict ReputationSystem::compare(const TrafficReport& from_ue,
                                      const TrafficReport& from_telco) const {
  PairVerdict v;
  // Fig.5: the bTelco measures DL before the radio, the UE after it, so the
  // bTelco legitimately sees more bytes by the loss on the link. With loss
  // rate l measured over SENT bytes, dl_T*(1-l) = dl_U, i.e. the legitimate
  // delta is dl_U * l/(1-l); epsilon is the fixed tolerance on top.
  const double dl_u = static_cast<double>(from_ue.dl_bytes);
  const double l = std::clamp(from_ue.dl_loss_rate, 0.0, 0.95);
  v.threshold = (l / (1.0 - l) + kEpsilon) * dl_u + 1500.0;  // +1 MTU slack
  v.delta = static_cast<std::int64_t>(from_telco.dl_bytes) -
            static_cast<std::int64_t>(from_ue.dl_bytes);
  const double excess = std::abs(static_cast<double>(v.delta)) - v.threshold;
  if (excess > 0.0) {
    v.mismatch = true;
    v.degree = std::min(1.0, excess / std::max(dl_u, 1.0));
  }
  return v;
}

void ReputationSystem::record(const std::string& id_u, const std::string& id_t,
                              const PairVerdict& verdict) {
  TelcoState& t = telcos_[id_t];
  if (verdict.mismatch) {
    t.weighted_mismatches += std::max(verdict.degree, 0.1);  // floor per incident
    t.mismatch_count += 1;
    UserState& u = users_[id_u];
    u.mismatched_telcos.insert(id_t);
    if (static_cast<int>(u.mismatched_telcos.size()) >= kSuspectDistinctTelcos) {
      // A user who disagrees with several independent bTelcos is more
      // plausibly the dishonest party.
      suspects_.insert(id_u);
    }
  } else {
    t.clean_count += 1;
    t.weighted_mismatches =
        std::max(0.0, t.weighted_mismatches - kRecoveryPerCleanPair);
  }
}

void ReputationSystem::record_missing(const std::string& id_u, const std::string& id_t,
                                      Reporter missing) {
  if (missing == Reporter::Telco) {
    TelcoState& t = telcos_[id_t];
    t.weighted_mismatches += kMissingReportPenalty;
    t.missing_count += 1;
  } else {
    // A user that stops reporting may simply have vanished mid-session (dead
    // battery, coverage hole): count it, but do not treat it as tampering
    // evidence — only cross-bTelco mismatches feed the suspect list.
    users_[id_u].missing_count += 1;
  }
}

double ReputationSystem::telco_score(const std::string& id_t) const {
  auto it = telcos_.find(id_t);
  if (it == telcos_.end()) return 1.0;
  return 1.0 / (1.0 + it->second.weighted_mismatches);
}

bool ReputationSystem::authorize(const std::string& id_u, const std::string& id_t) const {
  if (is_suspect(id_u)) return false;
  return telco_score(id_t) >= kMinTelcoScore;
}

std::uint64_t ReputationSystem::mismatches(const std::string& id_t) const {
  auto it = telcos_.find(id_t);
  return it == telcos_.end() ? 0 : it->second.mismatch_count;
}

std::uint64_t ReputationSystem::missing_reports(const std::string& id) const {
  if (auto it = telcos_.find(id); it != telcos_.end()) return it->second.missing_count;
  if (auto it = users_.find(id); it != users_.end()) return it->second.missing_count;
  return 0;
}

}  // namespace cb::cellbricks
