// Verifiable billing (§4.3): tamper-resistant traffic reports from both the
// UE baseband and the bTelco, aligned and compared at the broker with the
// Fig.5 discrepancy heuristic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"

namespace cb::cellbricks {

/// Who produced a report.
enum class Reporter : std::uint8_t { Ue = 0, Telco = 1 };

/// One usage/QoS report covering a reporting period of a session — the
/// fields enumerated in §4.3 (session id, relative timestamp, UL/DL usage,
/// duration, and 3GPP QoS metrics, reported separately for each direction).
struct TrafficReport {
  std::uint64_t session_id = 0;
  Reporter reporter = Reporter::Ue;
  /// Relative timestamp within the session (period index), used by the
  /// broker to align U's and T's reports.
  std::uint32_t period = 0;
  std::uint64_t ul_bytes = 0;
  std::uint64_t dl_bytes = 0;
  /// Session time covered by this report, in milliseconds.
  std::uint64_t duration_ms = 0;
  // QoS metrics (TS 32.425 counterparts).
  double dl_loss_rate = 0.0;
  double ul_loss_rate = 0.0;
  double avg_dl_bps = 0.0;
  double avg_ul_bps = 0.0;
  double avg_delay_ms = 0.0;

  Bytes serialize() const;
  static Result<TrafficReport> deserialize(BytesView data);
};

/// The frame every reporter (UE baseband, bTelco, load generator) seals to
/// the broker, and the only place it is written or read:
///   seal_pkB({str reporter_id, u8 reporter, bytes report, bytes sig})
/// where `report` is TrafficReport::serialize() and `sig` is the reporter's
/// signature over those bytes.
struct ReportFrame {
  std::string reporter_id;
  Reporter reporter = Reporter::Ue;
  Bytes report;
  Bytes sig;

  /// Serialize `report`, sign the bytes with `sign`, and seal the frame to
  /// `broker_key`, in that order; the seal draws from `rng`. The reporter
  /// byte is `report.reporter`.
  static Bytes seal(const TrafficReport& report, const std::string& reporter_id,
                    const std::function<Bytes(BytesView)>& sign,
                    const crypto::RsaPublicKey& broker_key, Rng& rng);
  /// Decode an opened frame; fails on truncation.
  static Result<ReportFrame> decode(BytesView opened);
};

}  // namespace cb::cellbricks
