// MME: the control-plane brain of the MNO baseline's attach procedure.
//
// Implements the standard flow the paper benchmarks as its baseline (§6.1):
//   AttachRequest → [S6A AIR → HSS → AIA]  (round-trip #1)
//   → Authentication challenge/response (EPS-AKA)
//   → Security Mode Command/Complete
//   → [S6A ULR → HSS → ULA]                (round-trip #2)
//   → create bearer at SGW/PGW → AttachAccept(IP)
// The two HSS round-trips are the baseline's defining cost; CellBricks' SAP
// needs only one broker round-trip.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "common/cow_bytes.hpp"
#include "common/result.hpp"
#include "epc/hss.hpp"
#include "epc/spgw.hpp"
#include "sim/service_queue.hpp"

namespace cb::epc {

/// Per-message processing delays, calibrated so the Fig.7 totals match the
/// paper's testbed (see DESIGN.md): UE 4 x 0.5 ms, eNB 6 x 0.5 ms,
/// AGW 4 x 3 ms, HSS 2 x 2.75 ms => 22.5 ms of processing per attach.
struct EpcProcProfile {
  Duration ue_msg = Duration::millis(0.5);
  Duration enb_msg = Duration::millis(0.5);
  Duration agw_msg = Duration::ms(3);
  Duration hss_req = Duration::millis(2.75);
};

class Mme {
 public:
  /// UE-side continuations for the dialog legs that cross the radio
  /// interface. The UE supplies these via UeNas.
  struct AttachHooks {
    /// EPS-AKA challenge: the UE verifies AUTN and calls `respond(res)`.
    std::function<void(Bytes rand, Bytes autn, std::function<void(Bytes)> respond)> challenge;
    /// Security mode command: the UE derives its keys and calls `complete`.
    std::function<void(std::function<void()> complete)> smc;
    /// Attach finished (IP assigned) or failed.
    std::function<void(Result<net::Ipv4Addr>)> done;
  };

  Mme(net::Node& agw_node, SgwPgw& spgw, net::EndPoint hss, EpcProcProfile profile = {});

  /// Begin the attach dialog for `imsi` arriving via `tower`/`radio_link`.
  void attach(const std::string& imsi, net::Node* ue_node, net::Node* tower,
              net::Link* radio_link, AttachHooks hooks);

  /// 5G registration (SEAF role): the UE supplies a SUCI, not an IMSI. The
  /// dialog costs three home round-trips (Auth5gInfo, Auth5gConfirm, ULR)
  /// against EPS-AKA's two — the HXRES* check is local, the RES* confirm is
  /// not. Reuses AttachHooks: `challenge` receives (RAND, AUTN) and responds
  /// with RES*.
  void attach5g(Bytes suci, net::Node* ue_node, net::Node* tower, net::Link* radio_link,
                AttachHooks hooks);

  /// Cumulative AGW control-plane processing time (Fig.7 breakdown).
  Duration busy_time() const { return queue_.busy_time(); }
  std::uint64_t attaches_completed() const { return completed_; }
  /// Serving-network anchor key from the most recent completed 5G attach
  /// (conformance tests compare it against the UE's derivation).
  const Bytes& last_kseaf() const { return last_kseaf_; }

  const EpcProcProfile& profile() const { return profile_; }
  SgwPgw& spgw() { return spgw_; }

 private:
  struct PendingAttach {
    std::string imsi;
    net::Node* ue_node;
    net::Node* tower;
    net::Link* radio_link;
    AttachHooks hooks;
    Bytes xres;
    TimePoint started_at;
  };

  void handle_hss_reply(const net::Packet& packet);
  void send_s6a(S6aType type, std::uint64_t txn, BytesView body);
  /// The tail both dialogs share once the UE is authenticated: security
  /// mode, then ULR -> HSS -> ULA, then the bearer and the accept.
  void update_location(std::uint64_t txn);
  void fail(std::uint64_t txn, const std::string& reason);

  net::Node& node_;
  SgwPgw& spgw_;
  net::EndPoint hss_;
  EpcProcProfile profile_;
  sim::ServiceQueue queue_;
  std::uint16_t port_ = 0;
  std::uint64_t next_txn_ = 1;
  std::uint64_t completed_ = 0;
  Bytes last_kseaf_;
  std::unordered_map<std::uint64_t, PendingAttach> pending_;
  // txn -> continuation invoked with the decoded HSS reply payload
  std::unordered_map<std::uint64_t, std::function<void(CowBytes)>> awaiting_hss_;
};

}  // namespace cb::epc
