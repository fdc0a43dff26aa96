// VoIP over UDP/RTP with E-model MOS scoring — Table 1's "VoIP: MOS".
//
// A CBR voice stream (20 ms frames) flows in both directions. Since RTP
// does not ride TCP/MPTCP, CellBricks handles IP changes at L7 exactly as
// the paper does (§6.2(iv)): the pjsua client's SIP re-INVITE is modelled by
// the peer re-learning the caller's address from the first packet that
// arrives from a new source. MOS is computed from measured loss, one-way
// delay, and RFC 3550 interarrival jitter via the ITU-T E-model.
#pragma once

#include "common/stats.hpp"
#include "net/node.hpp"

namespace cb::apps {

/// Receiver-side stream quality accounting.
struct VoipStats {
  std::uint64_t received = 0;
  std::uint64_t expected = 0;  // from sequence numbers
  double avg_delay_ms = 0.0;
  double jitter_ms = 0.0;

  double loss_rate() const {
    return expected > 0
               ? 1.0 - static_cast<double>(received) / static_cast<double>(expected)
               : 0.0;
  }
  /// ITU-T G.107 E-model, simplified for G.711 + PLC.
  double mos() const;
};

/// One endpoint of a call: sends a CBR stream and scores what it receives.
/// Make one on each side; `remote` may be discovered from incoming traffic
/// (callee side), enabling the re-INVITE behaviour.
class VoipEndpoint {
 public:
  VoipEndpoint(net::Node& node, std::uint16_t local_port);
  ~VoipEndpoint();

  /// Start the outgoing stream toward `remote` (caller side). The callee
  /// side can omit this until it learns the caller's address.
  void call(net::EndPoint remote);
  void hang_up();

  /// True peer address currently used for sending (updated by re-INVITE).
  net::EndPoint peer() const { return remote_; }

  const VoipStats& stats() const { return stats_; }

 private:
  void send_frame();
  void on_packet(const net::Packet& p);

  net::Node& node_;
  std::uint16_t port_;
  net::EndPoint remote_;
  bool streaming_ = false;
  std::uint32_t tx_seq_ = 0;
  sim::EventHandle timer_;

  // Receive side.
  VoipStats stats_;
  bool saw_any_ = false;
  std::uint32_t highest_rx_seq_ = 0;
  double delay_accum_ms_ = 0.0;
  double last_transit_ms_ = 0.0;
  double jitter_ms_ = 0.0;
};

}  // namespace cb::apps
