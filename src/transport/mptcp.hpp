// Multipath TCP built on the TCP substrate.
//
// Implements the subset of RFC 6824/8684 semantics that host-driven mobility
// needs, the way the paper uses it (§4.2):
//   * a connection-level data sequence space framed over TCP subflows
//     (MP_CAPABLE / MP_JOIN tokens, DSS-style mappings, DATA_FIN),
//   * cumulative data ACKs so the sender can release its buffer and
//     retransmit un-acked data on a fresh subflow after a path dies,
//   * REMOVE_ADDR so the peer drops subflows for an invalidated address,
//   * the mainline stack's `address_worker` wait period — hard-coded 500 ms
//     in Linux (mptcp_fullmesh.c), configurable here because Fig.9 of the
//     paper studies exactly what happens when it is removed,
//   * the 60 s "watch for a new address" timeout after which the connection
//     is torn down.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "transport/tcp.hpp"

namespace cb::transport {

/// UDP port used for connection-level DATA_ACKs. Real MPTCP carries them
/// as TCP options on whatever packet goes out next — per-packet and not
/// retransmitted; a datagram side channel reproduces those semantics (a
/// lost DACK is simply superseded by the next cumulative one).
inline constexpr std::uint16_t kMptcpDackPort = 60999;

struct MptcpConfig {
  /// Max payload bytes per DATA record (record header is 13 bytes).
  std::size_t record_payload = 1380;
  /// Connection-level send buffer.
  std::size_t send_buffer = 1 << 20;
  /// Wait between noticing an address change and opening a new subflow
  /// (Linux mainline: 500 ms; Fig.9 removes it).
  Duration address_wait = Duration::ms(500);
  /// Tear the connection down if no address appears within this window.
  Duration path_timeout = Duration::s(60);
  /// Periodic cumulative-DACK refresh (covers lost datagrams / tails).
  Duration dack_refresh = Duration::ms(500);
};

class MptcpStack;

/// One MPTCP connection (either side). Implements StreamSocket so
/// applications cannot tell it apart from plain TCP.
class MptcpSocket final : public StreamSocket,
                          public std::enable_shared_from_this<MptcpSocket> {
 public:
  ~MptcpSocket() override;

  std::size_t send(BytesView data) override;
  void close() override;
  std::size_t send_space() const override;
  bool connected() const override;

  /// Number of currently-established subflows.
  std::size_t subflow_count() const;
  /// Connection token (for tests/diagnostics).
  std::uint64_t token() const { return token_; }
  std::uint64_t data_acked() const { return dseq_una_; }
  /// Buffer bytes that dead subflows still hold: record-queue storage plus
  /// their TCP sockets' queued send bytes (zero once each is released).
  std::size_t dead_subflow_bytes() const;

 private:
  friend class MptcpStack;
  enum class Role { Client, Server };

  struct Subflow {
    std::shared_ptr<TcpSocket> tcp;
    ByteQueue rx;               // unparsed record bytes
    bool established = false;
    bool dead = false;

    /// Mark the path dead and free its unparsed bytes. The entry itself
    /// stays: the socket's callbacks index subflows_.
    void retire() {
      dead = true;
      rx.clear();
    }
  };

  MptcpSocket(MptcpStack& stack, Role role, std::uint64_t token, net::EndPoint remote,
              MptcpConfig config);

  void start_initial_subflow(net::Ipv4Addr local_addr);
  void adopt_server_subflow(std::shared_ptr<TcpSocket> tcp, ByteQueue carried_over);
  void add_client_subflow(net::Ipv4Addr local_addr);
  void attach_subflow_callbacks(std::size_t index);
  void on_subflow_data(std::size_t index, BytesView data);
  void parse_records(std::size_t index);
  void handle_data_record(std::uint64_t dseq, BytesView payload);
  void handle_dack(std::uint64_t dack);
  void handle_remove_addr(net::Ipv4Addr addr);
  void deliver_in_order();
  void maybe_deliver_eof();
  void try_send();
  void send_dack();
  void dack_refresh_tick();
  Subflow* active_subflow();
  void on_subflow_closed(std::size_t index, const std::string& reason);
  void handle_address_loss(net::Ipv4Addr addr);
  void handle_address_available(net::Ipv4Addr addr);
  void finish(const std::string& reason);
  void maybe_finish_graceful();

  MptcpStack& stack_;
  Role role_;
  std::uint64_t token_;
  net::EndPoint remote_;
  MptcpConfig config_;
  bool established_ = false;
  bool finished_ = false;

  std::vector<Subflow> subflows_;

  // Sender.
  ByteQueue send_buffer_;       // bytes [dseq_una_, dseq_una_+size)
  std::uint64_t dseq_una_ = 0;  // lowest unacked data sequence
  std::uint64_t dseq_nxt_ = 0;  // next data sequence to put on a subflow
  std::uint64_t dseq_high_ = 0;  // highest sequence ever sent (+1 for FIN);
                                 // never rolls back — bounds valid DACKs
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  std::uint64_t fin_dseq_ = 0;  // data sequence number the DATA_FIN occupies

  // Receiver.
  std::uint64_t rcv_dseq_ = 0;
  std::map<std::uint64_t, Bytes> out_of_order_;
  bool peer_fin_ = false;
  std::uint64_t peer_fin_dseq_ = 0;
  bool eof_delivered_ = false;

  // Mobility.
  net::Ipv4Addr pending_remove_;  // address to advertise as removed
  sim::EventHandle address_wait_timer_;
  sim::EventHandle path_timeout_timer_;
  sim::EventHandle dack_timer_;
  sim::EventHandle dfin_rtx_timer_;
};

/// Per-node MPTCP instance. Bridges the host mobility manager (address
/// change notifications) to every connection's path manager.
class MptcpStack {
 public:
  /// Should-be-impossible protocol states, counted instead of asserted so
  /// the check layer can turn them into invariant violations in any build.
  /// All counters stay 0 on a correct stack; there is no legitimate path
  /// that increments them.
  struct SanityCounters {
    /// Payload bytes surfaced by a subflow already marked dead.
    std::uint64_t data_on_dead_subflow = 0;
    /// DATA records carrying bytes past the peer's announced DATA_FIN.
    std::uint64_t data_past_fin = 0;
    /// Cumulative DATA_ACKs acknowledging sequence space never sent
    /// (connection-level sequence-space conservation).
    std::uint64_t ack_beyond_sent = 0;

    std::uint64_t total() const {
      return data_on_dead_subflow + data_past_fin + ack_beyond_sent;
    }
  };

  MptcpStack(net::Node& node, TcpStack& tcp, MptcpConfig config = {});
  ~MptcpStack();

  MptcpStack(const MptcpStack&) = delete;
  MptcpStack& operator=(const MptcpStack&) = delete;

  /// Active open (the UE side).
  std::shared_ptr<MptcpSocket> connect(net::EndPoint remote,
                                       net::Ipv4Addr local_addr = net::Ipv4Addr{});

  /// Passive open (the server side).
  using AcceptCallback = std::function<void(std::shared_ptr<MptcpSocket>)>;
  void listen(std::uint16_t port, AcceptCallback on_accept);

  /// Host mobility integration: the device's address went away (detach) —
  /// subflows using it are dead, the 60 s watch starts.
  void notify_address_invalidated(net::Ipv4Addr addr);
  /// A new address is available (attach complete): after the configured
  /// wait period each connection opens a replacement subflow.
  void notify_address_available(net::Ipv4Addr addr);

  TcpStack& tcp() { return tcp_; }
  sim::Simulator& simulator() { return node_.simulator(); }
  const MptcpConfig& config() const { return config_; }
  const SanityCounters& sanity() const { return sanity_; }

 private:
  friend class MptcpSocket;

  void register_connection(const std::shared_ptr<MptcpSocket>& conn);
  void deregister_connection(std::uint64_t token);
  /// Emit a cumulative DATA_ACK datagram toward `to` for `token`.
  void send_dack_datagram(net::EndPoint from, net::EndPoint to, std::uint64_t token,
                          std::uint64_t dack);
  void on_dack_datagram(const net::Packet& packet);
  std::uint64_t fresh_token();

  // Server-side subflows whose first record has not arrived yet.
  struct PendingSubflow {
    std::shared_ptr<TcpSocket> tcp;
    ByteQueue rx;
    std::uint16_t port;
  };
  void on_pending_data(const std::shared_ptr<PendingSubflow>& pending);

  net::Node& node_;
  TcpStack& tcp_;
  MptcpConfig config_;
  Rng rng_;
  SanityCounters sanity_;
  std::unordered_map<std::uint64_t, std::weak_ptr<MptcpSocket>> by_token_;
  std::unordered_map<std::uint16_t, AcceptCallback> listeners_;
};

}  // namespace cb::transport
