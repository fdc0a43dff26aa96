// TCP over the simulated network.
//
// A reasonably complete Reno/NewReno sender: slow start, congestion
// avoidance, fast retransmit + fast recovery, Jacobson/Karn RTO with
// exponential backoff, go-back-N on timeout, out-of-order reassembly at the
// receiver, graceful FIN close in both directions, and RST abort. This is
// the machinery whose slow-start dynamics produce the paper's Fig.8/Fig.9
// "dip then overshoot" behaviour after a CellBricks re-attachment.
#pragma once

#include <cstdint>
#include <map>
#include <vector>
#include <memory>
#include <unordered_map>

#include "common/time.hpp"
#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "transport/byte_queue.hpp"
#include "transport/stream_socket.hpp"

namespace cb::transport {

/// Tuning knobs; defaults approximate a 2020-era Linux stack.
struct TcpConfig {
  std::size_t mss = 1400;
  std::size_t initial_cwnd_segments = 10;   // IW10
  std::size_t send_buffer = 1 << 20;        // 1 MiB
  std::size_t receive_window = 4 << 20;     // fixed advertised window
  Duration min_rto = Duration::ms(200);
  Duration initial_rto = Duration::s(1);
  Duration max_rto = Duration::s(60);
  int syn_retries = 6;
};

/// TCP segment header carried inside net::Packet payloads. Up to three SACK
/// blocks ride along, mirroring the RFC 2018 option.
struct TcpHeader {
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t window = 0;
  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sack;  // [start, end)
};
inline constexpr std::size_t kTcpHeaderBytes = 15;  // + 8 per SACK block

Bytes serialize_segment(const TcpHeader& h, BytesView payload);
/// Parse a segment; `payload` is set to a view into `wire`.
bool parse_segment(BytesView wire, TcpHeader& h, BytesView& payload);

class TcpStack;

/// One TCP connection. Created via TcpStack::connect / TcpStack::listen.
class TcpSocket final : public StreamSocket {
 public:
  ~TcpSocket() override;

  std::size_t send(BytesView data) override;
  void close() override;
  std::size_t send_space() const override;
  bool connected() const override { return state_ == State::Established; }

  /// Hard abort: send RST (if possible) and drop all state.
  void abort();
  /// Drop all state without emitting anything — used when the underlying
  /// address is already gone (a detached radio cannot transmit an RST).
  void abort_silent();

  net::EndPoint local() const { return local_; }
  net::EndPoint remote() const { return remote_; }

  /// Smoothed RTT estimate (zero until the first sample).
  Duration srtt() const { return srtt_; }
  /// Congestion window in bytes (exposed for tests and benches).
  std::size_t cwnd() const { return static_cast<std::size_t>(cwnd_); }
  std::size_t ssthresh() const { return ssthresh_; }
  std::uint64_t bytes_acked_total() const { return bytes_acked_total_; }
  std::uint64_t retransmits() const { return retransmits_; }

 private:
  friend class TcpStack;
  enum class State {
    Closed,
    SynSent,
    SynReceived,
    Established,
    FinWait1,   // we closed, FIN sent, awaiting its ACK
    FinWait2,   // our FIN acked, awaiting peer FIN
    CloseWait,  // peer FIN received, we have not closed yet
    LastAck,    // peer closed first, our FIN sent
    Closing,    // simultaneous close
    TimeWait,
  };

  TcpSocket(TcpStack& stack, net::EndPoint local, net::EndPoint remote, TcpConfig config);

  // Sequence-number helpers (wraparound-safe).
  static bool seq_lt(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) < 0;
  }
  static bool seq_le(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::int32_t>(a - b) <= 0;
  }

  void start_connect();
  void start_passive(std::uint32_t peer_iss);
  void on_segment(const TcpHeader& h, BytesView payload);
  void handle_ack(const TcpHeader& h, bool pure_ack);
  void handle_data(const TcpHeader& h, BytesView payload);
  void try_send();
  void send_segment(std::uint32_t seq, std::size_t len, bool fin);
  void send_ack();
  void send_control(bool syn, bool ack, std::uint32_t seq);
  // SACK machinery.
  std::uint32_t rel(std::uint32_t seq) const { return seq - iss_; }
  void add_sack_range(std::uint32_t start_abs, std::uint32_t end_abs);
  void prune_scoreboard();
  /// First gap at/after `from_rel`; returns {start_rel, len} with len 0 if
  /// there is no hole before snd_nxt.
  std::pair<std::uint32_t, std::size_t> next_hole(std::uint32_t from_rel) const;
  /// Retransmit up to `budget` hole segments (ack-clocked loss repair).
  void retransmit_holes(int budget, bool force_first = false);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> receiver_sack_blocks() const;

  void on_rto();
  void arm_rtx_timer();
  void cancel_rtx_timer();
  void enter_time_wait();
  void finish(const std::string& reason);
  std::size_t flight_size() const;
  std::uint32_t fin_seq() const;
  void emit(const TcpHeader& h, BytesView payload);

  TcpStack& stack_;
  net::EndPoint local_;
  net::EndPoint remote_;
  TcpConfig config_;
  State state_ = State::Closed;

  // Send side.
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_wnd_ = 0;  // peer-advertised
  ByteQueue send_buffer_;     // bytes [snd_una_ .. snd_una_+size)
  bool fin_pending_ = false;  // close() called, FIN not yet sent
  bool fin_sent_ = false;
  double cwnd_ = 0;
  std::size_t ssthresh_ = 0;
  int dup_acks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint32_t recover_ = 0;  // recovery point

  // SACK scoreboard. Ranges are stored relative to iss_ so std::map
  // ordering is monotone; this bounds a single connection to < 4 GiB of
  // payload, which every workload in this repo respects.
  std::map<std::uint32_t, std::uint32_t> sacked_;  // rel start -> rel end
  std::size_t sacked_bytes_ = 0;
  std::uint32_t retx_cursor_rel_ = 0;   // next hole-retransmission candidate
  std::uint32_t highest_sent_rel_ = 0;  // for Karn-safe RTT sampling


  // RTT estimation (Karn's rule: only never-retransmitted segments sampled).
  bool rtt_sampling_ = false;
  std::uint32_t rtt_seq_ = 0;
  TimePoint rtt_sent_at_;
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  Duration rto_ = Duration::zero();
  Duration min_rtt_ = Duration::zero();  // for HyStart-style slow-start exit
  int backoff_ = 0;

  // Receive side.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  // Out-of-order segments keyed by start offset from irs_, so map order is
  // stream order across a 32-bit sequence wrap.
  std::map<std::uint32_t, Bytes> out_of_order_;
  bool peer_fin_received_ = false;
  std::uint32_t peer_fin_seq_ = 0;

  sim::EventHandle rtx_timer_;
  sim::EventHandle time_wait_timer_;
  sim::EventHandle connect_timer_;
  int syn_attempts_ = 0;

  std::uint64_t bytes_acked_total_ = 0;
  std::uint64_t retransmits_ = 0;
};

/// Per-node TCP instance: demuxes segments to sockets and owns listeners.
class TcpStack {
 public:
  explicit TcpStack(net::Node& node, TcpConfig config = {});
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Active open from `local_addr` (defaults to the node's primary address).
  std::shared_ptr<TcpSocket> connect(net::EndPoint remote,
                                     net::Ipv4Addr local_addr = net::Ipv4Addr{});

  /// Passive open: `on_accept` fires with each established connection.
  using AcceptCallback = std::function<void(std::shared_ptr<TcpSocket>)>;
  void listen(std::uint16_t port, AcceptCallback on_accept);
  void close_listener(std::uint16_t port);

  net::Node& node() { return node_; }
  sim::Simulator& simulator() { return node_.simulator(); }
  const TcpConfig& config() const { return config_; }

 private:
  friend class TcpSocket;
  struct FlowKey {
    net::EndPoint local;
    net::EndPoint remote;
    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const {
      const std::size_t h1 = std::hash<net::EndPoint>{}(k.local);
      const std::size_t h2 = std::hash<net::EndPoint>{}(k.remote);
      return h1 ^ (h2 * 0x9E3779B97F4A7C15ULL);
    }
  };

  void dispatch(net::Packet&& packet);
  void transmit(const net::EndPoint& src, const net::EndPoint& dst, Bytes wire);
  void deregister(TcpSocket* socket);
  /// Passive-open socket finished its handshake: hand it to the listener.
  void on_established(TcpSocket* socket);
  std::uint32_t random_iss();

  net::Node& node_;
  TcpConfig config_;
  std::unordered_map<FlowKey, std::shared_ptr<TcpSocket>, FlowKeyHash> sockets_;
  std::unordered_map<std::uint16_t, AcceptCallback> listeners_;
  Rng rng_;
  // Per-segment metric handles, cached once at stack construction so the
  // datapath pays one null check instead of a name lookup per segment.
  obs::Counter* obs_tx_ = nullptr;
  obs::Counter* obs_rx_ = nullptr;
  obs::Counter* obs_rtx_ = nullptr;
  obs::Counter* obs_rto_ = nullptr;
};

}  // namespace cb::transport
