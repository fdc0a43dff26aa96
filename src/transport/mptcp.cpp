#include "transport/mptcp.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace cb::transport {

namespace {

// Record types framed over the subflow byte stream.
enum class Rec : std::uint8_t {
  Cap = 0,         // u64 token — first record of the initial subflow
  Join = 1,        // u64 token — first record of each additional subflow
  Data = 2,        // u64 dseq, u32 len, payload
  Dack = 3,        // u64 cumulative data ack
  RemoveAddr = 4,  // u32 address
  Dfin = 5,        // u64 dseq of EOF
};

constexpr std::size_t kDataHeader = 1 + 8 + 4;
/// Max payload bytes per DATA record.
constexpr std::size_t kRecordPayload = 1380;
static_assert(kDataHeader + kRecordPayload <= kMss, "a DATA record must fit in one segment");
/// Connection-level send buffer.
constexpr std::size_t kDataSendBuffer = 1 << 20;
/// Periodic cumulative-DACK refresh (covers lost datagrams / tails).
constexpr Duration kDackRefresh = Duration::ms(500);

Bytes make_token_record(Rec type, std::uint64_t token) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(token);
  return w.take();
}

Bytes make_dfin(std::uint64_t dseq) { return make_token_record(Rec::Dfin, dseq); }

Bytes make_remove_addr(net::Ipv4Addr addr) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Rec::RemoveAddr));
  w.u32(addr.value());
  return w.take();
}

}  // namespace

// --- MptcpSocket -------------------------------------------------------------

MptcpSocket::MptcpSocket(MptcpStack& stack, Role role, std::uint64_t token,
                         net::EndPoint remote)
    : stack_(stack), role_(role), token_(token), remote_(remote) {}

MptcpSocket::~MptcpSocket() {
  address_wait_timer_.cancel();
  path_timeout_timer_.cancel();
  dack_timer_.cancel();
  dfin_rtx_timer_.cancel();
  for (auto& sf : subflows_) {
    if (!sf.tcp) continue;
    sf.tcp->on_data = nullptr;
    sf.tcp->on_closed = nullptr;
    sf.tcp->on_send_space = nullptr;
    sf.tcp->on_connected = nullptr;
    if (!sf.dead) sf.tcp->abort_silent();
  }
}

bool MptcpSocket::connected() const { return established_ && !finished_; }

std::size_t MptcpSocket::subflow_count() const {
  std::size_t n = 0;
  for (const auto& sf : subflows_) n += (sf.established && !sf.dead);
  return n;
}

std::size_t MptcpSocket::send_space() const {
  return kDataSendBuffer - send_buffer_.size();
}

std::size_t MptcpSocket::dead_subflow_bytes() const {
  std::size_t held = 0;
  for (const auto& sf : subflows_) {
    if (!sf.dead) continue;
    held += sf.rx.capacity() + (kSendBuffer - sf.tcp->send_space());
  }
  return held;
}

std::size_t MptcpSocket::send(BytesView data) {
  if (finished_ || fin_pending_ || fin_sent_) return 0;
  const std::size_t take = std::min(data.size(), send_space());
  send_buffer_.append(data.subspan(0, take));
  try_send();
  return take;
}

void MptcpSocket::close() {
  if (finished_ || fin_pending_ || fin_sent_) return;
  fin_pending_ = true;
  try_send();
}

void MptcpSocket::start_initial_subflow(net::Ipv4Addr local_addr) {
  auto tcp = stack_.tcp().connect(remote_, local_addr);
  subflows_.push_back(Subflow{tcp, {}, false, false});
  const std::size_t index = subflows_.size() - 1;
  attach_subflow_callbacks(index);
  tcp->on_connected = [this, index] {
    Subflow& sf = subflows_[index];
    sf.established = true;
    sf.tcp->send(make_token_record(Rec::Cap, token_));
    established_ = true;
    if (!dack_timer_.pending()) dack_refresh_tick();
    if (on_connected) on_connected();
    try_send();
  };
}

void MptcpSocket::add_client_subflow(net::Ipv4Addr local_addr) {
  obs::inc(obs::counter("mptcp.subflows.opened"));
  obs::trace(stack_.simulator().now(), obs::TraceType::SubflowOpen, token_);
  auto tcp = stack_.tcp().connect(remote_, local_addr);
  subflows_.push_back(Subflow{tcp, {}, false, false});
  const std::size_t index = subflows_.size() - 1;
  attach_subflow_callbacks(index);
  tcp->on_connected = [this, index] {
    Subflow& sf = subflows_[index];
    sf.established = true;
    if (!established_) {
      // The initial subflow died before the connection came up (handover
      // during the handshake): this subflow becomes the initial one.
      sf.tcp->send(make_token_record(Rec::Cap, token_));
      established_ = true;
      pending_remove_ = net::Ipv4Addr{};
      path_timeout_timer_.cancel();
      if (on_connected) on_connected();
      try_send();
      return;
    }
    sf.tcp->send(make_token_record(Rec::Join, token_));
    if (pending_remove_.valid()) {
      sf.tcp->send(make_remove_addr(pending_remove_));
      pending_remove_ = net::Ipv4Addr{};
    }
    path_timeout_timer_.cancel();
    // Go-back over the connection-level buffer: anything the dead subflow
    // had in flight but un-DACKed is resent here; the receiver dedups.
    dseq_nxt_ = dseq_una_;
    if (fin_sent_ && !fin_acked_) {
      fin_sent_ = false;
      fin_pending_ = true;
    }
    try_send();
  };
}

void MptcpSocket::adopt_server_subflow(std::shared_ptr<TcpSocket> tcp, ByteQueue carried) {
  obs::inc(obs::counter("mptcp.subflows.adopted"));
  subflows_.push_back(Subflow{std::move(tcp), std::move(carried), true, false});
  const std::size_t index = subflows_.size() - 1;
  attach_subflow_callbacks(index);
  established_ = true;
  if (!dack_timer_.pending()) dack_refresh_tick();
  path_timeout_timer_.cancel();
  // A JOIN means the peer lost its previous path: resend un-acked data.
  if (subflows_.size() > 1) {
    dseq_nxt_ = dseq_una_;
    if (fin_sent_ && !fin_acked_) {
      fin_sent_ = false;
      fin_pending_ = true;
    }
  }
  parse_records(index);
  if (!finished_) try_send();
}

void MptcpSocket::attach_subflow_callbacks(std::size_t index) {
  TcpSocket& tcp = *subflows_[index].tcp;
  tcp.on_data = [this, index](BytesView data) { on_subflow_data(index, data); };
  tcp.on_closed = [this, index](const std::string& reason) {
    on_subflow_closed(index, reason);
  };
  tcp.on_send_space = [this] { try_send(); };
}

void MptcpSocket::on_subflow_data(std::size_t index, BytesView data) {
  if (subflows_[index].dead) ++stack_.sanity_.data_on_dead_subflow;
  subflows_[index].rx.append(data);
  parse_records(index);
}

void MptcpSocket::parse_records(std::size_t index) {
  // Records are read in place. Each is popped before it is handled: a pop
  // moves no bytes, so the payload view stays valid while it is delivered.
  for (;;) {
    if (finished_) return;
    ByteQueue& rx = subflows_[index].rx;
    if (rx.empty()) return;
    const auto type = static_cast<Rec>(rx.view(0, 1)[0]);
    switch (type) {
      case Rec::Cap:
      case Rec::Join: {
        if (rx.size() < 9) return;
        rx.pop(9);  // token already consumed by the stack on adoption
        break;
      }
      case Rec::Data: {
        if (rx.size() < kDataHeader) return;
        ByteReader r(rx.view(1, kDataHeader - 1));
        const std::uint64_t dseq = r.u64();
        const std::uint32_t len = r.u32();
        if (rx.size() < kDataHeader + len) return;
        const BytesView payload = rx.view(kDataHeader, len);
        rx.pop(kDataHeader + len);
        handle_data_record(dseq, payload);
        break;
      }
      case Rec::Dack: {
        if (rx.size() < 9) return;
        const std::uint64_t dack = ByteReader(rx.view(1, 8)).u64();
        rx.pop(9);
        handle_dack(dack);
        break;
      }
      case Rec::RemoveAddr: {
        if (rx.size() < 5) return;
        const net::Ipv4Addr addr{ByteReader(rx.view(1, 4)).u32()};
        rx.pop(5);
        handle_remove_addr(addr);
        break;
      }
      case Rec::Dfin: {
        if (rx.size() < 9) return;
        peer_fin_ = true;
        peer_fin_dseq_ = ByteReader(rx.view(1, 8)).u64();
        rx.pop(9);
        maybe_deliver_eof();
        break;
      }
      default:
        CB_LOG(Warn, "mptcp") << "protocol error: unknown record type";
        finish("protocol error");
        return;
    }
  }
}

void MptcpSocket::handle_data_record(std::uint64_t dseq, BytesView payload) {
  const std::uint64_t end = dseq + payload.size();
  if (peer_fin_ && end > peer_fin_dseq_) ++stack_.sanity_.data_past_fin;
  if (end <= rcv_dseq_) {
    send_dack();  // duplicate from a go-back retransmission
    return;
  }
  if (dseq > rcv_dseq_) {
    out_of_order_.emplace(dseq, Bytes(payload.begin(), payload.end()));
    send_dack();
    return;
  }
  const BytesView fresh = payload.subspan(rcv_dseq_ - dseq);
  rcv_dseq_ += fresh.size();
  if (on_data) on_data(fresh);
  if (finished_) return;
  deliver_in_order();
  if (finished_) return;
  maybe_deliver_eof();
  if (finished_) return;
  send_dack();
}

void MptcpSocket::deliver_in_order() {
  while (!out_of_order_.empty()) {
    auto it = out_of_order_.begin();
    if (it->first > rcv_dseq_) break;
    const std::uint64_t end = it->first + it->second.size();
    if (end > rcv_dseq_) {
      const BytesView tail = BytesView(it->second).subspan(rcv_dseq_ - it->first);
      rcv_dseq_ = end;
      if (on_data) on_data(tail);
      if (finished_) return;
    }
    out_of_order_.erase(it);
  }
}

void MptcpSocket::maybe_deliver_eof() {
  if (eof_delivered_) {
    send_dack();  // duplicate DATA_FIN: refresh the (possibly lost) DACK
    return;
  }
  if (!peer_fin_ || rcv_dseq_ != peer_fin_dseq_) return;
  eof_delivered_ = true;
  rcv_dseq_ += 1;  // DATA_FIN consumes one data sequence number
  send_dack();
  if (on_closed) on_closed("");
  maybe_finish_graceful();
}

void MptcpSocket::send_dack() {
  // DATA_ACKs travel out-of-band (like TCP options): cumulative, unordered,
  // and never retransmitted — a later DACK supersedes a lost one.
  if (Subflow* sf = active_subflow()) {
    stack_.send_dack_datagram(sf->tcp->local(), sf->tcp->remote(), token_, rcv_dseq_);
  }
}

void MptcpSocket::dack_refresh_tick() {
  if (finished_) return;
  // Cumulative refresh: repairs lost DACK datagrams and closes the tail
  // (last-DACK-lost) case without any reliable-stream coupling.
  if (rcv_dseq_ > 0 || eof_delivered_) send_dack();
  // DATA_FIN is retransmitted until acknowledged.
  if (fin_sent_ && !fin_acked_) {
    if (Subflow* sf = active_subflow()) {
      if (sf->tcp->send_space() >= 9) sf->tcp->send(make_dfin(fin_dseq_));
    }
  }
  dack_timer_ = stack_.simulator().schedule(kDackRefresh, [this] { dack_refresh_tick(); });
}

void MptcpSocket::handle_dack(std::uint64_t dack) {
  // Conservation: a cumulative DACK can never pass the high-water mark of
  // sequence space ever put on a subflow (dseq_nxt_ itself rolls back on
  // go-back retransmission, so it is not the right bound — a DACK for data
  // delivered on a now-dead path may arrive after the rollback).
  if (dack > dseq_high_) ++stack_.sanity_.ack_beyond_sent;
  if (dack <= dseq_una_) return;
  const std::uint64_t advance = dack - dseq_una_;
  const std::size_t popped = std::min<std::size_t>(advance, send_buffer_.size());
  send_buffer_.pop(popped);
  dseq_una_ = dack;
  if (dseq_nxt_ < dseq_una_) dseq_nxt_ = dseq_una_;
  if (fin_sent_ && !fin_acked_ && dack >= fin_dseq_ + 1) {
    fin_acked_ = true;
    maybe_finish_graceful();
    if (finished_) return;
  }
  if (popped > 0 && on_send_space && send_space() > 0) on_send_space();
  if (!finished_) try_send();
}

void MptcpSocket::handle_remove_addr(net::Ipv4Addr addr) {
  for (std::size_t i = 0; i < subflows_.size(); ++i) {
    Subflow& sf = subflows_[i];
    if (!sf.dead && sf.tcp->remote().addr == addr) {
      sf.retire();
      sf.tcp->on_closed = nullptr;
      sf.tcp->abort_silent();
    }
  }
  // Anything in flight on the removed path must be resent.
  dseq_nxt_ = dseq_una_;
  if (fin_sent_ && !fin_acked_) {
    fin_sent_ = false;
    fin_pending_ = true;
  }
  try_send();
}

MptcpSocket::Subflow* MptcpSocket::active_subflow() {
  Subflow* best = nullptr;
  for (auto& sf : subflows_) {
    if (!sf.established || sf.dead || !sf.tcp->connected()) continue;
    if (best == nullptr || sf.tcp->srtt() < best->tcp->srtt()) best = &sf;
  }
  return best;
}

void MptcpSocket::try_send() {
  if (finished_) return;
  Subflow* sf = active_subflow();
  if (sf == nullptr) return;

  for (;;) {
    const std::uint64_t unsent_off = dseq_nxt_ - dseq_una_;
    const std::size_t unsent =
        send_buffer_.size() > unsent_off ? send_buffer_.size() - unsent_off : 0;
    if (unsent > 0) {
      const std::size_t len = std::min(unsent, kRecordPayload);
      const std::size_t record_size = kDataHeader + len;
      if (sf->tcp->send_space() < record_size) return;
      ByteWriter w;
      w.reserve(record_size);
      w.u8(static_cast<std::uint8_t>(Rec::Data));
      w.u64(dseq_nxt_);
      w.u32(static_cast<std::uint32_t>(len));
      w.raw(send_buffer_.view(unsent_off, len));
      sf->tcp->send(w.data());
      dseq_nxt_ += len;
      if (dseq_nxt_ > dseq_high_) dseq_high_ = dseq_nxt_;
      continue;
    }
    if (fin_pending_ && !fin_sent_) {
      if (sf->tcp->send_space() < 9) return;
      fin_dseq_ = dseq_nxt_;
      sf->tcp->send(make_dfin(fin_dseq_));
      fin_sent_ = true;
      fin_pending_ = false;
      if (fin_dseq_ + 1 > dseq_high_) dseq_high_ = fin_dseq_ + 1;
    }
    return;
  }
}

void MptcpSocket::on_subflow_closed(std::size_t index, const std::string& reason) {
  Subflow& sf = subflows_[index];
  sf.retire();
  if (finished_) return;
  obs::inc(obs::counter("mptcp.subflows.closed"));
  obs::trace(stack_.simulator().now(), obs::TraceType::SubflowClose, token_);
  CB_LOG(Debug, "mptcp") << "subflow closed (" << reason << ")";
  if (active_subflow() != nullptr) {
    try_send();
    return;
  }
  // No path left: start the watch-for-address timeout unless a replacement
  // is already being set up.
  if (!address_wait_timer_.pending() && !path_timeout_timer_.pending()) {
    path_timeout_timer_ = stack_.simulator().schedule(kMptcpPathTimeout, [this] {
      finish("path timeout: no address within watch window");
    });
  }
}

void MptcpSocket::handle_address_loss(net::Ipv4Addr addr) {
  if (finished_) return;
  bool lost_any = false;
  for (auto& sf : subflows_) {
    if (!sf.dead && sf.tcp->local().addr == addr) {
      lost_any = true;
      sf.retire();
      sf.tcp->on_closed = nullptr;  // silent death: no notification path
      sf.tcp->abort_silent();
    }
  }
  if (!lost_any) return;
  pending_remove_ = addr;
  if (active_subflow() == nullptr && !path_timeout_timer_.pending()) {
    path_timeout_timer_ = stack_.simulator().schedule(kMptcpPathTimeout, [this] {
      finish("path timeout: no address within watch window");
    });
  }
}

void MptcpSocket::handle_address_available(net::Ipv4Addr addr) {
  if (finished_ || role_ != Role::Client) return;
  if (active_subflow() != nullptr) return;  // current path still fine
  address_wait_timer_.cancel();
  obs::inc(obs::counter("mptcp.subflows.switches"));
  obs::trace(stack_.simulator().now(), obs::TraceType::SubflowSwitch, token_);
  const Duration wait = stack_.address_wait_;
  if (wait == Duration::zero()) {
    add_client_subflow(addr);
    return;
  }
  // Mainline MPTCP's address_worker delay before corrective action.
  address_wait_timer_ = stack_.simulator().schedule(wait, [this, addr] {
    if (!finished_) add_client_subflow(addr);
  });
}

void MptcpSocket::maybe_finish_graceful() {
  // Fully done once our DATA_FIN is acked and the peer's EOF was delivered.
  if (fin_acked_ && eof_delivered_) finish("");
}

void MptcpSocket::finish(const std::string& reason) {
  if (finished_) return;
  finished_ = true;
  address_wait_timer_.cancel();
  path_timeout_timer_.cancel();
  dack_timer_.cancel();
  dfin_rtx_timer_.cancel();
  for (auto& sf : subflows_) {
    if (!sf.tcp) continue;
    sf.tcp->on_data = nullptr;
    sf.tcp->on_closed = nullptr;
    sf.tcp->on_send_space = nullptr;
    sf.tcp->on_connected = nullptr;
    if (sf.dead) continue;
    if (reason.empty()) {
      sf.tcp->close();  // graceful: let TCP FINs drain
    } else {
      sf.tcp->abort();
    }
    sf.retire();
  }
  if (!reason.empty() && !eof_delivered_ && on_closed) on_closed(reason);
  // Break callback cycles through our own shared_ptr (apps capture the
  // connection in its own on_data/on_closed), mirroring TcpSocket::finish.
  on_connected = nullptr;
  on_data = nullptr;
  on_send_space = nullptr;
  on_closed = nullptr;
  stack_.deregister_connection(token_);
}

// --- MptcpStack ----------------------------------------------------------------

MptcpStack::MptcpStack(net::Node& node, TcpStack& tcp, Duration address_wait)
    : node_(node),
      tcp_(tcp),
      address_wait_(address_wait),
      rng_(node.simulator().rng().fork(0x3B7C)) {
  node_.bind_udp(kMptcpDackPort, [this](const net::Packet& p) { on_dack_datagram(p); });
}

MptcpStack::~MptcpStack() {
  node_.unbind_udp(kMptcpDackPort);
  // Connections still alive at teardown: break app-closure cycles through
  // their own shared_ptr, same as ~TcpStack does for plain sockets.
  // Also mark them finished: a connection may outlive the stack (an event
  // closure owning it is released at simulator teardown), and its finish()
  // must not re-enter deregister_connection() against this freed stack.
  for (auto& [token, weak] : by_token_) {
    if (auto conn = weak.lock()) {
      conn->finished_ = true;
      conn->address_wait_timer_.cancel();
      conn->path_timeout_timer_.cancel();
      conn->dack_timer_.cancel();
      conn->dfin_rtx_timer_.cancel();
      conn->on_connected = nullptr;
      conn->on_data = nullptr;
      conn->on_send_space = nullptr;
      conn->on_closed = nullptr;
    }
  }
}

void MptcpStack::send_dack_datagram(net::EndPoint from, net::EndPoint to,
                                    std::uint64_t token, std::uint64_t dack) {
  ByteWriter w;
  w.reserve(16);
  w.u64(token);
  w.u64(dack);
  net::Packet p;
  p.src = net::EndPoint{from.addr, kMptcpDackPort};
  p.dst = net::EndPoint{to.addr, kMptcpDackPort};
  p.proto = net::Proto::Udp;
  p.payload = w.take();
  node_.send(std::move(p));
}

void MptcpStack::on_dack_datagram(const net::Packet& packet) {
  try {
    ByteReader r(packet.payload);
    const std::uint64_t token = r.u64();
    const std::uint64_t dack = r.u64();
    auto it = by_token_.find(token);
    if (it == by_token_.end()) return;
    if (auto conn = it->second.lock()) conn->handle_dack(dack);
  } catch (const std::out_of_range&) {
  }
}

std::uint64_t MptcpStack::fresh_token() {
  for (;;) {
    const std::uint64_t t = rng_.next_u64();
    if (t != 0 && !by_token_.contains(t)) return t;
  }
}

std::shared_ptr<MptcpSocket> MptcpStack::connect(net::EndPoint remote,
                                                 net::Ipv4Addr local_addr) {
  auto conn = std::shared_ptr<MptcpSocket>(
      new MptcpSocket(*this, MptcpSocket::Role::Client, fresh_token(), remote));
  register_connection(conn);
  conn->start_initial_subflow(local_addr);
  return conn;
}

void MptcpStack::listen(std::uint16_t port, AcceptCallback on_accept) {
  listeners_[port] = std::move(on_accept);
  tcp_.listen(port, [this, port](std::shared_ptr<TcpSocket> tcp_socket) {
    auto pending = std::make_shared<PendingSubflow>();
    pending->tcp = std::move(tcp_socket);
    pending->port = port;
    pending->tcp->on_data = [this, pending](BytesView data) {
      pending->rx.append(data);
      on_pending_data(pending);
    };
    pending->tcp->on_closed = [pending](const std::string&) {
      // Died before identifying itself; nothing to clean up beyond TCP.
    };
  });
}

void MptcpStack::on_pending_data(const std::shared_ptr<PendingSubflow>& pending) {
  // Local copy: replacing tcp->on_data below destroys the closure that owns
  // the reference we were called with.
  const std::shared_ptr<PendingSubflow> sub = pending;
  if (sub->rx.size() < 9) return;
  ByteReader r(sub->rx.view(0, 9));
  const auto type = static_cast<Rec>(r.u8());
  const std::uint64_t token = r.u64();
  sub->rx.pop(9);

  // Hand off: the connection takes over the TCP callbacks. Deferred to a
  // fresh event so we are no longer inside the on_data we are replacing.
  sub->tcp->on_data = nullptr;
  sub->tcp->on_closed = nullptr;

  if (type == Rec::Cap) {
    auto conn = std::shared_ptr<MptcpSocket>(new MptcpSocket(
        *this, MptcpSocket::Role::Server, token, sub->tcp->remote()));
    register_connection(conn);
    conn->adopt_server_subflow(sub->tcp, std::move(sub->rx));
    auto it = listeners_.find(sub->port);
    if (it != listeners_.end()) it->second(conn);
    return;
  }
  if (type == Rec::Join) {
    auto it = by_token_.find(token);
    std::shared_ptr<MptcpSocket> conn = it != by_token_.end() ? it->second.lock() : nullptr;
    if (conn == nullptr || conn->finished_) {
      sub->tcp->abort();
      return;
    }
    conn->adopt_server_subflow(sub->tcp, std::move(sub->rx));
    return;
  }
  sub->tcp->abort();  // protocol error: first record must identify
}

void MptcpStack::notify_address_invalidated(net::Ipv4Addr addr) {
  for (auto& [token, weak] : by_token_) {
    if (auto conn = weak.lock()) conn->handle_address_loss(addr);
  }
}

void MptcpStack::notify_address_available(net::Ipv4Addr addr) {
  // Copy: handle_address_available may mutate the registry via finish().
  std::vector<std::shared_ptr<MptcpSocket>> conns;
  for (auto& [token, weak] : by_token_) {
    if (auto conn = weak.lock()) conns.push_back(std::move(conn));
  }
  for (auto& conn : conns) conn->handle_address_available(addr);
}

void MptcpStack::register_connection(const std::shared_ptr<MptcpSocket>& conn) {
  by_token_[conn->token()] = conn;
}

void MptcpStack::deregister_connection(std::uint64_t token) { by_token_.erase(token); }

}  // namespace cb::transport
