#include "transport/tcp.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace cb::transport {

// --- Wire format -----------------------------------------------------------

Bytes serialize_segment(const TcpHeader& h, BytesView payload) {
  ByteWriter w;
  w.reserve(kTcpHeaderBytes + 8 * h.sack.size() + payload.size());
  w.u32(h.seq);
  w.u32(h.ack);
  w.u32(h.window);
  std::uint8_t flags = 0;
  if (h.syn) flags |= 1;
  if (h.ack_flag) flags |= 2;
  if (h.fin) flags |= 4;
  if (h.rst) flags |= 8;
  w.u8(flags);
  w.u8(0);  // reserved
  w.u8(static_cast<std::uint8_t>(h.sack.size()));
  for (const auto& [start, end] : h.sack) {
    w.u32(start);
    w.u32(end);
  }
  w.raw(payload);
  return w.take();
}

bool parse_segment(BytesView wire, TcpHeader& h, BytesView& payload) {
  if (wire.size() < kTcpHeaderBytes) return false;
  try {
    ByteReader r(wire);
    h.seq = r.u32();
    h.ack = r.u32();
    h.window = r.u32();
    const std::uint8_t flags = r.u8();
    r.u8();
    h.syn = flags & 1;
    h.ack_flag = flags & 2;
    h.fin = flags & 4;
    h.rst = flags & 8;
    const std::uint8_t n_sack = r.u8();
    h.sack.clear();
    for (std::uint8_t i = 0; i < n_sack; ++i) {
      const std::uint32_t start = r.u32();
      const std::uint32_t end = r.u32();
      h.sack.emplace_back(start, end);
    }
    payload = wire.last(r.remaining());
    return true;
  } catch (const std::out_of_range&) {
    return false;
  }
}

// --- TcpSocket ---------------------------------------------------------------

TcpSocket::TcpSocket(TcpStack& stack, net::EndPoint local, net::EndPoint remote,
                     TcpConfig config)
    : stack_(stack), local_(local), remote_(remote), config_(config) {
  cwnd_ = static_cast<double>(config_.initial_cwnd_segments * config_.mss);
  ssthresh_ = config_.receive_window;  // effectively "infinite" until loss
  rto_ = config_.initial_rto;
  snd_wnd_ = static_cast<std::uint32_t>(config_.receive_window);
}

TcpSocket::~TcpSocket() {
  rtx_timer_.cancel();
  time_wait_timer_.cancel();
  connect_timer_.cancel();
}

std::uint32_t TcpSocket::fin_seq() const {
  return snd_una_ + static_cast<std::uint32_t>(send_buffer_.size());
}

std::size_t TcpSocket::flight_size() const {
  const std::size_t outstanding = snd_nxt_ - snd_una_;
  return outstanding > sacked_bytes_ ? outstanding - sacked_bytes_ : 0;
}

std::size_t TcpSocket::send_space() const {
  return config_.send_buffer - send_buffer_.size();
}

std::size_t TcpSocket::send(BytesView data) {
  if (state_ != State::Established && state_ != State::CloseWait &&
      state_ != State::SynSent) {
    return 0;
  }
  if (fin_pending_ || fin_sent_) return 0;
  const std::size_t take = std::min(data.size(), send_space());
  send_buffer_.append(data.subspan(0, take));
  if (state_ == State::Established || state_ == State::CloseWait) try_send();
  return take;
}

void TcpSocket::close() {
  if (fin_pending_ || fin_sent_) return;
  switch (state_) {
    case State::SynSent:
      finish("closed before connect");
      return;
    case State::Established:
    case State::SynReceived:
    case State::CloseWait:
      fin_pending_ = true;
      try_send();
      return;
    default:
      return;
  }
}

void TcpSocket::abort() {
  if (state_ == State::Closed) return;
  TcpHeader h;
  h.seq = snd_nxt_;
  h.ack = rcv_nxt_;
  h.ack_flag = true;
  h.rst = true;
  emit(h, {});
  finish("reset by local");
}

void TcpSocket::abort_silent() {
  if (state_ == State::Closed) return;
  finish("aborted (silent)");
}

void TcpSocket::start_connect() {
  state_ = State::SynSent;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  recover_ = iss_;
  send_control(/*syn=*/true, /*ack=*/false, iss_);
  ++syn_attempts_;
  const Duration delay = config_.initial_rto * (1LL << std::min(syn_attempts_ - 1, 6));
  connect_timer_ = stack_.simulator().schedule(delay, [this] {
    if (state_ != State::SynSent) return;
    if (syn_attempts_ >= config_.syn_retries) {
      finish("connect timeout");
      return;
    }
    start_connect();  // retransmit SYN with backoff
  });
}

void TcpSocket::start_passive(std::uint32_t peer_iss) {
  state_ = State::SynReceived;
  irs_ = peer_iss;
  rcv_nxt_ = peer_iss + 1;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  recover_ = iss_;
  send_control(/*syn=*/true, /*ack=*/true, iss_);
  ++syn_attempts_;
  connect_timer_ = stack_.simulator().schedule(config_.initial_rto, [this] {
    if (state_ != State::SynReceived) return;
    if (syn_attempts_ >= config_.syn_retries) {
      finish("accept timeout");
      return;
    }
    start_passive(irs_);
  });
}

void TcpSocket::send_control(bool syn, bool ack, std::uint32_t seq) {
  TcpHeader h;
  h.seq = seq;
  h.ack = rcv_nxt_;
  h.syn = syn;
  h.ack_flag = ack;
  h.window = static_cast<std::uint32_t>(config_.receive_window);
  emit(h, {});
}

void TcpSocket::send_ack() {
  TcpHeader h;
  h.seq = snd_nxt_;
  h.ack = rcv_nxt_;
  h.ack_flag = true;
  h.window = static_cast<std::uint32_t>(config_.receive_window);
  h.sack = receiver_sack_blocks();
  emit(h, {});
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> TcpSocket::receiver_sack_blocks() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> blocks;
  for (const auto& [offset, data] : out_of_order_) {
    const std::uint32_t start = irs_ + offset;
    const std::uint32_t end = start + static_cast<std::uint32_t>(data.size());
    if (!blocks.empty() && blocks.back().second == start) {
      blocks.back().second = end;  // merge adjacent
    } else {
      if (blocks.size() == 3) break;
      blocks.emplace_back(start, end);
    }
  }
  return blocks;
}

void TcpSocket::add_sack_range(std::uint32_t start_abs, std::uint32_t end_abs) {
  // Clamp to the outstanding window; ignore stale info.
  if (seq_le(end_abs, snd_una_) || seq_lt(snd_nxt_, start_abs)) return;
  std::uint32_t s = rel(seq_lt(start_abs, snd_una_) ? snd_una_ : start_abs);
  std::uint32_t e = rel(seq_lt(snd_nxt_, end_abs) ? snd_nxt_ : end_abs);
  if (s >= e) return;

  // Merge [s, e) into the scoreboard.
  auto it = sacked_.lower_bound(s);
  if (it != sacked_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= s) {
      s = prev->first;
      e = std::max(e, prev->second);
      it = prev;
    }
  }
  while (it != sacked_.end() && it->first <= e) {
    e = std::max(e, it->second);
    sacked_bytes_ -= it->second - it->first;
    it = sacked_.erase(it);
  }
  sacked_[s] = e;
  sacked_bytes_ += e - s;
}

void TcpSocket::prune_scoreboard() {
  const std::uint32_t una = rel(snd_una_);
  auto it = sacked_.begin();
  while (it != sacked_.end() && it->second <= una) {
    sacked_bytes_ -= it->second - it->first;
    it = sacked_.erase(it);
  }
  if (it != sacked_.end() && it->first < una) {
    sacked_bytes_ -= una - it->first;
    const std::uint32_t end = it->second;
    sacked_.erase(it);
    sacked_[una] = end;
  }
}

std::pair<std::uint32_t, std::size_t> TcpSocket::next_hole(std::uint32_t from_rel) const {
  const std::uint32_t limit = rel(snd_nxt_);
  std::uint32_t pos = std::max(from_rel, rel(snd_una_));
  while (pos < limit) {
    auto it = sacked_.upper_bound(pos);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > pos) {
        pos = prev->second;  // inside a sacked range: skip it
        continue;
      }
    }
    const std::uint32_t hole_end = it == sacked_.end() ? limit : std::min(it->first, limit);
    if (hole_end > pos) return {pos, hole_end - pos};
    break;
  }
  return {limit, 0};
}

void TcpSocket::retransmit_holes(int budget, bool force_first) {
  // RFC 6675-style pipe gating: retransmissions also respect the window —
  // except the fast-retransmit itself (RFC 5681 sends the lost segment
  // unconditionally; without this the repair can sit behind a bloated
  // queue's worth of pipe for seconds).
  const std::size_t usable = std::min<std::size_t>(static_cast<std::size_t>(cwnd_), snd_wnd_);
  while (budget > 0) {
    if (!force_first && flight_size() >= usable) {
      CB_LOG(Trace, "tcp") << local_.to_string() << " retx gated: flight "
                           << flight_size() << " >= usable " << usable;
      return;
    }
    force_first = false;
    auto [start_rel, hole_len] = next_hole(std::max(retx_cursor_rel_, rel(snd_una_)));
    if (hole_len == 0) return;
    const std::uint32_t seq = iss_ + start_rel;
    const std::size_t buffer_offset = start_rel - rel(snd_una_);
    const std::size_t data_in_hole =
        send_buffer_.size() > buffer_offset
            ? std::min<std::size_t>(hole_len, send_buffer_.size() - buffer_offset)
            : 0;
    if (data_in_hole > 0) {
      const std::size_t len = std::min(data_in_hole, config_.mss);
      send_segment(seq, len, /*fin=*/false);
      retx_cursor_rel_ = start_rel + static_cast<std::uint32_t>(len);
    } else if (fin_sent_) {
      send_segment(seq, 0, /*fin=*/true);
      retx_cursor_rel_ = start_rel + 1;
    } else {
      return;
    }
    ++retransmits_;
    obs::inc(stack_.obs_rtx_);
    rtt_sampling_ = false;
    --budget;
  }
}

void TcpSocket::emit(const TcpHeader& h, BytesView payload) {
  stack_.transmit(local_, remote_, serialize_segment(h, payload));
}

void TcpSocket::send_segment(std::uint32_t seq, std::size_t len, bool fin) {
  TcpHeader h;
  h.seq = seq;
  h.ack = rcv_nxt_;
  h.ack_flag = true;
  h.fin = fin;
  h.window = static_cast<std::uint32_t>(config_.receive_window);
  h.sack = receiver_sack_blocks();
  emit(h, send_buffer_.view(seq - snd_una_, len));

  // Time one never-before-sent segment at a time (Karn's rule: only bytes
  // above the high-water mark are first transmissions).
  if (!rtt_sampling_ && len > 0 && rel(seq) >= highest_sent_rel_) {
    rtt_sampling_ = true;
    rtt_seq_ = seq + static_cast<std::uint32_t>(len);
    rtt_sent_at_ = stack_.simulator().now();
  }
  const std::uint32_t end_rel = rel(seq) + static_cast<std::uint32_t>(len) + (fin ? 1 : 0);
  if (end_rel > highest_sent_rel_) highest_sent_rel_ = end_rel;
}

void TcpSocket::try_send() {
  if (state_ != State::Established && state_ != State::CloseWait &&
      state_ != State::FinWait1 && state_ != State::Closing &&
      state_ != State::LastAck) {
    return;
  }

  const std::size_t usable = std::min<std::size_t>(static_cast<std::size_t>(cwnd_), snd_wnd_);
  bool sent_anything = false;

  for (;;) {
    // Skip over ranges the receiver already holds (a post-RTO go-back walk
    // moves forward through the scoreboard without resending sacked data).
    auto it = sacked_.upper_bound(rel(snd_nxt_));
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > rel(snd_nxt_)) {
        snd_nxt_ = iss_ + prev->second;
        continue;
      }
    }
    const std::size_t flight = flight_size();
    const std::size_t unsent_offset = snd_nxt_ - snd_una_;
    const std::size_t unsent =
        send_buffer_.size() > unsent_offset ? send_buffer_.size() - unsent_offset : 0;
    if (unsent == 0) break;
    if (flight >= usable) break;
    std::size_t len = std::min({unsent, config_.mss, usable - flight});
    if (it != sacked_.end()) {
      len = std::min<std::size_t>(len, it->first - rel(snd_nxt_));
    }
    if (len == 0) break;
    // Sender-side SWS avoidance (RFC 1122 4.2.3.4): when the window — not
    // the application — is what truncates the segment below one MSS, hold it
    // until an ACK opens more window. Without this a bulk sender degenerates
    // into MSS/8-sized segments (each ACK opens a sliver, which is sent
    // immediately, which produces an equally small ACK) and wastes ~20% of a
    // bottleneck link on headers. Data-limited small writes (signaling,
    // request/response apps) still go out immediately, and a drained flight
    // always permits a send, so progress is never deadlocked. Gate on the
    // window residual, not len: a segment clamped sub-MSS by the sacked_
    // boundary (a hole in front of sacked data during a post-RTO walk) must
    // go out now, not wait for the flight to drain.
    if (usable - flight < config_.mss && len < unsent && flight > 0) break;
    send_segment(snd_nxt_, len, /*fin=*/false);
    snd_nxt_ += static_cast<std::uint32_t>(len);
    sent_anything = true;
  }

  // Send FIN once all data is out (FIN consumes one sequence number).
  if (fin_pending_ && !fin_sent_ && snd_nxt_ == fin_seq()) {
    send_segment(snd_nxt_, 0, /*fin=*/true);
    snd_nxt_ += 1;
    fin_sent_ = true;
    fin_pending_ = false;
    sent_anything = true;
    if (state_ == State::Established) state_ = State::FinWait1;
    else if (state_ == State::CloseWait) state_ = State::LastAck;
  }

  if (sent_anything && !rtx_timer_.pending()) arm_rtx_timer();
}

void TcpSocket::arm_rtx_timer() {
  rtx_timer_.cancel();
  Duration rto = rto_ * (1LL << std::min(backoff_, 6));
  rto = std::min(rto, config_.max_rto);
  rtx_timer_ = stack_.simulator().schedule(rto, [this] { on_rto(); });
}

void TcpSocket::cancel_rtx_timer() { rtx_timer_.cancel(); }

void TcpSocket::on_rto() {
  if (state_ == State::Closed || flight_size() == 0) return;
  CB_LOG(Debug, "tcp") << local_.to_string() << " RTO, cwnd reset, retransmit "
                       << snd_una_;
  ssthresh_ = std::max<std::size_t>((snd_nxt_ - snd_una_) / 2, 2 * config_.mss);
  cwnd_ = static_cast<double>(config_.mss);
  in_fast_recovery_ = false;
  dup_acks_ = 0;
  recover_ = snd_nxt_;  // RFC 6582: no dup-ack recovery for pre-RTO holes
  ++backoff_;
  rtt_sampling_ = false;
  ++retransmits_;
  obs::inc(stack_.obs_rtx_);
  obs::inc(stack_.obs_rto_);
  // Go-back with SACK awareness: resume from the oldest unacked byte; the
  // forward walk in try_send skips ranges the receiver already has.
  snd_nxt_ = snd_una_;
  retx_cursor_rel_ = rel(snd_una_);
  if (fin_sent_) {
    fin_sent_ = false;
    fin_pending_ = true;
  }
  try_send();
  arm_rtx_timer();
}

void TcpSocket::on_segment(const TcpHeader& h, BytesView payload) {
  if (h.rst) {
    finish("reset by peer");
    return;
  }

  switch (state_) {
    case State::SynSent:
      if (h.syn && h.ack_flag && h.ack == snd_nxt_) {
        connect_timer_.cancel();
        irs_ = h.seq;
        rcv_nxt_ = h.seq + 1;
        snd_una_ = h.ack;
        snd_wnd_ = h.window;
        state_ = State::Established;
        send_ack();
        if (on_connected) on_connected();
        try_send();
      }
      return;

    case State::SynReceived:
      if (h.ack_flag && h.ack == snd_nxt_) {
        connect_timer_.cancel();
        snd_una_ = h.ack;
        snd_wnd_ = h.window;
        state_ = State::Established;
        stack_.on_established(this);
        // The handshake ACK may carry data.
        if (!payload.empty() || h.fin) handle_data(h, payload);
        return;
      }
      if (h.syn && !h.ack_flag) {
        // Duplicate SYN: re-send SYN-ACK.
        send_control(true, true, iss_);
      }
      return;

    case State::Closed:
      return;

    default:
      break;
  }

  if (h.syn) return;  // stray SYN on an established connection: ignore

  if (h.ack_flag) handle_ack(h, payload.empty());
  if (state_ == State::Closed) return;  // finish() may have run
  if (!payload.empty() || h.fin) handle_data(h, payload);
}

void TcpSocket::handle_ack(const TcpHeader& h, bool pure_ack) {
  snd_wnd_ = h.window;

  bool new_sack_info = false;
  for (const auto& [start, end] : h.sack) {
    const std::size_t before = sacked_bytes_;
    add_sack_range(start, end);
    if (sacked_bytes_ != before) new_sack_info = true;
  }

  if (seq_lt(snd_nxt_, h.ack)) {
    // After a go-back-N reset the peer can legitimately ack bytes above the
    // rewound snd_nxt_ (they arrived before the reset): adopt its view.
    if (seq_le(h.ack, fin_seq() + 1)) {
      snd_nxt_ = h.ack;
    } else {
      return;  // acks data that was never sent: ignore
    }
  }

  if (seq_lt(snd_una_, h.ack)) {
    const std::uint32_t acked = h.ack - snd_una_;
    const std::size_t popped = std::min<std::size_t>(acked, send_buffer_.size());
    send_buffer_.pop(popped);
    bytes_acked_total_ += popped;
    snd_una_ = h.ack;
    dup_acks_ = 0;
    backoff_ = 0;
    prune_scoreboard();

    // RTT sample (Karn-safe: rtt_sampling_ is cleared on any retransmit).
    if (rtt_sampling_ && seq_le(rtt_seq_, h.ack)) {
      const Duration sample = stack_.simulator().now() - rtt_sent_at_;
      if (srtt_ == Duration::zero()) {
        srtt_ = sample;
        rttvar_ = sample / 2;
      } else {
        const Duration err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
        rttvar_ = rttvar_ * 0.75 + err * 0.25;
        srtt_ = srtt_ * 0.875 + sample * 0.125;
      }
      rto_ = std::max(srtt_ + rttvar_ * 4, config_.min_rto);
      rtt_sampling_ = false;

      if (min_rtt_ == Duration::zero() || sample < min_rtt_) min_rtt_ = sample;
      // HyStart-style delay-based slow-start exit: a queueing-delay rise
      // means the pipe is full — stop doubling before the queue overflows.
      if (static_cast<std::size_t>(cwnd_) < ssthresh_ && min_rtt_ > Duration::zero()) {
        const Duration threshold =
            std::clamp(min_rtt_ / 8, Duration::ms(4), Duration::ms(16));
        if (sample > min_rtt_ + threshold) {
          ssthresh_ = static_cast<std::size_t>(cwnd_);
        }
      }
    }

    if (in_fast_recovery_) {
      if (seq_le(recover_, h.ack)) {
        // Full ACK: leave recovery.
        in_fast_recovery_ = false;
        cwnd_ = static_cast<double>(ssthresh_);
      } else {
        // Partial ACK: repair the next hole(s), stay in recovery.
        retx_cursor_rel_ = std::max(retx_cursor_rel_, rel(snd_una_));
        retransmit_holes(2);
      }
    } else {
      if (static_cast<std::size_t>(cwnd_) < ssthresh_) {
        cwnd_ += static_cast<double>(std::min<std::size_t>(acked, config_.mss));
      } else {
        cwnd_ += static_cast<double>(config_.mss) * static_cast<double>(config_.mss) / cwnd_;
      }
    }

    if (flight_size() == 0) {
      cancel_rtx_timer();
    } else {
      arm_rtx_timer();
    }

    // FIN acknowledgement transitions.
    if (fin_sent_ && h.ack == snd_nxt_) {
      if (state_ == State::FinWait1) {
        state_ = State::FinWait2;
      } else if (state_ == State::Closing) {
        enter_time_wait();
        return;
      } else if (state_ == State::LastAck) {
        finish("");
        return;
      }
    }

    if (popped > 0 && on_send_space && send_space() > 0) on_send_space();
    if (state_ != State::Closed) try_send();
    return;
  }

  // Duplicate ACK handling: only pure (data-less) non-advancing ACKs count
  // — data segments from the peer legitimately repeat the ack number.
  if (pure_ack && h.ack == snd_una_ && snd_nxt_ != snd_una_ && !h.fin) {
    if (new_sack_info || h.sack.empty()) ++dup_acks_;
    // RFC 6582/6675 "recover" guard: at most one window reduction per
    // round trip of loss — re-entry is allowed only once the cumulative
    // ack has passed the previous recovery point.
    if (dup_acks_ >= 3 && !in_fast_recovery_ && seq_le(recover_, snd_una_)) {
      // Enter SACK-based loss recovery (RFC 6675 pipe model): halve the
      // window; the SACK-adjusted flight gates every transmission, so each
      // arriving (dup) ack clocks out roughly one repair segment.
      ssthresh_ = std::max<std::size_t>((snd_nxt_ - snd_una_) / 2, 2 * config_.mss);
      cwnd_ = static_cast<double>(ssthresh_);
      in_fast_recovery_ = true;
      recover_ = snd_nxt_;
      retx_cursor_rel_ = rel(snd_una_);
      CB_LOG(Trace, "tcp") << local_.to_string() << " enter recovery: cwnd " << cwnd_
                           << " outstanding " << snd_nxt_ - snd_una_ << " sacked "
                           << sacked_bytes_;
      retransmit_holes(1, /*force_first=*/true);
      arm_rtx_timer();
    } else if (in_fast_recovery_) {
      retransmit_holes(2);
      try_send();
      arm_rtx_timer();
    }
  }
}

void TcpSocket::handle_data(const TcpHeader& h, BytesView payload) {
  if (h.fin) {
    peer_fin_received_ = true;
    peer_fin_seq_ = h.seq + static_cast<std::uint32_t>(payload.size());
  }

  if (!payload.empty()) {
    const std::uint32_t seg_end = h.seq + static_cast<std::uint32_t>(payload.size());
    if (seq_le(seg_end, rcv_nxt_)) {
      send_ack();  // fully duplicate
    } else if (seq_lt(rcv_nxt_, h.seq)) {
      // The one receive-side copy: out-of-order data outlives its packet.
      out_of_order_.emplace(h.seq - irs_, Bytes(payload.begin(), payload.end()));
      send_ack();  // duplicate ACK signals the hole
    } else {
      // In-order (possibly with overlap to trim).
      const BytesView fresh = payload.subspan(rcv_nxt_ - h.seq);
      rcv_nxt_ += static_cast<std::uint32_t>(fresh.size());
      if (on_data) {
        auto cb = on_data;  // callee may reassign on_data (MPTCP handoff)
        cb(fresh);
      }
      if (state_ == State::Closed) return;  // app closed us re-entrantly

      // Drain any contiguous out-of-order segments. Each leaves the map
      // before delivery, so the callee may close us (finish() clears it).
      while (!out_of_order_.empty()) {
        auto it = out_of_order_.begin();
        const std::uint32_t start = irs_ + it->first;
        if (seq_lt(rcv_nxt_, start)) break;
        const auto segment = out_of_order_.extract(it);
        const std::uint32_t end = start + static_cast<std::uint32_t>(segment.mapped().size());
        if (seq_lt(rcv_nxt_, end)) {
          const BytesView tail = BytesView(segment.mapped()).subspan(rcv_nxt_ - start);
          rcv_nxt_ = end;
          if (on_data) {
            auto cb = on_data;
            cb(tail);
          }
          if (state_ == State::Closed) return;
        }
      }
      send_ack();
    }
  }

  // Process the peer's FIN only once all data before it has arrived.
  if (peer_fin_received_ && rcv_nxt_ == peer_fin_seq_) {
    peer_fin_received_ = false;
    rcv_nxt_ += 1;
    send_ack();
    switch (state_) {
      case State::Established:
        state_ = State::CloseWait;
        if (on_closed) on_closed("");
        break;
      case State::FinWait1:
        // Our FIN unacked yet: simultaneous close.
        state_ = State::Closing;
        if (on_closed) on_closed("");
        break;
      case State::FinWait2:
        if (on_closed) on_closed("");
        enter_time_wait();
        break;
      default:
        break;
    }
  }
}

void TcpSocket::enter_time_wait() {
  state_ = State::TimeWait;
  cancel_rtx_timer();
  time_wait_timer_ = stack_.simulator().schedule(Duration::ms(1000), [this] { finish(""); });
}

void TcpSocket::finish(const std::string& reason) {
  if (state_ == State::Closed) return;
  const bool notify = state_ != State::CloseWait && state_ != State::TimeWait &&
                      state_ != State::LastAck && state_ != State::Closing;
  state_ = State::Closed;
  rtx_timer_.cancel();
  time_wait_timer_.cancel();
  connect_timer_.cancel();
  // A closed socket sends and reassembles nothing more; free its buffers
  // (an MPTCP connection keeps its dead subflows' sockets until it ends).
  send_buffer_.clear();
  out_of_order_.clear();
  // CloseWait/TimeWait/LastAck already delivered EOF to the app when the
  // peer's FIN was processed; avoid double notification.
  if ((notify || !reason.empty()) && on_closed) on_closed(reason);
  // Break callback reference cycles: app closures routinely capture this
  // socket's own shared_ptr (listen handlers, echo servers), which would
  // otherwise keep the socket alive forever once the map entry is gone.
  on_connected = nullptr;
  on_data = nullptr;
  on_send_space = nullptr;
  on_closed = nullptr;
  stack_.deregister(this);  // may destroy *this — must be the last statement
}

// --- TcpStack -----------------------------------------------------------------

TcpStack::TcpStack(net::Node& node, TcpConfig config)
    : node_(node),
      config_(config),
      rng_(node.simulator().rng().fork(0x7C9)),
      obs_tx_(obs::counter("tcp.segments.sent")),
      obs_rx_(obs::counter("tcp.segments.received")),
      obs_rtx_(obs::counter("tcp.retransmits")),
      obs_rto_(obs::counter("tcp.rto")) {
  node_.set_tcp_demux([this](net::Packet&& p) { dispatch(std::move(p)); });
}

TcpStack::~TcpStack() {
  node_.set_tcp_demux(nullptr);
  // Sockets still open at stack teardown (test/scenario end) hold app
  // closures that may capture their own shared_ptr; drop the callbacks so
  // the cycles break and LeakSanitizer sees a clean exit. Force-close each
  // socket too: a socket may outlive the stack (an event closure owning it
  // is released later, e.g. at simulator teardown), and its destructor must
  // not re-enter finish()/deregister() against this freed stack.
  for (auto& [key, socket] : sockets_) {
    socket->state_ = TcpSocket::State::Closed;
    socket->rtx_timer_.cancel();
    socket->time_wait_timer_.cancel();
    socket->connect_timer_.cancel();
    socket->on_connected = nullptr;
    socket->on_data = nullptr;
    socket->on_send_space = nullptr;
    socket->on_closed = nullptr;
  }
}

std::uint32_t TcpStack::random_iss() { return static_cast<std::uint32_t>(rng_.next_u64()); }

std::shared_ptr<TcpSocket> TcpStack::connect(net::EndPoint remote, net::Ipv4Addr local_addr) {
  if (!local_addr.valid()) local_addr = node_.primary_address();
  const net::EndPoint local{local_addr, node_.alloc_port()};
  auto socket = std::shared_ptr<TcpSocket>(new TcpSocket(*this, local, remote, config_));
  socket->iss_ = random_iss();
  sockets_[FlowKey{local, remote}] = socket;
  socket->start_connect();
  return socket;
}

void TcpStack::listen(std::uint16_t port, AcceptCallback on_accept) {
  listeners_[port] = std::move(on_accept);
}

void TcpStack::close_listener(std::uint16_t port) { listeners_.erase(port); }

void TcpStack::on_established(TcpSocket* socket) {
  auto it = listeners_.find(socket->local().port);
  if (it == listeners_.end()) return;
  auto sit = sockets_.find(FlowKey{socket->local(), socket->remote()});
  if (sit != sockets_.end()) it->second(sit->second);
}

void TcpStack::dispatch(net::Packet&& packet) {
  // `payload` views `packet`, which outlives every callback below.
  TcpHeader h;
  BytesView payload;
  if (!parse_segment(packet.payload, h, payload)) return;
  obs::inc(obs_rx_);

  const net::EndPoint local = packet.dst;
  const net::EndPoint remote = packet.src;

  auto it = sockets_.find(FlowKey{local, remote});
  if (it != sockets_.end()) {
    // Keep the socket alive across callbacks that may deregister it.
    std::shared_ptr<TcpSocket> socket = it->second;
    socket->on_segment(h, payload);
    return;
  }

  // No socket: a SYN to a listening port creates one (passive open).
  if (h.syn && !h.ack_flag && listeners_.contains(local.port)) {
    auto socket = std::shared_ptr<TcpSocket>(new TcpSocket(*this, local, remote, config_));
    socket->iss_ = random_iss();
    sockets_[FlowKey{local, remote}] = socket;
    socket->start_passive(h.seq);
    return;
  }

  // Otherwise reset (unless the stray segment was itself a reset).
  if (!h.rst) {
    TcpHeader rst;
    rst.seq = h.ack;
    rst.ack = h.seq + static_cast<std::uint32_t>(payload.size()) + (h.syn ? 1 : 0);
    rst.ack_flag = true;
    rst.rst = true;
    transmit(local, remote, serialize_segment(rst, {}));
  }
}

void TcpStack::transmit(const net::EndPoint& src, const net::EndPoint& dst, Bytes wire) {
  obs::inc(obs_tx_);
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.proto = net::Proto::Tcp;
  p.payload = std::move(wire);
  node_.send(std::move(p));
}

void TcpStack::deregister(TcpSocket* socket) {
  sockets_.erase(FlowKey{socket->local(), socket->remote()});
}

}  // namespace cb::transport
