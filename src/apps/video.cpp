#include "apps/video.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace cb::apps {

namespace {

/// Start playback once this much media is buffered.
constexpr Duration kStartupBuffer = Duration::s(8);
/// Stop requesting when the buffer is this full.
constexpr Duration kMaxBuffer = Duration::s(30);
/// Safety factor on the throughput estimate for level selection.
constexpr double kAbrSafety = 0.8;

std::size_t segment_bytes(int level) {
  return static_cast<std::size_t>(kHlsLadderBps[level] * kHlsSegment.to_seconds() / 8.0);
}

}  // namespace

// --- HlsServer ---------------------------------------------------------------

struct HlsServer::Conn {
  std::shared_ptr<transport::StreamSocket> socket;
  Bytes request_buf;

  void on_data(BytesView data) {
    request_buf.insert(request_buf.end(), data.begin(), data.end());
    while (request_buf.size() >= 5) {
      ByteReader r(request_buf);
      const int level = std::min<int>(r.u8(), kHlsLevels - 1);
      r.u32();  // segment index (content is synthetic)
      request_buf.erase(request_buf.begin(), request_buf.begin() + 5);

      const std::size_t len = segment_bytes(level);
      ByteWriter w;
      w.u32(static_cast<std::uint32_t>(len));
      socket->send(w.data());
      // Stream the body in chunks, respecting backpressure.
      send_body(len);
    }
  }

  std::size_t body_remaining = 0;
  void send_body(std::size_t len) {
    body_remaining += len;
    pump();
  }
  void pump() {
    static const Bytes chunk(16384, 0x56);
    while (body_remaining > 0) {
      const std::size_t want = std::min(body_remaining, chunk.size());
      const std::size_t n = socket->send(BytesView(chunk.data(), want));
      body_remaining -= n;
      if (n < want) return;  // wait for on_send_space
    }
  }
};

HlsServer::HlsServer(transport::StreamTransport transport, std::uint16_t port) {
  transport.listen(port, [this](std::shared_ptr<transport::StreamSocket> s) {
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(s);
    conn->socket->on_data = [conn](BytesView d) { conn->on_data(d); };
    conn->socket->on_send_space = [conn] { conn->pump(); };
    conn->socket->on_closed = [conn](const std::string& reason) {
      if (reason.empty()) conn->socket->close();
    };
    conns_.push_back(std::move(conn));
  });
}

// --- HlsClient ---------------------------------------------------------------

HlsClient::HlsClient(transport::StreamTransport transport, net::EndPoint server,
                     sim::Simulator& sim)
    : transport_(std::move(transport)), server_(server), sim_(sim) {}

void HlsClient::start() {
  running_ = true;
  reconnect();
  playout_tick();
}

void HlsClient::stop() {
  running_ = false;
  play_timer_.cancel();
  if (socket_) socket_->close();
}

void HlsClient::reconnect() {
  if (!running_) return;
  socket_ = transport_.connect(server_);
  have_header_ = false;
  header_buf_.clear();
  awaiting_ = false;
  socket_->on_connected = [this] { request_next(); };
  socket_->on_data = [this](BytesView d) { on_data(d); };
  socket_->on_closed = [this](const std::string& reason) {
    if (!running_) return;
    CB_LOG(Debug, "hls") << "connection lost (" << reason << "), reconnecting";
    sim_.schedule(Duration::ms(500), [this] { reconnect(); });
  };
}

int HlsClient::pick_level() const {
  if (throughput_ewma_bps_ <= 0.0) return 0;  // conservative start
  const double budget = throughput_ewma_bps_ * kAbrSafety;
  int level = 0;
  for (int l = kHlsLevels - 1; l >= 0; --l) {
    if (kHlsLadderBps[l] <= budget) {
      level = l;
      break;
    }
  }
  return level;
}

void HlsClient::request_next() {
  if (!running_ || awaiting_ || socket_ == nullptr || !socket_->connected()) return;
  if (buffer_s_ >= kMaxBuffer.to_seconds()) {
    // Buffer full: re-check shortly.
    sim_.schedule(Duration::ms(200), [this] { request_next(); });
    return;
  }
  awaiting_ = true;
  have_header_ = false;
  header_buf_.clear();
  received_bytes_ = 0;
  inflight_level_ = pick_level();
  request_started_ = sim_.now();
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(inflight_level_));
  w.u32(next_segment_);
  socket_->send(w.data());
}

void HlsClient::on_data(BytesView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    if (!have_header_) {
      const std::size_t need = 4 - header_buf_.size();
      const std::size_t take = std::min(need, data.size() - off);
      header_buf_.insert(header_buf_.end(), data.begin() + static_cast<std::ptrdiff_t>(off),
                         data.begin() + static_cast<std::ptrdiff_t>(off + take));
      off += take;
      if (header_buf_.size() < 4) return;
      ByteReader r(header_buf_);
      expected_bytes_ = r.u32();
      have_header_ = true;
      received_bytes_ = 0;
    }
    const std::size_t take = std::min(expected_bytes_ - received_bytes_, data.size() - off);
    received_bytes_ += take;
    off += take;
    if (received_bytes_ == expected_bytes_) {
      // Segment complete: update ABR state and queue for playout.
      const double elapsed = (sim_.now() - request_started_).to_seconds();
      if (elapsed > 0.0) {
        const double sample = static_cast<double>(expected_bytes_) * 8.0 / elapsed;
        throughput_ewma_bps_ = throughput_ewma_bps_ <= 0.0
                                   ? sample
                                   : 0.7 * throughput_ewma_bps_ + 0.3 * sample;
      }
      buffer_s_ += kHlsSegment.to_seconds();
      buffered_levels_.push_back(inflight_level_);
      ++next_segment_;
      awaiting_ = false;
      have_header_ = false;
      request_next();
    }
  }
}

void HlsClient::playout_tick() {
  if (!running_) return;
  const double seg_s = kHlsSegment.to_seconds();
  if (!playing_) {
    if (buffer_s_ >= kStartupBuffer.to_seconds()) playing_ = true;
  }
  if (playing_) {
    if (buffer_s_ >= seg_s && !buffered_levels_.empty()) {
      buffer_s_ -= seg_s;
      level_sum_ += buffered_levels_.front();
      buffered_levels_.erase(buffered_levels_.begin());
      ++played_;
    } else {
      // Stall: wait for the buffer to refill before resuming.
      ++rebuffers_;
      playing_ = false;
    }
  }
  play_timer_ = sim_.schedule(kHlsSegment, [this] { playout_tick(); });
}

double HlsClient::avg_quality_level() const {
  return played_ > 0 ? level_sum_ / static_cast<double>(played_) : 0.0;
}

}  // namespace cb::apps
