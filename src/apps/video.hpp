// HLS-style adaptive video streaming — Table 1's "Video: Avg. Quality
// Level".
//
// The server offers each segment at quality levels 0-5 (144p..720p ladder,
// as in the paper's ffmpeg-transcoded setup); the hls.js-like client keeps a
// playout buffer, estimates throughput with an EWMA, and requests the
// highest level sustainable — so handover throughput dips show up as level
// drops or rebuffering, which segment buffering largely absorbs (the paper's
// explanation for video's insensitivity).
#pragma once

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "transport/factory.hpp"

namespace cb::apps {

/// The encoding ladder: bitrate per quality level, bits/s.
inline constexpr double kHlsLadderBps[] = {200e3, 400e3, 800e3, 1500e3, 2500e3, 4000e3};
inline constexpr int kHlsLevels = 6;
/// Media seconds per segment, on the server and in the client's buffer.
inline constexpr Duration kHlsSegment = Duration::s(4);

/// Serves segment requests: [u8 level][u32 segment] -> [u32 len][bytes].
class HlsServer {
 public:
  HlsServer(transport::StreamTransport transport, std::uint16_t port);

 private:
  struct Conn;
  std::vector<std::shared_ptr<Conn>> conns_;
};

/// ABR client: downloads segments back-to-back, plays them out in real time.
class HlsClient {
 public:
  HlsClient(transport::StreamTransport transport, net::EndPoint server,
            sim::Simulator& sim);

  void start();
  void stop();

  /// Mean quality level over played segments (the Table-1 metric).
  double avg_quality_level() const;
  std::uint64_t segments_played() const { return played_; }
  std::uint64_t rebuffer_events() const { return rebuffers_; }

 private:
  void request_next();
  void on_data(BytesView data);
  void playout_tick();
  int pick_level() const;
  void reconnect();

  transport::StreamTransport transport_;
  net::EndPoint server_;
  sim::Simulator& sim_;
  std::shared_ptr<transport::StreamSocket> socket_;
  bool running_ = false;

  std::uint32_t next_segment_ = 0;
  bool awaiting_ = false;
  std::size_t expected_bytes_ = 0;
  std::size_t received_bytes_ = 0;
  bool have_header_ = false;
  Bytes header_buf_;
  TimePoint request_started_;
  int inflight_level_ = 0;

  double throughput_ewma_bps_ = 0.0;
  double buffer_s_ = 0.0;
  bool playing_ = false;
  std::uint64_t played_ = 0;
  std::uint64_t rebuffers_ = 0;
  double level_sum_ = 0.0;
  std::vector<int> buffered_levels_;  // levels queued for playout
  sim::EventHandle play_timer_;
};

}  // namespace cb::apps
