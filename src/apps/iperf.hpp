// iperf-style bulk transfer: a sink listens, a sender pushes a continuous
// byte stream; throughput is accumulated into a per-interval time series —
// the workload behind Table 1's "iPerf Avg. Throughput", Fig.8, Fig.9 and
// Fig.10.
#pragma once

#include <memory>

#include "common/stats.hpp"
#include "transport/factory.hpp"

namespace cb::apps {

/// Server side: accepts connections and counts received bytes over time.
class IperfSink {
 public:
  IperfSink(transport::StreamTransport transport, std::uint16_t port,
            sim::Simulator& sim, Duration bucket = Duration::s(1));

  /// Bytes-per-bucket series (divide by width for rate).
  const TimeSeries& series() const { return series_; }
  std::uint64_t total_bytes() const { return total_; }
  /// Mean goodput in bits/s between first and last byte received.
  double mean_throughput_bps() const;

 private:
  sim::Simulator& sim_;
  TimeSeries series_;
  std::uint64_t total_ = 0;
  TimePoint first_byte_;
  TimePoint last_byte_;
  bool saw_data_ = false;
  std::vector<std::shared_ptr<transport::StreamSocket>> conns_;
};

/// Client side: saturates the socket for `duration`, then closes.
class IperfSender {
 public:
  IperfSender(transport::StreamTransport transport, net::EndPoint server,
              sim::Simulator& sim, Duration duration);

  bool finished() const { return finished_; }

 private:
  void pump();

  sim::Simulator& sim_;
  std::shared_ptr<transport::StreamSocket> socket_;
  Bytes chunk_;
  TimePoint deadline_;
  bool closed_ = false;
  bool finished_ = false;
};

/// Server side of a download test: accepts connections and pushes a
/// continuous stream to each for `duration` after accept.
class IperfPushServer {
 public:
  IperfPushServer(transport::StreamTransport transport, std::uint16_t port,
                  sim::Simulator& sim, Duration duration);

 private:
  struct Conn;
  sim::Simulator& sim_;
  Duration duration_;
  std::vector<std::shared_ptr<Conn>> conns_;
};

/// Client side of a download test: connects and counts received bytes into
/// a time series (Fig.8 / Fig.10 traces, Table 1 throughput).
class IperfDownloadClient {
 public:
  IperfDownloadClient(transport::StreamTransport transport, net::EndPoint server,
                      sim::Simulator& sim, Duration bucket = Duration::s(1));

  const TimeSeries& series() const { return series_; }
  std::uint64_t total_bytes() const { return total_; }
  double mean_throughput_bps() const;
  bool finished() const { return finished_; }

 private:
  sim::Simulator& sim_;
  TimeSeries series_;
  std::shared_ptr<transport::StreamSocket> socket_;
  std::uint64_t total_ = 0;
  TimePoint first_byte_;
  TimePoint last_byte_;
  bool saw_data_ = false;
  bool finished_ = false;
};

}  // namespace cb::apps
