#include "apps/iperf.hpp"

namespace cb::apps {

IperfSink::IperfSink(transport::StreamTransport transport, std::uint16_t port,
                     sim::Simulator& sim, Duration bucket)
    : sim_(sim), series_(bucket) {
  transport.listen(port, [this](std::shared_ptr<transport::StreamSocket> s) {
    auto* raw = s.get();
    raw->on_data = [this](BytesView data) {
      if (!saw_data_) {
        saw_data_ = true;
        first_byte_ = sim_.now();
      }
      last_byte_ = sim_.now();
      total_ += data.size();
      series_.add(sim_.now(), static_cast<double>(data.size()));
    };
    raw->on_closed = [this, raw](const std::string& reason) {
      if (reason.empty()) raw->close();
    };
    conns_.push_back(std::move(s));
  });
}

double IperfSink::mean_throughput_bps() const {
  if (!saw_data_ || last_byte_ <= first_byte_) return 0.0;
  return static_cast<double>(total_) * 8.0 / (last_byte_ - first_byte_).to_seconds();
}

IperfSender::IperfSender(transport::StreamTransport transport, net::EndPoint server,
                         sim::Simulator& sim, Duration duration)
    : sim_(sim), chunk_(16384, 0xA5) {
  deadline_ = sim.now() + duration;
  socket_ = transport.connect(server);
  socket_->on_connected = [this] { pump(); };
  socket_->on_send_space = [this] { pump(); };
  socket_->on_closed = [this](const std::string&) { finished_ = true; };
  // Time-based stop: check the deadline on a timer too, in case the socket
  // never fills (fast link).
  sim_.schedule(duration, [this] { pump(); });
}

struct IperfPushServer::Conn {
  std::shared_ptr<transport::StreamSocket> socket;
  Bytes chunk = Bytes(16384, 0x5C);
  TimePoint deadline;
  sim::Simulator* sim = nullptr;
  bool closed = false;

  void pump() {
    if (closed) return;
    if (sim->now() >= deadline) {
      closed = true;
      socket->close();
      return;
    }
    for (;;) {
      const std::size_t n = socket->send(chunk);
      if (n < chunk.size()) break;
    }
  }
};

IperfPushServer::IperfPushServer(transport::StreamTransport transport, std::uint16_t port,
                                 sim::Simulator& sim, Duration duration)
    : sim_(sim), duration_(duration) {
  transport.listen(port, [this](std::shared_ptr<transport::StreamSocket> s) {
    auto conn = std::make_shared<Conn>();
    conn->socket = std::move(s);
    conn->sim = &sim_;
    conn->deadline = sim_.now() + duration_;
    conn->socket->on_send_space = [conn] { conn->pump(); };
    conn->socket->on_closed = [conn](const std::string&) { conn->closed = true; };
    sim_.schedule(duration_, [conn] { conn->pump(); });  // deadline check
    conn->pump();
    conns_.push_back(std::move(conn));
  });
}

IperfDownloadClient::IperfDownloadClient(transport::StreamTransport transport,
                                         net::EndPoint server, sim::Simulator& sim,
                                         Duration bucket)
    : sim_(sim), series_(bucket) {
  socket_ = transport.connect(server);
  socket_->on_data = [this](BytesView data) {
    if (!saw_data_) {
      saw_data_ = true;
      first_byte_ = sim_.now();
    }
    last_byte_ = sim_.now();
    total_ += data.size();
    series_.add(sim_.now(), static_cast<double>(data.size()));
  };
  socket_->on_closed = [this](const std::string& reason) {
    finished_ = true;
    if (reason.empty()) socket_->close();
  };
}

double IperfDownloadClient::mean_throughput_bps() const {
  if (!saw_data_ || last_byte_ <= first_byte_) return 0.0;
  return static_cast<double>(total_) * 8.0 / (last_byte_ - first_byte_).to_seconds();
}

void IperfSender::pump() {
  if (closed_) return;
  if (sim_.now() >= deadline_) {
    closed_ = true;
    socket_->close();
    return;
  }
  for (;;) {
    if (socket_->send(chunk_) < chunk_.size()) break;  // buffer full: wait for on_send_space
  }
}

}  // namespace cb::apps
