#include "apps/web.hpp"

namespace cb::apps {

namespace {

constexpr int kObjectsPerPage = 8;
constexpr std::size_t kObjectBytes = 80 * 1024;
constexpr int kConcurrentConnections = 4;
constexpr Duration kThinkTime = Duration::s(2);
/// Abandon a page if it has not finished in this long.
constexpr Duration kPageTimeout = Duration::s(60);

}  // namespace

// --- WebServer ---------------------------------------------------------------

struct WebServer::Conn {
  std::shared_ptr<transport::StreamSocket> socket;
  Bytes request_buf;
  std::size_t body_remaining = 0;

  void on_data(BytesView data) {
    request_buf.insert(request_buf.end(), data.begin(), data.end());
    while (request_buf.size() >= 4) {
      ByteReader r(request_buf);
      const std::uint32_t size = r.u32();
      request_buf.erase(request_buf.begin(), request_buf.begin() + 4);
      body_remaining += size;
    }
    pump();
  }

  void pump() {
    static const Bytes chunk(16384, 0x77);
    while (body_remaining > 0) {
      const std::size_t want = std::min(body_remaining, chunk.size());
      const std::size_t n = socket->send(BytesView(chunk.data(), want));
      body_remaining -= n;
      if (n < want) return;
    }
  }
};

WebServer::WebServer(transport::StreamTransport transport, std::uint16_t port) {
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

// --- WebClient ---------------------------------------------------------------

struct WebClient::PageLoad {
  WebClient* parent = nullptr;
  TimePoint started;
  int objects_left = 0;
  int objects_unrequested = 0;
  std::vector<std::shared_ptr<transport::StreamSocket>> sockets;
  std::vector<std::size_t> remaining;  // per-socket bytes outstanding
  bool finished = false;
  sim::EventHandle timeout;

  void object_done(std::size_t socket_index) {
    if (finished) return;
    --objects_left;
    if (objects_left == 0) {
      finish(true);
      return;
    }
    request_on(socket_index);
  }

  void request_on(std::size_t socket_index) {
    if (objects_unrequested <= 0) return;
    --objects_unrequested;
    remaining[socket_index] = kObjectBytes;
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(kObjectBytes));
    sockets[socket_index]->send(w.data());
  }

  void finish(bool ok) {
    if (finished) return;
    finished = true;
    timeout.cancel();
    for (auto& s : sockets) s->close();
    if (ok) {
      parent->load_times_.add((parent->sim_.now() - started).to_seconds());
      parent->pages_ += 1;
    } else {
      parent->failures_ += 1;
    }
    WebClient* p = parent;
    p->timer_ = p->sim_.schedule(kThinkTime, [p] { p->start_page(); });
  }
};

WebClient::WebClient(transport::StreamTransport transport, net::EndPoint server,
                     sim::Simulator& sim)
    : transport_(std::move(transport)), server_(server), sim_(sim) {}

void WebClient::start() {
  running_ = true;
  start_page();
}

void WebClient::stop() {
  running_ = false;
  timer_.cancel();
  if (current_ && !current_->finished) {
    current_->timeout.cancel();
    for (auto& s : current_->sockets) s->close();
    current_->finished = true;
  }
}

void WebClient::start_page() {
  if (!running_) return;
  auto page = std::make_shared<PageLoad>();
  page->parent = this;
  page->started = sim_.now();
  page->objects_left = kObjectsPerPage;
  page->objects_unrequested = kObjectsPerPage;
  current_ = page;

  const int conns = std::min(kConcurrentConnections, kObjectsPerPage);
  for (int i = 0; i < conns; ++i) {
    auto socket = transport_.connect(server_);
    const auto index = static_cast<std::size_t>(i);
    page->sockets.push_back(socket);
    page->remaining.push_back(0);
    socket->on_connected = [page, index] { page->request_on(index); };
    socket->on_data = [page, index](BytesView data) {
      if (page->finished) return;
      std::size_t n = data.size();
      while (n > 0 && page->remaining[index] > 0) {
        const std::size_t take = std::min(n, page->remaining[index]);
        page->remaining[index] -= take;
        n -= take;
        if (page->remaining[index] == 0) page->object_done(index);
      }
    };
    socket->on_closed = [page](const std::string& reason) {
      if (!reason.empty() && !page->finished) page->finish(false);
    };
  }
  page->timeout = sim_.schedule(kPageTimeout, [page] { page->finish(false); });
}

}  // namespace cb::apps
