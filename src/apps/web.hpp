// Web browsing (page downloading) — Table 1's "Web: Avg. Load Time".
//
// Each page load fetches a set of objects over a small pool of concurrent
// connections (fresh connections per page, like a browser's first visit);
// load time runs from navigation start until the last object completes.
// Pages repeat with a think time in between.
#pragma once

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "transport/factory.hpp"

namespace cb::apps {

/// Serves object requests: [u32 size] -> that many bytes.
class WebServer {
 public:
  WebServer(transport::StreamTransport transport, std::uint16_t port);

 private:
  struct Conn;
  std::vector<std::shared_ptr<Conn>> conns_;
};

class WebClient {
 public:
  WebClient(transport::StreamTransport transport, net::EndPoint server,
            sim::Simulator& sim);

  void start();
  void stop();

  const Summary& load_times_s() const { return load_times_; }
  std::uint64_t pages_loaded() const { return pages_; }
  std::uint64_t pages_failed() const { return failures_; }

 private:
  struct PageLoad;
  void start_page();

  transport::StreamTransport transport_;
  net::EndPoint server_;
  sim::Simulator& sim_;
  bool running_ = false;
  std::shared_ptr<PageLoad> current_;
  Summary load_times_;
  std::uint64_t pages_ = 0;
  std::uint64_t failures_ = 0;
  sim::EventHandle timer_;
};

}  // namespace cb::apps
