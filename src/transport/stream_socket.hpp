// The byte-stream socket interface shared by TCP and MPTCP.
//
// Applications (iperf, video, web) are written against this interface so the
// same workload runs unmodified over TCP (the paper's MNO baseline) or MPTCP
// (CellBricks) — mirroring how the paper runs unmodified apps because
// "MPTCP is largely backward compatible with the existing socket API".
#pragma once

#include <functional>
#include <string>

#include "common/bytes.hpp"

namespace cb::transport {

class StreamSocket {
 public:
  virtual ~StreamSocket() = default;

  /// Append up to `data.size()` bytes to the send buffer; returns how many
  /// were accepted (0 when the buffer is full — wait for on_send_space).
  virtual std::size_t send(BytesView data) = 0;

  /// Graceful close: queued data is flushed, then the peer sees EOF.
  virtual void close() = 0;

  /// Free bytes in the send buffer.
  virtual std::size_t send_space() const = 0;

  virtual bool connected() const = 0;

  /// Fired once the connection is established (client side).
  std::function<void()> on_connected;
  /// In-order received bytes, viewed in place: the view is valid only
  /// during the call, so a receiver that keeps bytes copies them.
  std::function<void(BytesView)> on_data;
  /// Send-buffer space became available after being full.
  std::function<void()> on_send_space;
  /// Connection ended; empty reason = graceful EOF after close.
  std::function<void(const std::string&)> on_closed;
};

}  // namespace cb::transport
