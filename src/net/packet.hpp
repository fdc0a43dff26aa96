// The unit of data exchanged by simulated nodes.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/cow_bytes.hpp"
#include "net/address.hpp"

namespace cb::net {

/// L4 protocol selector for host-stack demux.
enum class Proto : std::uint8_t { Udp, Tcp };

/// L2/L3 header bytes every packet adds to its payload in link-time and
/// byte-accounting computations.
inline constexpr std::size_t kPacketOverhead = 40;

/// A network packet. The payload is the serialized L4 content (UDP datagram
/// body or a serialized TCP segment). Payloads are copy-on-write: copying a
/// Packet shares the buffer, so fan-out and link-hop copies are O(1) (see
/// cow_bytes.hpp).
struct Packet {
  EndPoint src;
  EndPoint dst;
  Proto proto = Proto::Udp;
  CowBytes payload;
  std::uint8_t ttl = 64;

  /// Bytes this packet occupies on a link.
  std::size_t wire_size() const { return payload.size() + kPacketOverhead; }
};

}  // namespace cb::net
