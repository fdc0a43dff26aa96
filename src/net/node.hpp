// A network node: owns addresses, forwards packets, and hosts the L4 stack
// demux (UDP handlers and the TCP dispatcher from src/transport).
//
// Gateways (PGW, bTelco AGW) additionally use proxy addresses and forward
// hooks to anchor and meter subscriber traffic.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace cb::net {

class Node {
 public:
  Node(sim::Simulator& sim, std::string name);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  sim::Simulator& simulator() { return sim_; }

  /// Fault injection: a down node drops everything — packets it would send,
  /// receive, or forward — until brought back up. Addressing, routes, and
  /// bound handlers survive the outage (the process is gone, the config
  /// isn't).
  void set_up(bool up) { up_ = up; }
  bool is_up() const { return up_; }

  // --- Addressing -----------------------------------------------------
  void add_address(Ipv4Addr addr);
  void remove_address(Ipv4Addr addr);
  bool has_address(Ipv4Addr addr) const;
  /// Any one local address (first added), or the invalid address if none.
  Ipv4Addr primary_address() const;
  const std::vector<Ipv4Addr>& addresses() const { return addresses_; }

  /// Anchor an address here without making it local: arriving packets go to
  /// `handler` instead of the local stack (a PGW anchoring a UE address).
  void add_proxy_address(Ipv4Addr addr, std::function<void(Packet&&)> handler);
  void remove_proxy_address(Ipv4Addr addr);

  // --- Forwarding -----------------------------------------------------
  void attach_link(Link* link);
  const std::vector<Link*>& links() const { return links_; }

  void set_route(Ipv4Addr dst, Link* via);
  void clear_route(Ipv4Addr dst);
  void set_default_route(Link* via);
  /// Remove per-destination routes but keep the default route (used by the
  /// routing oracle so host-configured defaults survive recomputation).
  void clear_host_routes();
  /// Per-destination routes, default route excluded (read-only view).
  const std::unordered_map<Ipv4Addr, Link*>& host_routes() const { return routes_; }

  /// Inspect/steer transit packets before routing. Return true if the hook
  /// consumed the packet (it forwarded or dropped it itself).
  void set_forward_hook(std::function<bool(Packet&)> hook);

  /// Send a packet originating at this node.
  void send(Packet packet);
  /// Called by links when a packet arrives here.
  void deliver(Packet packet);

  // --- Host stack -----------------------------------------------------
  using UdpHandler = std::function<void(const Packet&)>;
  /// Register a UDP receiver; throws if the port is taken.
  void bind_udp(std::uint16_t port, UdpHandler handler);
  void unbind_udp(std::uint16_t port);
  /// Ephemeral port allocator (49152+).
  std::uint16_t alloc_port();

  /// All Proto::Tcp packets addressed to this node go to one dispatcher
  /// (the transport layer's segment demux).
  void set_tcp_demux(std::function<void(Packet&&)> demux);

  /// Diagnostics.
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }
  std::uint64_t dropped_down() const { return dropped_down_; }

 private:
  void forward(Packet&& packet);

  sim::Simulator& sim_;
  std::string name_;
  std::vector<Ipv4Addr> addresses_;
  std::unordered_map<Ipv4Addr, std::function<void(Packet&&)>> proxy_addresses_;
  std::vector<Link*> links_;
  std::unordered_map<Ipv4Addr, Link*> routes_;
  Link* default_route_ = nullptr;
  std::function<bool(Packet&)> forward_hook_;
  std::unordered_map<std::uint16_t, UdpHandler> udp_handlers_;
  std::function<void(Packet&&)> tcp_demux_;
  std::uint16_t next_port_ = 49152;
  bool up_ = true;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_no_route_ = 0;
  std::uint64_t dropped_down_ = 0;
};

}  // namespace cb::net
