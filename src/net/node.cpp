#include "net/node.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"

namespace cb::net {

Node::Node(sim::Simulator& sim, std::string name) : sim_(sim), name_(std::move(name)) {}

void Node::add_address(Ipv4Addr addr) {
  if (!addr.valid()) throw std::invalid_argument("Node: invalid address");
  if (!has_address(addr)) addresses_.push_back(addr);
}

void Node::remove_address(Ipv4Addr addr) {
  addresses_.erase(std::remove(addresses_.begin(), addresses_.end(), addr), addresses_.end());
}

bool Node::has_address(Ipv4Addr addr) const {
  return std::find(addresses_.begin(), addresses_.end(), addr) != addresses_.end();
}

Ipv4Addr Node::primary_address() const {
  return addresses_.empty() ? Ipv4Addr{} : addresses_.front();
}

void Node::add_proxy_address(Ipv4Addr addr, std::function<void(Packet&&)> handler) {
  proxy_addresses_[addr] = std::move(handler);
}

void Node::remove_proxy_address(Ipv4Addr addr) { proxy_addresses_.erase(addr); }

void Node::attach_link(Link* link) { links_.push_back(link); }

void Node::set_route(Ipv4Addr dst, Link* via) { routes_[dst] = via; }

void Node::clear_route(Ipv4Addr dst) { routes_.erase(dst); }

void Node::set_default_route(Link* via) { default_route_ = via; }

void Node::clear_host_routes() { routes_.clear(); }

void Node::set_forward_hook(std::function<bool(Packet&)> hook) {
  forward_hook_ = std::move(hook);
}

void Node::send(Packet packet) {
  if (!up_) {
    ++dropped_down_;
    return;
  }
  if (!packet.src.addr.valid()) packet.src.addr = primary_address();
  deliver(std::move(packet));
}

void Node::deliver(Packet packet) {
  if (!up_) {
    ++dropped_down_;
    return;
  }
  // Proxy-anchored addresses take precedence (gateway user plane).
  if (auto it = proxy_addresses_.find(packet.dst.addr); it != proxy_addresses_.end()) {
    it->second(std::move(packet));
    return;
  }

  if (has_address(packet.dst.addr)) {
    switch (packet.proto) {
      case Proto::Udp: {
        auto it = udp_handlers_.find(packet.dst.port);
        if (it != udp_handlers_.end()) it->second(packet);
        break;
      }
      case Proto::Tcp:
        if (tcp_demux_) tcp_demux_(std::move(packet));
        break;
    }
    return;
  }

  forward(std::move(packet));
}

void Node::forward(Packet&& packet) {
  if (packet.ttl == 0) {
    ++dropped_no_route_;
    return;
  }
  --packet.ttl;

  if (forward_hook_ && forward_hook_(packet)) return;

  Link* via = default_route_;
  if (auto it = routes_.find(packet.dst.addr); it != routes_.end()) {
    // A stale host route whose link has gone down (e.g. the radio bearer of
    // a previous attachment) must not shadow a live default route.
    if (it->second->is_up() || via == nullptr) via = it->second;
  }
  if (via == nullptr || !via->is_up()) {
    ++dropped_no_route_;
    CB_LOG(Debug, "net") << name_ << ": no route to " << packet.dst.addr.to_string();
    return;
  }
  ++forwarded_;
  via->send(this, std::move(packet));
}

void Node::bind_udp(std::uint16_t port, UdpHandler handler) {
  if (udp_handlers_.contains(port)) throw std::logic_error("bind_udp: port in use");
  udp_handlers_[port] = std::move(handler);
}

void Node::unbind_udp(std::uint16_t port) { udp_handlers_.erase(port); }

std::uint16_t Node::alloc_port() {
  // Skip ports with UDP binders; TCP port reuse is managed by the transport.
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const std::uint16_t p = next_port_++;
    if (next_port_ < 49152) next_port_ = 49152;
    if (!udp_handlers_.contains(p)) return p;
  }
  throw std::runtime_error("alloc_port: exhausted");
}

void Node::set_tcp_demux(std::function<void(Packet&&)> demux) { tcp_demux_ = std::move(demux); }

}  // namespace cb::net
