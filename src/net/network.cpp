#include "net/network.hpp"

#include <limits>
#include <queue>
#include <stdexcept>

namespace cb::net {

Node* Network::add_node(const std::string& name) {
  nodes_.push_back(std::make_unique<Node>(sim_, name));
  return nodes_.back().get();
}

Link* Network::connect(Node* a, Node* b, const LinkParams& params) {
  return connect(a, b, params, params);
}

Link* Network::connect(Node* a, Node* b, const LinkParams& a_to_b, const LinkParams& b_to_a) {
  links_.push_back(std::make_unique<Link>(sim_, a, b, a_to_b, b_to_a));
  return links_.back().get();
}

void Network::register_address(Ipv4Addr addr, Node* owner, bool proxy_only) {
  if (!addr.valid()) throw std::invalid_argument("register_address: invalid");
  Node*& current = address_owner_[addr];
  if (current != nullptr && current != owner) current->remove_address(addr);
  current = owner;
  if (!proxy_only) owner->add_address(addr);
  note_pending(addr);
}

void Network::unregister_address(Ipv4Addr addr) {
  if (auto it = address_owner_.find(addr); it != address_owner_.end()) {
    it->second->remove_address(addr);
    address_owner_.erase(it);
    note_pending(addr);
  }
}

Node* Network::owner_of(Ipv4Addr addr) const {
  auto it = address_owner_.find(addr);
  return it == address_owner_.end() ? nullptr : it->second;
}

Ipv4Addr Network::alloc_address(std::uint8_t subnet_high8) {
  std::uint32_t& next = next_host_[subnet_high8];
  ++next;
  if (next >= (1u << 24)) throw std::runtime_error("alloc_address: subnet exhausted");
  return Ipv4Addr(static_cast<std::uint32_t>(subnet_high8) << 24 | next);
}

Network::RoutedLink Network::routed(const Link& link) {
  return {link.is_up(), link.params(link.endpoint_a()).delay.nanos(),
          link.params(link.endpoint_b()).delay.nanos()};
}

void Network::note_pending(Ipv4Addr addr) {
  if (all_pairs_runs_ > 0) pending_.push_back(addr);
}

void Network::recompute_routes() {
  if (only_pending_changed()) {
    apply_pending();
  } else {
    run_all_pairs();
  }
  pending_.clear();
}

bool Network::only_pending_changed() const {
  if (all_pairs_runs_ == 0 || nodes_.size() != routed_nodes_ ||
      links_.size() != routed_links_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (routed(*links_[i]) != routed_links_[i]) return false;
  }
  for (Ipv4Addr addr : pending_) {
    const Node* owner = owner_of(addr);
    if (owner != nullptr && !owner_column_.contains(owner)) return false;
  }
  return true;
}

void Network::apply_pending() {
  // The graph is the one the last all-pairs run saw, so its first hops
  // still hold; only these addresses' entries can differ. An owner's own
  // entry in its column is null (Dijkstra never relaxes its source), which
  // clears the route there just as the full run skips it.
  const std::size_t n = nodes_.size();
  for (Ipv4Addr addr : pending_) {
    const Node* owner = owner_of(addr);
    Link* const* hops =
        owner != nullptr ? owner_hops_.data() + owner_column_.at(owner) * n : nullptr;
    for (std::size_t i = 0; i < n; ++i) {
      Link* hop = hops != nullptr ? hops[i] : nullptr;
      if (hop != nullptr) {
        nodes_[i]->set_route(addr, hop);
      } else {
        nodes_[i]->clear_route(addr);
      }
    }
  }
}

void Network::run_all_pairs() {
  ++all_pairs_runs_;
  std::unordered_map<const Node*, std::size_t> index;
  for (std::size_t i = 0; i < nodes_.size(); ++i) index[nodes_[i].get()] = i;
  const std::size_t n = nodes_.size();

  // Each registered address with the index of its owner, and one cached
  // first-hop column per distinct owner.
  std::vector<std::pair<Ipv4Addr, std::size_t>> targets;
  std::vector<std::size_t> column_owner;
  owner_column_.clear();
  for (const auto& [addr, owner] : address_owner_) {
    auto oit = index.find(owner);
    if (oit == index.end()) continue;
    targets.emplace_back(addr, oit->second);
    if (owner_column_.try_emplace(owner, column_owner.size()).second) {
      column_owner.push_back(oit->second);
    }
  }
  owner_hops_.assign(column_owner.size() * n, nullptr);

  // Dijkstra from each node over up links; weight = propagation delay + a
  // tiny hop cost so zero-delay meshes still prefer fewer hops.
  std::vector<double> dist(n);
  std::vector<Link*> first_hop(n);
  for (std::size_t src = 0; src < n; ++src) {
    dist.assign(n, std::numeric_limits<double>::infinity());
    first_hop.assign(n, nullptr);
    using QEntry = std::pair<double, std::size_t>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
    dist[src] = 0.0;
    pq.push({0.0, src});

    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (Link* link : nodes_[u]->links()) {
        if (!link->is_up()) continue;
        Node* peer = link->peer(nodes_[u].get());
        auto pit = index.find(peer);
        if (pit == index.end()) continue;
        const std::size_t v = pit->second;
        const double w = link->params(nodes_[u].get()).delay.to_seconds() + 1e-9;
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          first_hop[v] = (u == src) ? link : first_hop[u];
          pq.push({dist[v], v});
        }
      }
    }

    for (std::size_t col = 0; col < column_owner.size(); ++col) {
      owner_hops_[col * n + src] = first_hop[column_owner[col]];
    }
    Node* source = nodes_[src].get();
    source->clear_host_routes();
    for (const auto& [addr, owner] : targets) {
      if (owner == src) continue;
      if (Link* hop = first_hop[owner]) source->set_route(addr, hop);
    }
  }

  routed_nodes_ = n;
  routed_links_.clear();
  for (const auto& link : links_) routed_links_.push_back(routed(*link));
}

}  // namespace cb::net
