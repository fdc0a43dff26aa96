// Topology manager: owns nodes and links, maps addresses to owner nodes,
// and computes static shortest-path routes (Dijkstra over link delay).
//
// Acts as the simulation's routing oracle: after any topology or addressing
// change, call recompute_routes() and every node gets fresh host routes.
//
// Routing contract (incremental routing, DESIGN.md §8):
//   - Host routes change only inside recompute_routes(). After every call,
//     each node's host-route table equals what an all-pairs run over the
//     current graph and registrations would install.
//   - A call reruns all-pairs Dijkstra when no run exists yet, or when the
//     graph changed since the last run: a node or link was added, a link
//     went up or down, or a direction's delay changed (routes weigh delays
//     only, so a rate/loss/queue change is not a graph change). It also
//     reruns when an address registered since then belongs to a node that
//     owned no address at that run.
//   - Otherwise the call applies only the addresses registered, moved or
//     unregistered since the previous call: O(nodes) each, from the first
//     hops the last run cached toward every address owner.
//   - Routes to an unregistered address persist until the next call.
//   - Pending addresses are kept only once a full run exists; before that,
//     the first call is a full run anyway.
//   - Manual Node::set_route is only for networks that never call
//     recompute_routes() (point-to-point traffic lanes, loop tests): a full
//     run clears such routes and the incremental path does not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace cb::net {

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Create a node owned by this network.
  Node* add_node(const std::string& name);

  /// Connect two nodes with symmetric parameters.
  Link* connect(Node* a, Node* b, const LinkParams& params);
  /// Connect with per-direction parameters.
  Link* connect(Node* a, Node* b, const LinkParams& a_to_b, const LinkParams& b_to_a);

  /// Declare that `addr` is reachable at `owner` (also adds it as a local
  /// address there unless `proxy_only`). Registering an address another
  /// node owns moves it: the previous owner drops its local copy.
  void register_address(Ipv4Addr addr, Node* owner, bool proxy_only = false);
  void unregister_address(Ipv4Addr addr);
  Node* owner_of(Ipv4Addr addr) const;

  /// Allocate a fresh unique address in `subnet_high8.x.y.z` order.
  Ipv4Addr alloc_address(std::uint8_t subnet_high8);

  /// Bring every node's host routes up to date (see the contract above).
  void recompute_routes();
  /// All-pairs Dijkstra runs so far; an incremental call does not count.
  std::uint64_t all_pairs_runs() const { return all_pairs_runs_; }

  sim::Simulator& simulator() { return sim_; }
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

 private:
  /// What a link contributed to the last all-pairs run.
  struct RoutedLink {
    bool up = false;
    std::int64_t delay_ab_ns = 0;
    std::int64_t delay_ba_ns = 0;
    bool operator==(const RoutedLink&) const = default;
  };
  static RoutedLink routed(const Link& link);

  void note_pending(Ipv4Addr addr);
  bool only_pending_changed() const;
  void apply_pending();
  void run_all_pairs();

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_map<Ipv4Addr, Node*> address_owner_;
  std::unordered_map<std::uint8_t, std::uint32_t> next_host_;

  // Cache of the last all-pairs run: node count, per-link state, and one
  // column of first hops per address owner (owner_hops_[column * n + node]).
  std::uint64_t all_pairs_runs_ = 0;
  std::size_t routed_nodes_ = 0;
  std::vector<RoutedLink> routed_links_;
  std::unordered_map<const Node*, std::size_t> owner_column_;
  std::vector<Link*> owner_hops_;
  // Addresses registered, moved or unregistered since the previous call.
  std::vector<Ipv4Addr> pending_;
};

}  // namespace cb::net
