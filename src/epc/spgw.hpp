// SGW/PGW user plane: the IP anchor of the MNO baseline.
//
// Every subscriber address is allocated from the PGW's pool and anchored at
// the PGW node, so a UE keeps its IP as it moves between towers — exactly
// the property that makes network-driven handover "seamless" (§2.1) and
// that CellBricks deliberately gives up in exchange for simplicity.
// Downlink traffic is tunnelled PGW → serving tower → radio bearer
// (GTP-style); uplink is metered at the PGW. Byte counters per bearer
// provide the usage accounting today's billing builds on.
#pragma once

#include <string>
#include <unordered_map>

#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace cb::epc {

class SgwPgw {
 public:
  /// Subscriber addresses are drawn from `ip_subnet`.x.y.z.
  SgwPgw(net::Network& network, net::Node& gw_node, std::uint8_t ip_subnet);

  /// Create a bearer: allocates the UE's IP (anchored here) and plumbs the
  /// downlink path through `tower` and `radio_link`. Returns the UE IP.
  net::Ipv4Addr create_session(const std::string& imsi, net::Node* ue_node,
                               net::Node* tower, net::Link* radio_link);

  /// X2-style path switch: same IP, new serving tower.
  void path_switch(const std::string& imsi, net::Node* tower, net::Link* radio_link);

  void release_session(const std::string& imsi);
  bool has_session(const std::string& imsi) const { return sessions_.contains(imsi); }

  /// Usage accounting (PGW counters, TS 32.425-style).
  struct Usage {
    std::uint64_t ul_bytes = 0;
    std::uint64_t dl_bytes = 0;
  };
  Usage usage(const std::string& imsi) const;

  net::Node& node() { return gw_node_; }

 private:
  struct Session {
    net::Ipv4Addr ip;
    net::Node* ue_node = nullptr;
    net::Node* tower = nullptr;
    net::Link* radio_link = nullptr;
    net::Link* backhaul = nullptr;  // gw -> tower
    Usage usage;
  };

  net::Link* find_link(net::Node* a, net::Node* b) const;
  void install_tower_hook(net::Node* tower);
  void downlink(const std::string& imsi, net::Packet&& packet);

  net::Network& network_;
  net::Node& gw_node_;
  std::uint8_t subnet_;
  std::unordered_map<std::string, Session> sessions_;
  std::unordered_map<net::Ipv4Addr, std::string> by_ip_;
  // Per-tower map of UE address -> radio link, consulted by the tower's
  // forward hook (survives global route recomputation).
  std::unordered_map<net::Node*, std::unordered_map<net::Ipv4Addr, net::Link*>> tower_bearers_;
  // Cached per-packet metric handles: resolved once at construction against
  // the registry active on the constructing (trial) thread; null = disabled.
  obs::Counter* obs_dl_packets_ = nullptr;
  obs::Counter* obs_dl_bytes_ = nullptr;
  obs::Counter* obs_ul_packets_ = nullptr;
  obs::Counter* obs_ul_bytes_ = nullptr;
};

}  // namespace cb::epc
