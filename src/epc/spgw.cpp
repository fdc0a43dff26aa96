#include "epc/spgw.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace cb::epc {

SgwPgw::SgwPgw(net::Network& network, net::Node& gw_node, std::uint8_t ip_subnet)
    : network_(network),
      gw_node_(gw_node),
      subnet_(ip_subnet),
      obs_dl_packets_(obs::counter("epc.spgw.dl_packets")),
      obs_dl_bytes_(obs::counter("epc.spgw.dl_bytes")),
      obs_ul_packets_(obs::counter("epc.spgw.ul_packets")),
      obs_ul_bytes_(obs::counter("epc.spgw.ul_bytes")) {
  // Uplink metering: count transit packets sourced from subscriber IPs.
  gw_node_.set_forward_hook([this](net::Packet& p) {
    if (auto it = by_ip_.find(p.src.addr); it != by_ip_.end()) {
      sessions_[it->second].usage.ul_bytes += p.wire_size();
      obs::inc(obs_ul_packets_);
      obs::inc(obs_ul_bytes_, p.wire_size());
    }
    return false;  // metering only: normal routing continues
  });
}

net::Link* SgwPgw::find_link(net::Node* a, net::Node* b) const {
  for (net::Link* link : a->links()) {
    if (link->peer(a) == b) return link;
  }
  throw std::logic_error("SgwPgw: no link between " + a->name() + " and " + b->name());
}

void SgwPgw::install_tower_hook(net::Node* tower) {
  if (tower_bearers_.contains(tower)) return;
  tower_bearers_[tower] = {};
  tower->set_forward_hook([this, tower](net::Packet& p) {
    auto& bearers = tower_bearers_[tower];
    if (auto it = bearers.find(p.dst.addr); it != bearers.end()) {
      it->second->send(tower, std::move(p));
      return true;
    }
    return false;
  });
}

net::Ipv4Addr SgwPgw::create_session(const std::string& imsi, net::Node* ue_node,
                                     net::Node* tower, net::Link* radio_link) {
  if (sessions_.contains(imsi)) release_session(imsi);

  Session s;
  s.ip = network_.alloc_address(subnet_);
  s.ue_node = ue_node;
  s.tower = tower;
  s.radio_link = radio_link;
  // Co-located gateway+tower (small deployments): no backhaul leg.
  s.backhaul = tower == &gw_node_ ? nullptr : find_link(&gw_node_, tower);

  // Anchor the address here; the wider network routes subscriber traffic to
  // the PGW, which tunnels it down the current bearer.
  network_.register_address(s.ip, &gw_node_, /*proxy_only=*/true);
  gw_node_.add_proxy_address(s.ip, [this, imsi](net::Packet&& p) { downlink(imsi, std::move(p)); });

  if (tower != &gw_node_) {
    // (Installing a hook on the gateway itself would displace its uplink
    // metering hook; the proxy handler below already reaches the radio.)
    install_tower_hook(tower);
    tower_bearers_[tower][s.ip] = radio_link;
  }

  by_ip_[s.ip] = imsi;
  sessions_[imsi] = s;
  obs::inc(obs::counter("epc.spgw.sessions_created"));
  CB_LOG(Debug, "spgw") << "session " << imsi << " ip " << s.ip.to_string();
  return s.ip;
}

void SgwPgw::downlink(const std::string& imsi, net::Packet&& packet) {
  auto it = sessions_.find(imsi);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  s.usage.dl_bytes += packet.wire_size();
  obs::inc(obs_dl_packets_);
  obs::inc(obs_dl_bytes_, packet.wire_size());
  if (s.backhaul != nullptr) {
    s.backhaul->send(&gw_node_, std::move(packet));
  } else {
    s.radio_link->send(&gw_node_, std::move(packet));
  }
}

void SgwPgw::path_switch(const std::string& imsi, net::Node* tower, net::Link* radio_link) {
  auto it = sessions_.find(imsi);
  if (it == sessions_.end()) throw std::logic_error("SgwPgw: path_switch without session");
  obs::inc(obs::counter("epc.spgw.path_switches"));
  Session& s = it->second;
  if (s.tower != &gw_node_) tower_bearers_[s.tower].erase(s.ip);
  s.tower = tower;
  s.radio_link = radio_link;
  s.backhaul = tower == &gw_node_ ? nullptr : find_link(&gw_node_, tower);
  if (tower != &gw_node_) {
    install_tower_hook(tower);
    tower_bearers_[tower][s.ip] = radio_link;
  }
}

void SgwPgw::release_session(const std::string& imsi) {
  auto it = sessions_.find(imsi);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  tower_bearers_[s.tower].erase(s.ip);
  gw_node_.remove_proxy_address(s.ip);
  network_.unregister_address(s.ip);
  by_ip_.erase(s.ip);
  sessions_.erase(it);
}

SgwPgw::Usage SgwPgw::usage(const std::string& imsi) const {
  auto it = sessions_.find(imsi);
  return it == sessions_.end() ? Usage{} : it->second.usage;
}

}  // namespace cb::epc
