// World builder: assembles a complete end-to-end experiment — radio
// environment, towers, core(s), broker or HSS, WAN, app server, and a
// moving UE — under either architecture:
//
//   Mno        — one operator owns every tower; EPC (MME/HSS/SPGW) anchors
//                the UE IP; handovers are network-driven (X2 path switch);
//                apps run over plain TCP. The paper's baseline.
//   CellBricks — every tower is an independent bTelco (the §6.2 extreme
//                design point); SAP + the broker; host-driven mobility;
//                apps run over MPTCP.
//
// Both share identical geometry, radio model, rate policy, and WAN delays,
// so any app-level difference is attributable to the architecture.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cellbricks/broker_cluster.hpp"
#include "cellbricks/btelco.hpp"
#include "cellbricks/ue_agent.hpp"
#include "epc/hss.hpp"
#include "epc/mme.hpp"
#include "epc/ue_nas.hpp"
#include "ran/ran_map.hpp"
#include "ran/rate_policy.hpp"
#include "ran/ue_radio.hpp"
#include "scenario/routes.hpp"
#include "transport/factory.hpp"

namespace cb::scenario {

enum class Architecture { Mno, CellBricks };

/// Attach-protocol axis (the conformance suite's test matrix). `Default`
/// keeps the architecture's native protocol (Mno -> EpsAka, CellBricks ->
/// Sap); any other value selects BOTH the protocol and the architecture it
/// runs on, overriding `arch`:
///   EpsAka     4G EPS-AKA against the HSS (two home round-trips).
///   Aka5g      5G-AKA (SUCI concealment, RES*/HXRES*, three round-trips).
///   Sap        CellBricks SAP (one broker round-trip).
///   SapResume  SAP plus broker-minted resumption tickets: re-attaches are
///              verified locally at the bTelco, no broker on the critical
///              path; the broker logs each resumption (DESIGN.md §14).
enum class AttachProtocol { Default = 0, EpsAka, Aka5g, Sap, SapResume };

/// Canonical spelling of the protocol axis (bench JSON keys, cbfuzz
/// --protocol values, conformance-test labels).
inline const char* to_string(AttachProtocol p) {
  switch (p) {
    case AttachProtocol::Default: return "default";
    case AttachProtocol::EpsAka: return "eps_aka";
    case AttachProtocol::Aka5g: return "5g_aka";
    case AttachProtocol::Sap: return "sap";
    case AttachProtocol::SapResume: return "sap_resume";
  }
  return "unknown";
}

struct WorldConfig {
  Architecture arch = Architecture::CellBricks;
  AttachProtocol protocol = AttachProtocol::Default;
  RouteSpec route = suburb_day();
  std::uint64_t seed = 1;
  /// Number of towers along the route (route length = spacing * (n-1)).
  int n_towers = 12;
  /// AGW/bTelco <-> cloud (SubscriberDB/broker) round-trip time.
  Duration cloud_rtt = Duration::millis(7.2);  // "us-west-1"
  /// Random loss on the radio links.
  double radio_loss = 0.0;  // LTE HARQ/RLC leaves ~no residual loss
  /// MPTCP address_worker wait (mainline: 500 ms; Fig.9 varies this).
  Duration mptcp_address_wait = transport::kMptcpAddressWait;
  /// Disable the operator rate policy (PHY-limited only).
  bool unlimited_policy = false;
  /// Dishonesty knobs (§4.3 threat model): factor applied to the DL usage
  /// the first bTelco reports, and to what the UE baseband reports.
  double telco0_overreport = 1.0;
  double ue_underreport = 1.0;
  /// Billing report cadence at both the UE baseband and the bTelcos.
  Duration report_interval = Duration::s(10);
  /// UE measurement pipeline: channel noise, L3 filtering, reselection
  /// policy (ran::UeRadioConfig). Defaults are bit-identical to the
  /// pre-measurement engine. `radio_config.channel.seed` 0 means "derive
  /// from the world seed".
  ran::UeRadioConfig radio_config{};
  /// Broker deployment size. 1 = one shard on the cloud host (default).
  /// >1 = that many shards on dedicated hosts behind the cloud hub, with
  /// clients routing via a ShardRouter (DESIGN.md §12).
  int broker_shards = 1;
  /// Base component configs (chaos experiments tighten timeouts here); the
  /// world-level fields above override the corresponding members on top.
  /// `shard_config.broker` holds the broker service knobs; the cluster's
  /// timing (heartbeats, append retry, catch-up) is fixed (BrokerShard::k*).
  cellbricks::BrokerShard::Config shard_config{};
  cellbricks::Btelco::Config btelco_config{};
  cellbricks::UeAgent::Config ue_config{};
};

class World {
 public:
  explicit World(WorldConfig config);
  ~World();

  /// Kick off: initial attach and the mobility loop.
  void start();

  /// Observer for serving-cell changes (fired for both architectures);
  /// benches use it to align time series on handover instants.
  std::function<void(ran::CellId from, ran::CellId to)> on_cell_change;

  /// App-facing transports (UE side and server side match automatically).
  transport::StreamTransport ue_transport();
  transport::StreamTransport server_transport();

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return network_; }
  net::Node* ue_node() { return ue_; }
  net::Node* server_node() { return server_; }
  /// Fault-injection surface: the cloud host (the one-shard broker's
  /// host; the hub in front of a sharded broker), the tower<->cloud control
  /// links, and the radio map (chaos experiments flip these up/down).
  net::Node* cloud_node() { return cloud_; }
  net::Link* cloud_link(std::size_t i) { return cloud_links_[i]; }
  std::size_t n_cloud_links() const { return cloud_links_.size(); }
  const ran::RanMap& ran_map() const { return ran_map_; }
  const net::Ipv4Addr& server_addr() const { return server_addr_; }
  const net::Ipv4Addr& cloud_addr() const { return cloud_addr_; }

  ran::UeRadio& radio() { return *radio_; }
  const WorldConfig& config() const { return config_; }
  /// The protocol actually built (Default resolved).
  AttachProtocol protocol() const { return protocol_; }

  /// Handover statistics (MTTHO for Table 1).
  std::uint64_t handovers() const;
  double mttho_s() const;
  /// CellBricks attach latencies (the paper's d).
  const Summary* attach_latencies_ms() const;

  // Architecture internals (exposed for experiments and examples).
  /// The broker (CellBricks worlds; null under Mno).
  cellbricks::BrokerCluster* broker_cluster() { return broker_cluster_.get(); }
  cellbricks::UeAgent* ue_agent() { return ue_agent_.get(); }
  cellbricks::Btelco* btelco(std::size_t i) { return btelcos_[i].get(); }
  std::size_t n_btelcos() const { return btelcos_.size(); }
  epc::Mme* mme() { return mme_.get(); }
  epc::UeNas* ue_nas() { return ue_nas_.get(); }
  epc::Hss* hss() { return hss_.get(); }
  /// Transport internals (check layer reads the MPTCP sanity counters).
  transport::MptcpStack* ue_mptcp() { return ue_mptcp_.get(); }
  transport::MptcpStack* server_mptcp() { return server_mptcp_.get(); }

 private:
  void build_topology();
  void build_mno();
  void build_cellbricks();
  void install_shaper(ran::CellId cell);

  WorldConfig config_;
  AttachProtocol protocol_ = AttachProtocol::Default;
  sim::Simulator sim_;
  net::Network network_;

  // Common topology.
  net::Node* internet_ = nullptr;
  net::Node* server_ = nullptr;
  net::Node* cloud_ = nullptr;
  net::Node* ue_ = nullptr;
  net::Ipv4Addr server_addr_;
  net::Ipv4Addr cloud_addr_;
  std::vector<net::Node*> towers_;
  std::vector<net::Link*> cloud_links_;  // tower i <-> cloud control path
  ran::RadioEnvironment env_;
  ran::RanMap ran_map_;
  std::unique_ptr<ran::UeRadio> radio_;
  std::unique_ptr<ran::BearerShaper> shaper_;

  // Transports.
  std::unique_ptr<transport::TcpStack> ue_tcp_;
  std::unique_ptr<transport::TcpStack> server_tcp_;
  std::unique_ptr<transport::MptcpStack> ue_mptcp_;
  std::unique_ptr<transport::MptcpStack> server_mptcp_;

  // MNO side.
  net::Node* agw_ = nullptr;
  std::unique_ptr<epc::Hss> hss_;
  std::unique_ptr<epc::SgwPgw> spgw_;
  std::unique_ptr<epc::Mme> mme_;
  std::unique_ptr<epc::UeNas> ue_nas_;

  // CellBricks side.
  std::unique_ptr<crypto::CertificateAuthority> ca_;
  std::unique_ptr<cellbricks::BrokerCluster> broker_cluster_;
  std::unique_ptr<cellbricks::ShardRouter> shard_router_;
  std::vector<std::unique_ptr<cellbricks::Btelco>> btelcos_;
  std::unordered_map<ran::CellId, cellbricks::Btelco*> telco_by_cell_;
  std::unique_ptr<cellbricks::UeAgent> ue_agent_;
};

}  // namespace cb::scenario
