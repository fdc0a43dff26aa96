#include "scenario/world.hpp"

#include "common/log.hpp"

namespace cb::scenario {

namespace {
// One-way WAN legs chosen so the UE <-> server RTT is ~46 ms (the paper's
// measured ping p50 over T-Mobile to us-west EC2).
constexpr Duration kRadioDelay = Duration::ms(4);
constexpr Duration kBackhaulDelay = Duration::ms(8);  // tower/AGW -> internet
constexpr Duration kServerDelay = Duration::ms(11);   // internet -> server
/// RSA modulus for CellBricks entities and the 5G home-network key (512
/// keeps setup fast; crypto cost in the simulated timeline comes from the
/// calibrated proc profiles).
constexpr std::size_t kRsaBits = 512;
/// Resumption-ticket lifetime (SapResume worlds).
constexpr Duration kTicketTtl = Duration::s(60);
}  // namespace

World::World(WorldConfig config) : config_(config), sim_(config.seed), network_(sim_) {
  // Resolve the protocol axis before building (it shapes the topology's
  // provider naming and which core gets built); `arch` matters only here.
  protocol_ = config_.protocol;
  if (protocol_ == AttachProtocol::Default) {
    protocol_ = config_.arch == Architecture::Mno ? AttachProtocol::EpsAka : AttachProtocol::Sap;
  }
  build_topology();
  if (epc()) {
    build_mno();
  } else {
    build_cellbricks();
  }
}

World::~World() = default;

void World::build_topology() {
  internet_ = network_.add_node("internet");
  server_ = network_.add_node("server");
  cloud_ = network_.add_node("cloud");
  ue_ = network_.add_node("ue");

  server_addr_ = net::Ipv4Addr(1, 1, 1, 1);
  cloud_addr_ = net::Ipv4Addr(2, 2, 2, 2);
  network_.register_address(server_addr_, server_);
  network_.register_address(cloud_addr_, cloud_);

  network_.connect(internet_, server_,
                   net::LinkParams{.rate_bps = 10e9, .delay = kServerDelay});

  // Towers along a line; each tower gets a backhaul to the internet, a
  // dedicated control path to the cloud (delay = RTT/2), and this UE's
  // radio link (down until attached).
  const double spacing = config_.route.tower_spacing_m;
  for (int i = 0; i < config_.n_towers; ++i) {
    net::Node* tower = network_.add_node("tower-" + std::to_string(i));
    towers_.push_back(tower);
    network_.register_address(net::Ipv4Addr(4, 0, static_cast<std::uint8_t>(i >> 8),
                                            static_cast<std::uint8_t>(i + 1)),
                              tower);
    const auto cell = static_cast<ran::CellId>(i + 1);

    ran::Cell c;
    c.id = cell;
    c.position = ran::Point{spacing * i, 0.0};
    c.provider = epc() ? "mno" : "btelco-" + std::to_string(i);
    env_.add_cell(c);

    network_.connect(tower, internet_,
                     net::LinkParams{.rate_bps = 10e9, .delay = kBackhaulDelay});
    cloud_links_.push_back(network_.connect(
        tower, cloud_, net::LinkParams{.rate_bps = 1e9, .delay = config_.cloud_rtt / 2}));

    net::LinkParams radio{.rate_bps = 50e6, .delay = kRadioDelay};
    radio.loss = config_.radio_loss;
    // Per-UE buffer in the eNB scheduler: large enough for the night-policy
    // BDP, small enough to avoid multi-second bufferbloat at day rates.
    radio.queue_bytes = 128 * 1024;
    net::Link* radio_link = network_.connect(ue_, tower, radio);
    radio_link->set_up(false);
    ran_map_.add(cell, ran::TowerSite{tower, radio_link});
  }
  network_.recompute_routes();

  // The UE starts at the first tower and drives the full line.
  const double route_len = spacing * (config_.n_towers - 1);
  ran::UeRadioConfig radio_cfg = config_.radio_config;
  if (radio_cfg.channel.seed == 0) radio_cfg.channel.seed = config_.seed;
  radio_ = std::make_unique<ran::UeRadio>(
      sim_, env_, ran::Trajectory::line(route_len, config_.route.speed_mps), radio_cfg);

  ue_tcp_ = std::make_unique<transport::TcpStack>(*ue_);
  server_tcp_ = std::make_unique<transport::TcpStack>(*server_);
  ue_mptcp_ = std::make_unique<transport::MptcpStack>(*ue_, *ue_tcp_, config_.mptcp_address_wait);
  server_mptcp_ = std::make_unique<transport::MptcpStack>(*server_, *server_tcp_,
                                                          config_.mptcp_address_wait);
}

void World::install_shaper(ran::CellId cell) {
  shaper_.reset();
  if (cell == 0) return;
  const ran::TowerSite site = ran_map_.site(cell);
  const ran::RatePolicy policy =
      config_.unlimited_policy ? ran::RatePolicy::unlimited() : config_.route.policy;
  shaper_ = std::make_unique<ran::BearerShaper>(
      sim_, *site.radio_link, site.node, policy, [this, cell] {
        return ran::RadioEnvironment::achievable_rate_bps(env_.cell(cell),
                                                          radio_->position());
      });
}

void World::build_mno() {
  agw_ = network_.add_node("agw");
  // The AGW sits between the towers and the internet; in MNO mode all
  // subscriber traffic is anchored there (SPGW). Control path to the cloud
  // carries the S6A traffic.
  network_.connect(agw_, internet_, net::LinkParams{.rate_bps = 10e9, .delay = Duration::ms(6)});
  network_.connect(agw_, cloud_, net::LinkParams{.rate_bps = 1e9, .delay = config_.cloud_rtt / 2});
  for (net::Node* tower : towers_) {
    network_.connect(tower, agw_, net::LinkParams{.rate_bps = 10e9, .delay = Duration::ms(2)});
  }
  const net::Ipv4Addr agw_addr(3, 3, 3, 3);
  network_.register_address(agw_addr, agw_);
  network_.recompute_routes();

  hss_ = std::make_unique<epc::Hss>(*cloud_);
  hss_->add_subscriber("imsi-001", Bytes(32, 0x42));
  spgw_ = std::make_unique<epc::SgwPgw>(network_, *agw_, /*ip_subnet=*/10);
  mme_ = std::make_unique<epc::Mme>(*agw_, *spgw_, net::EndPoint{cloud_addr_, epc::kHssPort});
  ue_nas_ = std::make_unique<epc::UeNas>(network_, *ue_, "imsi-001", Bytes(32, 0x42), *mme_,
                                         ran_map_);
  if (protocol_ == AttachProtocol::Aka5g) {
    // Dedicated forks, drawn only in 5G worlds: 4G streams stay
    // bit-identical (the conformance suite's same-seed guarantee).
    Rng hn_rng = sim_.rng().fork(0x5A11);
    hss_->enable_5g(hn_rng, kRsaBits);
    ue_nas_->enable_5g(hss_->home_network_key(), sim_.rng().fork(0x5AFE));
  }
}

void World::build_cellbricks() {
  Rng key_rng = sim_.rng().fork(0xCA11);
  ca_ = std::make_unique<crypto::CertificateAuthority>("cb-root", key_rng, kRsaBits);
  const TimePoint not_after = TimePoint::zero() + Duration::s(86400 * 365);

  // Broker identity: one keypair/certificate regardless of shard count, so
  // clients always seal to "broker-0".
  auto broker_keys = crypto::RsaKeyPair::generate(key_rng, kRsaBits);
  auto broker_cert =
      ca_->issue("broker-0", broker_keys.public_key(), TimePoint::zero(), not_after);
  auto ue_keys = crypto::RsaKeyPair::generate(key_rng, kRsaBits);
  const crypto::RsaPublicKey broker_pk = broker_cert.key();

  Bytes ticket_key;  // non-empty = resumption federation is live
  if (protocol_ == AttachProtocol::SapResume) {
    // STEK drawn from its own fork, only in resume worlds: plain-SAP
    // streams stay bit-identical. Every shard mints and honours tickets
    // under the same key.
    ticket_key = sim_.rng().fork(0x71C7).random_bytes(32);
  }
  auto sap_broker = [&] {
    cellbricks::SapBroker sap("broker-0", broker_keys, broker_cert, ca_->public_key());
    if (!ticket_key.empty()) sap.enable_resume(ticket_key, kTicketTtl);
    return sap;
  };
  broker_cluster_ = std::make_unique<cellbricks::BrokerCluster>(config_.shard_config);
  if (config_.broker_shards <= 1) {
    broker_cluster_->add_shard(*cloud_, sap_broker());
  } else {
    // Shard hosts hang off the cloud hub: tower -> cloud -> shard-i adds one
    // fast intra-region hop on top of the configured cloud RTT; shard<->shard
    // replication crosses the hub the same way.
    for (int i = 0; i < config_.broker_shards; ++i) {
      net::Node* host = network_.add_node("broker-shard-" + std::to_string(i));
      network_.register_address(net::Ipv4Addr(2, 2, 2, static_cast<std::uint8_t>(10 + i)),
                                host);
      network_.connect(cloud_, host,
                       net::LinkParams{.rate_bps = 10e9, .delay = Duration::us(250)});
      broker_cluster_->add_shard(*host, sap_broker());
    }
    network_.recompute_routes();
    shard_router_ = std::make_unique<cellbricks::ShardRouter>(
        broker_cluster_->client_endpoints());
  }
  broker_cluster_->add_subscriber("user-001", ue_keys.public_key());
  broker_cluster_->start();
  const net::EndPoint broker_ep = broker_cluster_->client_endpoints().front();

  // One bTelco per tower (the paper's extreme single-tower providers).
  for (int i = 0; i < config_.n_towers; ++i) {
    const std::string id_t = "btelco-" + std::to_string(i);
    auto keys = crypto::RsaKeyPair::generate(key_rng, kRsaBits);
    auto cert = ca_->issue(id_t, keys.public_key(), TimePoint::zero(), not_after);
    // Cluster-wide key registration: a shard that never served this bTelco's
    // attach must still be able to verify its report signatures.
    broker_cluster_->add_telco(id_t, keys.public_key());
    cellbricks::SapTelco sap_telco(id_t, std::move(keys), std::move(cert), ca_->public_key());
    cellbricks::Btelco::Config tcfg = config_.btelco_config;
    tcfg.ip_subnet = static_cast<std::uint8_t>(100 + i);
    tcfg.report_interval = config_.report_interval;
    if (i == 0) tcfg.overreport_factor = config_.telco0_overreport;
    auto telco = std::make_unique<cellbricks::Btelco>(
        network_, *towers_[static_cast<std::size_t>(i)], std::move(sap_telco), broker_cert,
        broker_ep, tcfg);
    if (!ticket_key.empty()) telco->enable_resume(ticket_key);
    if (shard_router_) telco->set_router(shard_router_.get());
    telco_by_cell_[static_cast<ran::CellId>(i + 1)] = telco.get();
    btelcos_.push_back(std::move(telco));
  }

  cellbricks::SapUe sap_ue("user-001", "broker-0", std::move(ue_keys), broker_pk);
  cellbricks::UeAgent::Config ucfg = config_.ue_config;
  ucfg.underreport_factor = config_.ue_underreport;
  ucfg.report_interval = config_.report_interval;
  ue_agent_ = std::make_unique<cellbricks::UeAgent>(
      network_, *ue_, std::move(sap_ue), ran_map_,
      [this](ran::CellId cell) -> cellbricks::Btelco* {
        auto it = telco_by_cell_.find(cell);
        return it == telco_by_cell_.end() ? nullptr : it->second;
      },
      broker_ep, ucfg);
  ue_agent_->set_mptcp(ue_mptcp_.get());
  if (shard_router_) ue_agent_->set_router(shard_router_.get());
}

void World::start() {
  if (!epc()) {
    // Chain: keep any observer the embedding program installed.
    auto user_cb = ue_agent_->on_attached;
    ue_agent_->on_attached = [this, user_cb](ran::CellId cell, Duration latency) {
      install_shaper(cell);
      if (user_cb) user_cb(cell, latency);
    };
    // Wrap the agent's mobility loop so observers see cell changes too.
    // Fallback candidates for recovery come straight from the radio scan.
    ue_agent_->set_candidate_source([this] { return radio_->candidates(); });
    radio_->start([this](ran::CellId old_cell, ran::CellId new_cell) {
      if (on_cell_change) on_cell_change(old_cell, new_cell);
      ue_agent_->cancel_recovery();
      if (ue_agent_->attached()) ue_agent_->detach();
      if (new_cell != 0) ue_agent_->attach_with_recovery(new_cell);
    });
    return;
  }
  // MNO: attach on acquisition, X2 handover on later cell changes.
  radio_->start([this](ran::CellId old_cell, ran::CellId new_cell) {
    if (on_cell_change) on_cell_change(old_cell, new_cell);
    if (new_cell == 0) return;
    if (!ue_nas_->attached()) {
      ue_nas_->attach(new_cell, [this, new_cell](Result<net::Ipv4Addr> result) {
        if (result.ok()) {
          network_.recompute_routes();
          install_shaper(new_cell);
        } else {
          CB_LOG(Warn, "world") << "MNO attach failed: " << result.error();
        }
      });
    } else {
      ue_nas_->handover(new_cell, Duration::ms(30),
                        [this, new_cell] { install_shaper(new_cell); });
    }
  });
}

transport::StreamTransport World::ue_transport() {
  return epc() ? transport::make_tcp_transport(*ue_tcp_)
               : transport::make_mptcp_transport(*ue_mptcp_);
}

transport::StreamTransport World::server_transport() {
  return epc() ? transport::make_tcp_transport(*server_tcp_)
               : transport::make_mptcp_transport(*server_mptcp_);
}

std::uint64_t World::handovers() const {
  // Cell changes minus the initial acquisition.
  const std::uint64_t changes = radio_->cell_changes();
  return changes > 0 ? changes - 1 : 0;
}

double World::mttho_s() const {
  const std::uint64_t h = handovers();
  if (h == 0) return 0.0;
  return sim_.now().to_seconds() / static_cast<double>(h);
}

const Summary* World::attach_latencies_ms() const {
  return ue_agent_ ? &ue_agent_->attach_latencies() : nullptr;
}

}  // namespace cb::scenario
