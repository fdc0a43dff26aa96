#include "scenario/attach_experiment.hpp"

#include <stdexcept>

namespace cb::scenario {

AttachBreakdown run_attach_experiment(AttachProtocol protocol, Duration cloud_rtt, int n,
                                      std::uint64_t seed) {
  WorldConfig cfg;
  cfg.seed = seed;
  cfg.protocol = protocol;
  cfg.cloud_rtt = cloud_rtt;
  cfg.n_towers = 1;
  cfg.radio_loss = 0.0;
  // Keep the UE parked next to the tower.
  cfg.route = RouteSpec{"static", false, 0.1, 100.0, ran::RatePolicy::unlimited()};
  World world(cfg);
  auto& sim = world.simulator();
  const bool sap = world.ue_agent() != nullptr;  // else an EPC world

  Summary latency_ms;  // clean full attaches
  Summary resume_ms;   // ticket-resumed attaches
  int cycles = 0;      // completed attach/detach cycles of any flavour
  for (int i = 0; i < n; ++i) {
    bool done = false;
    if (sap) {
      const std::uint64_t resumes_before = world.ue_agent()->resumes_succeeded();
      const std::uint64_t fallbacks_before = world.ue_agent()->resume_fallbacks();
      world.ue_agent()->attach(1, [&](Result<net::Ipv4Addr>) { done = true; });
      sim.run_for(Duration::s(30));
      if (done) {
        ++cycles;
        const double ms = world.ue_agent()->last_attach_latency().to_millis();
        if (world.ue_agent()->resumes_succeeded() > resumes_before) {
          resume_ms.add(ms);
        } else if (world.ue_agent()->resume_fallbacks() == fallbacks_before) {
          // Fallback cycles carry the failed-resume legs on top of the full
          // attach; folding them into either mean would skew it.
          latency_ms.add(ms);
        }
      }
      world.ue_agent()->detach();
    } else {
      world.ue_nas()->attach(1, [&](Result<net::Ipv4Addr>) { done = true; });
      sim.run_for(Duration::s(30));
      if (done) {
        ++cycles;
        latency_ms.add(world.ue_nas()->last_attach_latency().to_millis());
      }
      world.ue_nas()->detach();
    }
    sim.run_for(Duration::ms(100));
  }

  AttachBreakdown out;
  out.protocol = world.protocol();
  out.attaches = static_cast<int>(latency_ms.count());
  out.total_ms = latency_ms.empty() ? 0.0 : latency_ms.mean();
  out.resume_ms = resume_ms.empty() ? 0.0 : resume_ms.mean();
  out.resumes = static_cast<int>(resume_ms.count());
  if (sap) {
    out.resume_fallbacks = static_cast<int>(world.ue_agent()->resume_fallbacks());
  }
  // Busy time accrues over every completed cycle, resumes included.
  const double denom = std::max(1.0, static_cast<double>(cycles));
  if (sap) {
    out.agw_core_ms = (world.btelco(0)->busy_time().to_millis() +
                       world.broker_cluster()->sap_busy_time().to_millis()) /
                      denom;
    out.enb_ms = world.ue_agent()->enb_busy_time().to_millis() / denom;
    out.ue_ms = world.ue_agent()->ue_busy_time().to_millis() / denom;
  } else {
    out.agw_core_ms =
        (world.mme()->busy_time().to_millis() + world.hss()->busy_time().to_millis()) / denom;
    out.enb_ms = world.ue_nas()->enb_busy_time().to_millis() / denom;
    out.ue_ms = world.ue_nas()->ue_busy_time().to_millis() / denom;
  }
  out.other_ms = std::max(0.0, out.total_ms - out.agw_core_ms - out.enb_ms - out.ue_ms);
  return out;
}

AttachStorm run_attach_storm(AttachProtocol protocol, int n_ues, Duration cloud_rtt,
                             double control_loss, std::uint64_t seed) {
  if (protocol != AttachProtocol::EpsAka && protocol != AttachProtocol::Sap) {
    throw std::invalid_argument(std::string("run_attach_storm: no storm for ") +
                                to_string(protocol));
  }
  sim::Simulator sim(seed);
  net::Network network(sim);
  Rng key_rng = sim.rng().fork(0x570);

  net::Node* tower = network.add_node("tower");
  net::Node* cloud = network.add_node("cloud");
  const net::Ipv4Addr cloud_addr(2, 2, 2, 2);
  network.register_address(cloud_addr, cloud);
  network.register_address(net::Ipv4Addr(4, 0, 0, 1), tower);
  net::LinkParams control{.rate_bps = 1e9, .delay = cloud_rtt / 2};
  control.loss = control_loss;
  network.connect(tower, cloud, control);
  network.recompute_routes();

  Summary latency_ms;
  int completed = 0;

  if (protocol == AttachProtocol::Sap) {
    crypto::CertificateAuthority ca("root", key_rng, 512);
    const TimePoint forever = TimePoint::zero() + Duration::s(1e9);
    auto broker_keys = crypto::RsaKeyPair::generate(key_rng, 512);
    auto broker_cert = ca.issue("broker", broker_keys.public_key(), TimePoint::zero(), forever);
    cellbricks::SapBroker sap_broker("broker", std::move(broker_keys), broker_cert,
                                     ca.public_key());
    const crypto::RsaPublicKey broker_pk = broker_cert.key();
    cellbricks::BrokerCluster broker(cellbricks::BrokerShard::Config{});
    broker.add_shard(*cloud, std::move(sap_broker));

    auto telco_keys = crypto::RsaKeyPair::generate(key_rng, 512);
    auto telco_cert = ca.issue("telco", telco_keys.public_key(), TimePoint::zero(), forever);
    cellbricks::SapTelco sap_telco("telco", std::move(telco_keys), telco_cert,
                                   ca.public_key());
    cellbricks::Btelco telco(network, *tower, std::move(sap_telco), broker_cert,
                             net::EndPoint{cloud_addr, cellbricks::kBrokerPort});

    // One key pair reused across UEs keeps setup time linear-in-one-keygen;
    // each UE still runs the full protocol independently.
    auto ue_keys = crypto::RsaKeyPair::generate(key_rng, 512);
    struct StormUe {
      net::Node* node;
      net::Link* radio;
      std::unique_ptr<cellbricks::SapUe> sap;
    };
    std::vector<StormUe> ues;
    for (int i = 0; i < n_ues; ++i) {
      const std::string id = "user-" + std::to_string(i);
      broker.add_subscriber(id, ue_keys.public_key());
      net::Node* node = network.add_node("ue-" + std::to_string(i));
      net::Link* radio = network.connect(node, tower, net::LinkParams{.rate_bps = 50e6});
      ues.push_back({node, radio,
                     std::make_unique<cellbricks::SapUe>(id, "broker",
                                                         crypto::RsaKeyPair(ue_keys),
                                                         broker_pk)});
    }
    network.recompute_routes();
    broker.start();

    Rng rng = sim.rng().fork(0x99);
    for (auto& ue : ues) {
      // Model only the protocol path: craft at t=0, measure to completion.
      const TimePoint t0 = sim.now();
      Bytes req = ue.sap->make_auth_req("telco", rng);
      telco.handle_attach(std::move(req), ue.node, ue.radio,
                          [&, t0, sap = ue.sap.get()](
                              Result<std::pair<Bytes, net::Ipv4Addr>> result) {
                            if (!result.ok()) return;
                            if (!sap->process_auth_resp(result.value().first).ok()) return;
                            latency_ms.add((sim.now() - t0).to_millis());
                            ++completed;
                          });
    }
    sim.run_for(Duration::s(120));
  } else {
    epc::Hss hss(*cloud);
    network.recompute_routes();
    epc::SgwPgw spgw(network, *tower, 10);
    epc::Mme mme(*tower, spgw, net::EndPoint{cloud_addr, epc::kHssPort});
    struct StormUe {
      net::Node* node;
      net::Link* radio;
    };
    std::vector<StormUe> ues;
    for (int i = 0; i < n_ues; ++i) {
      const std::string imsi = "imsi-" + std::to_string(i);
      hss.add_subscriber(imsi, Bytes(32, 0x42));
      net::Node* node = network.add_node("ue-" + std::to_string(i));
      net::Link* radio = network.connect(node, tower, net::LinkParams{.rate_bps = 50e6});
      ues.push_back({node, radio});
    }
    network.recompute_routes();

    for (int i = 0; i < n_ues; ++i) {
      const std::string imsi = "imsi-" + std::to_string(i);
      const Bytes k(32, 0x42);
      const TimePoint t0 = sim.now();
      epc::Mme::AttachHooks hooks;
      hooks.challenge = [k](Bytes rand, Bytes autn, std::function<void(Bytes)> respond) {
        if (epc::verify_autn(k, rand, autn)) respond(epc::compute_res(k, rand));
      };
      hooks.smc = [](std::function<void()> complete) { complete(); };
      hooks.done = [&, t0](Result<net::Ipv4Addr> result) {
        if (!result.ok()) return;
        latency_ms.add((sim.now() - t0).to_millis());
        ++completed;
      };
      mme.attach(imsi, ues[static_cast<std::size_t>(i)].node,
                 tower, ues[static_cast<std::size_t>(i)].radio, std::move(hooks));
    }
    sim.run_for(Duration::s(120));
  }

  AttachStorm out;
  out.n_ues = n_ues;
  out.completed = completed;
  // run_for advances the clock to its deadline even once idle, so report
  // the busy span instead: everything happens in [0, last completion].
  if (!latency_ms.empty()) {
    out.mean_ms = latency_ms.mean();
    out.p99_ms = latency_ms.percentile(99);
    out.sim_s = latency_ms.max() / 1000.0;
  }
  return out;
}

}  // namespace cb::scenario
