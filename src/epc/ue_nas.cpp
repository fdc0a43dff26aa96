#include "epc/ue_nas.hpp"

#include "common/log.hpp"
#include "epc/auth.hpp"
#include "epc/auth5g.hpp"

namespace cb::epc {

namespace {

/// UE and eNB processing per message (Fig.7 calibration; see mme.cpp).
constexpr Duration kUeMsg = Duration::millis(0.5);
constexpr Duration kEnbMsg = Duration::millis(0.5);

}  // namespace

UeNas::UeNas(net::Network& network, net::Node& ue_node, std::string imsi, Bytes k, Mme& mme,
             const ran::RanMap& ran_map)
    : network_(network),
      ue_node_(ue_node),
      imsi_(std::move(imsi)),
      k_(std::move(k)),
      mme_(mme),
      ran_map_(ran_map),
      ue_queue_(ue_node.simulator()),
      enb_queue_(ue_node.simulator()) {}

void UeNas::enable_5g(crypto::RsaPublicKey hn_key, Rng rng) {
  hn_key_ = std::move(hn_key);
  suci_rng_ = rng;
}

void UeNas::attach(ran::CellId cell, std::function<void(Result<net::Ipv4Addr>)> done) {
  const ran::TowerSite site = ran_map_.site(cell);
  site.radio_link->set_up(true);  // RRC connection established
  attach_started_ = ue_node_.simulator().now();
  auto done_shared = std::make_shared<std::function<void(Result<net::Ipv4Addr>)>>(std::move(done));

  Mme::AttachHooks hooks;
  // Radio legs (eNB relay) + UE processing are charged per message; the
  // radio/RRC airtime itself is excluded, as in the paper's measurements.
  hooks.challenge = [this](Bytes rand, Bytes autn, std::function<void(Bytes)> respond) {
    enb_queue_.submit(kEnbMsg, [this, rand = std::move(rand), autn = std::move(autn),
                                         respond = std::move(respond)] {
      ue_queue_.submit(kUeMsg, [this, rand, autn, respond = std::move(respond)] {
        Bytes res;
        if (is_5g()) {
          // 5G: the AUTN carries an SQN; a stale or forged challenge aborts
          // silently just like a 4G MAC failure (the MME times out).
          const AutnCheck check = verify_autn_sqn(k_, rand, autn, ue_sqn_);
          if (check.verdict != AutnVerdict::Ok) {
            CB_LOG(Warn, "ue-nas")
                << imsi_ << ": 5G AUTN "
                << (check.verdict == AutnVerdict::MacFailure ? "MAC failure" : "sync failure")
                << ", aborting attach";
            return;
          }
          res = compute_res_star(k_, rand);
          last_kseaf_ = derive_kseaf(derive_kausf(k_, rand));
        } else {
          if (!verify_autn(k_, rand, autn)) {
            CB_LOG(Warn, "ue-nas") << imsi_ << ": AUTN verification failed, aborting attach";
            return;  // network failed to authenticate: silently drop
          }
          res = compute_res(k_, rand);
        }
        enb_queue_.submit(kEnbMsg,
                          [res = std::move(res), respond = std::move(respond)]() mutable {
                            respond(std::move(res));
                          });
      });
    });
  };
  hooks.smc = [this](std::function<void()> complete) {
    enb_queue_.submit(kEnbMsg, [this, complete = std::move(complete)] {
      ue_queue_.submit(kUeMsg, [this, complete = std::move(complete)] {
        // Keys derived (K_ASME -> NAS/AS keys); send Security Mode Complete.
        enb_queue_.submit(kEnbMsg, std::move(complete));
      });
    });
  };
  hooks.done = [this, cell, site, done_shared](Result<net::Ipv4Addr> result) {
    enb_queue_.submit(kEnbMsg, [this, cell, site, done_shared,
                                         result = std::move(result)]() mutable {
      ue_queue_.submit(kUeMsg, [this, cell, site, done_shared,
                                         result = std::move(result)]() mutable {
        if (result.ok()) {
          current_ip_ = result.value();
          serving_cell_ = cell;
          ue_node_.add_address(current_ip_);
          ue_node_.set_default_route(site.radio_link);
          last_attach_latency_ = ue_node_.simulator().now() - attach_started_;
        }
        (*done_shared)(std::move(result));
      });
    });
  };

  // [UE msg 1/4] craft Attach Request, [eNB leg 1/6] relay to the AGW.
  // 5G crafts a SUCI instead of sending the IMSI in clear.
  ue_queue_.submit(kUeMsg, [this, site, hooks = std::move(hooks)]() mutable {
    Bytes suci;
    if (is_5g()) suci = conceal_supi(hn_key_, imsi_, suci_rng_);
    enb_queue_.submit(kEnbMsg,
                      [this, site, suci = std::move(suci), hooks = std::move(hooks)]() mutable {
      if (is_5g()) {
        mme_.attach5g(std::move(suci), &ue_node_, site.node, site.radio_link, std::move(hooks));
      } else {
        mme_.attach(imsi_, &ue_node_, site.node, site.radio_link, std::move(hooks));
      }
    });
  });
}

void UeNas::handover(ran::CellId cell, Duration interruption, std::function<void()> done) {
  if (!attached()) throw std::logic_error("UeNas: handover while detached");
  const ran::TowerSite old_site = ran_map_.site(serving_cell_);
  const ran::TowerSite new_site = ran_map_.site(cell);
  serving_cell_ = cell;

  // Break-before-make: the old bearer drops, the new one comes up after the
  // interruption; the IP is preserved (the PGW just switches the path), so
  // transports see at most a brief loss burst.
  old_site.radio_link->set_up(false);
  ue_node_.simulator().schedule(interruption, [this, cell, new_site, done = std::move(done)] {
    if (serving_cell_ != cell) return;  // superseded by a newer handover
    new_site.radio_link->set_up(true);
    // The path switch happens at the SPGW via the MME's user-plane driver.
    mme_.spgw().path_switch(imsi_, new_site.node, new_site.radio_link);
    ue_node_.set_default_route(new_site.radio_link);
    if (done) done();
  });
}

void UeNas::detach() {
  if (!attached()) return;
  const ran::TowerSite site = ran_map_.site(serving_cell_);
  site.radio_link->set_up(false);
  ue_node_.remove_address(current_ip_);
  mme_.spgw().release_session(imsi_);
  current_ip_ = net::Ipv4Addr{};
  serving_cell_ = 0;
}

}  // namespace cb::epc
