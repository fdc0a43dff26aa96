// UE-side NAS and mobility for the MNO baseline.
//
// Runs the attach dialog against the MME (charging the UE's and the eNB's
// per-message processing time), configures the assigned IP on the UE node,
// and performs network-driven X2-style handovers that preserve the IP — the
// baseline behaviour CellBricks' host-driven mobility is compared against.
#pragma once

#include <functional>
#include <string>

#include "epc/mme.hpp"
#include "ran/ran_map.hpp"

namespace cb::epc {

class UeNas {
 public:
  UeNas(net::Network& network, net::Node& ue_node, std::string imsi, Bytes k, Mme& mme,
        const ran::RanMap& ran_map);

  /// Switch this UE to 5G registration: attaches conceal the SUPI under
  /// `hn_key` (SUCI) and run the RES*/HXRES* dialog. `rng` seeds the SUCI
  /// concealment randomness; pass a dedicated fork so 4G worlds stay
  /// bit-identical.
  void enable_5g(crypto::RsaPublicKey hn_key, Rng rng);
  bool is_5g() const { return !hn_key_.empty(); }

  /// Full attach on `cell`; `done` receives the assigned IP (which the UE
  /// node is configured with) or an error.
  void attach(ran::CellId cell, std::function<void(Result<net::Ipv4Addr>)> done);

  /// Network-driven handover to `cell`: IP preserved; the radio is
  /// interrupted for `interruption` (break-before-make worst case).
  void handover(ran::CellId cell, Duration interruption = Duration::ms(30),
                std::function<void()> done = nullptr);

  void detach();

  bool attached() const { return current_ip_.valid(); }
  net::Ipv4Addr current_ip() const { return current_ip_; }
  ran::CellId serving_cell() const { return serving_cell_; }
  const std::string& imsi() const { return imsi_; }

  /// Latency of the most recent attach, radio legs excluded (Fig.7 metric).
  Duration last_attach_latency() const { return last_attach_latency_; }
  /// Processing-time accounting for the Fig.7 breakdown.
  Duration ue_busy_time() const { return ue_queue_.busy_time(); }
  Duration enb_busy_time() const { return enb_queue_.busy_time(); }

  /// UE-derived KSEAF from the most recent 5G challenge (conformance tests
  /// compare it against the network side's value).
  const Bytes& last_kseaf() const { return last_kseaf_; }

 private:
  net::Network& network_;
  net::Node& ue_node_;
  std::string imsi_;
  Bytes k_;
  Mme& mme_;
  const ran::RanMap& ran_map_;
  sim::ServiceQueue ue_queue_;
  sim::ServiceQueue enb_queue_;

  net::Ipv4Addr current_ip_;
  ran::CellId serving_cell_ = 0;
  TimePoint attach_started_;
  Duration last_attach_latency_ = Duration::zero();

  // 5G mode state (inert in 4G worlds).
  crypto::RsaPublicKey hn_key_;
  Rng suci_rng_{0};
  UeSqnState ue_sqn_;
  Bytes last_kseaf_;
};

}  // namespace cb::epc
