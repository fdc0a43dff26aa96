#include "epc/hss.hpp"

#include "common/log.hpp"
#include "epc/auth5g.hpp"
#include "obs/metrics.hpp"

namespace cb::epc {

namespace {

/// Processing delay per request (Fig.7 calibration; see mme.cpp).
constexpr Duration kHssReq = Duration::millis(2.75);

}  // namespace

Hss::Hss(net::Node& node)
    : node_(node),
      queue_(node.simulator()),
      rng_(node.simulator().rng().fork(0x455)) {
  node_.bind_udp(kHssPort, [this](const net::Packet& p) { handle(p); });
}

void Hss::add_subscriber(const std::string& imsi, Bytes k) {
  subscribers_[imsi] = std::move(k);
}

void Hss::enable_5g(Rng& rng, std::size_t modulus_bits) {
  hn_keys_ = crypto::RsaKeyPair::generate(rng, modulus_bits);
}

void Hss::handle(const net::Packet& packet) {
  // Keep the fields we need; processing happens after the service delay.
  // The payload is COW, so holding it in the closure is a pointer share.
  CowBytes payload = packet.payload;
  const net::EndPoint from = packet.src;
  queue_.submit(kHssReq, [this, payload = std::move(payload), from] {
    try {
      ByteReader r(payload);
      const auto type = static_cast<S6aType>(r.u8());
      const std::uint64_t txn = r.u64();

      // 5G types carry a SUCI (or a RES*), never a cleartext IMSI — branch
      // before the identifier parse. The 4G path below is byte-identical to
      // its pre-5G form.
      if (type == S6aType::Auth5gInfoReq) {
        handle_5g_info(txn, r, from);
        return;
      }
      if (type == S6aType::Auth5gConfirm) {
        handle_5g_confirm(txn, r, from);
        return;
      }

      const std::string imsi = r.str();
      auto sub = subscribers_.find(imsi);
      if (sub == subscribers_.end()) {
        obs::inc(obs::counter("epc.hss.unknown_subscriber"));
        error_reply(from, txn, "unknown subscriber");
        return;
      }

      if (type == S6aType::AuthInfoReq) {
        obs::inc(obs::counter("epc.hss.air_served"));
        const AuthVector v = generate_auth_vector(sub->second, rng_);
        ByteWriter w;
        w.u8(static_cast<std::uint8_t>(S6aType::AuthInfoResp));
        w.u64(txn);
        w.bytes(v.rand);
        w.bytes(v.xres);
        w.bytes(v.autn);
        w.bytes(v.kasme);
        reply(from, w.take());
      } else if (type == S6aType::UpdateLocationReq) {
        obs::inc(obs::counter("epc.hss.ulr_served"));
        locations_[imsi] = from.to_string();
        ByteWriter w;
        w.u8(static_cast<std::uint8_t>(S6aType::UpdateLocationResp));
        w.u64(txn);
        w.u8(1);  // success
        reply(from, w.take());
      }
    } catch (const std::out_of_range&) {
      CB_LOG(Warn, "hss") << "malformed S6A message dropped";
    }
  });
}

void Hss::handle_5g_info(std::uint64_t txn, ByteReader& r, const net::EndPoint& from) {
  if (hn_keys_.empty()) {
    error_reply(from, txn, "5g not enabled");
    return;
  }
  const Bytes suci = r.bytes();
  const Result<std::string> supi = deconceal_suci(hn_keys_, suci);
  if (!supi.ok()) {
    obs::inc(obs::counter("epc.hss.suci_invalid"));
    error_reply(from, txn, "suci deconcealment failed");
    return;
  }
  auto sub = subscribers_.find(supi.value());
  if (sub == subscribers_.end()) {
    obs::inc(obs::counter("epc.hss.unknown_subscriber"));
    error_reply(from, txn, "unknown subscriber");
    return;
  }
  obs::inc(obs::counter("epc.hss.air5g_served"));
  const Auth5gVector v = generate_auth5g_vector(sub->second, sqn_[supi.value()], rng_);
  pending5g_[txn] = Pending5g{supi.value(), v.xres_star, v.kseaf};
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(S6aType::Auth5gInfoResp));
  w.u64(txn);
  w.bytes(v.rand);
  w.bytes(v.autn);
  w.bytes(v.hxres_star);
  reply(from, w.take());
}

void Hss::handle_5g_confirm(std::uint64_t txn, ByteReader& r, const net::EndPoint& from) {
  auto it = pending5g_.find(txn);
  if (it == pending5g_.end()) {
    error_reply(from, txn, "no pending 5g auth");
    return;
  }
  const Bytes res_star = r.bytes();
  const bool ok = constant_time_equal(res_star, it->second.xres_star);
  obs::inc(obs::counter(ok ? "epc.hss.confirm5g_ok" : "epc.hss.confirm5g_failed"));
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(S6aType::Auth5gConfirmResp));
  w.u64(txn);
  w.u8(ok ? 1 : 0);
  w.str(it->second.supi);
  w.bytes(ok ? it->second.kseaf : Bytes{});
  pending5g_.erase(it);
  reply(from, w.take());
}

void Hss::error_reply(const net::EndPoint& to, std::uint64_t txn, std::string_view reason) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(S6aType::Error));
  w.u64(txn);
  w.str(reason);
  reply(to, w.take());
}

void Hss::reply(const net::EndPoint& to, Bytes payload) {
  net::Packet p;
  p.src = net::EndPoint{node_.primary_address(), kHssPort};
  p.dst = to;
  p.proto = net::Proto::Udp;
  p.payload = std::move(payload);
  node_.send(std::move(p));
}

}  // namespace cb::epc
