#include "epc/mme.hpp"

#include "common/log.hpp"
#include "epc/auth5g.hpp"
#include "obs/metrics.hpp"

namespace cb::epc {

namespace {

/// AGW processing per message. The baseline's per-message delays are
/// calibrated so the Fig.7 totals match the paper's testbed (see DESIGN.md):
/// UE 4 x 0.5 ms and eNB 6 x 0.5 ms (ue_nas.cpp), AGW 4 x 3 ms, and HSS
/// 2 x 2.75 ms (hss.cpp) => 22.5 ms of processing per attach.
constexpr Duration kAgwMsg = Duration::ms(3);

}  // namespace

Mme::Mme(net::Node& agw_node, SgwPgw& spgw, net::EndPoint hss)
    : node_(agw_node), spgw_(spgw), hss_(hss), queue_(agw_node.simulator()) {
  port_ = node_.alloc_port();
  node_.bind_udp(port_, [this](const net::Packet& p) { handle_hss_reply(p); });
}

void Mme::send_s6a(S6aType type, std::uint64_t txn, BytesView body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(txn);
  w.bytes(body);
  net::Packet p;
  p.src = net::EndPoint{node_.primary_address(), port_};
  p.dst = hss_;
  p.proto = net::Proto::Udp;
  p.payload = w.take();
  node_.send(std::move(p));
}

void Mme::handle_hss_reply(const net::Packet& packet) {
  try {
    ByteReader r(packet.payload);
    r.u8();  // type re-decoded by the continuation
    const std::uint64_t txn = r.u64();
    auto it = awaiting_hss_.find(txn);
    if (it == awaiting_hss_.end()) return;
    auto continuation = std::move(it->second);
    awaiting_hss_.erase(it);
    continuation(packet.payload);
  } catch (const std::out_of_range&) {
    CB_LOG(Warn, "mme") << "malformed HSS reply dropped";
  }
}

void Mme::fail(std::uint64_t txn, const std::string& reason) {
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  auto done = std::move(it->second.hooks.done);
  pending_.erase(it);
  obs::inc(obs::counter("epc.mme.attach.failure"));
  if (done) done(Result<net::Ipv4Addr>::err(reason));
}

void Mme::attach(const std::string& imsi, net::Node* ue_node, net::Node* tower,
                 net::Link* radio_link, AttachHooks hooks) {
  const std::uint64_t txn = next_txn_++;
  const TimePoint started = node_.simulator().now();
  pending_[txn] =
      PendingAttach{imsi, ue_node, tower, radio_link, std::move(hooks), {}, started};
  obs::inc(obs::counter("epc.mme.attach.attempts"));
  obs::trace(started, obs::TraceType::EpcAttachStart, txn);

  // [AGW msg 1/4] Process the Attach Request; query the HSS for vectors.
  queue_.submit(kAgwMsg, [this, txn, imsi] {
    awaiting_hss_[txn] = [this, txn](CowBytes payload) {
      // [AGW msg 2/4] Process the AIA; issue the authentication challenge.
      queue_.submit(kAgwMsg, [this, txn, payload = std::move(payload)] {
        auto it = pending_.find(txn);
        if (it == pending_.end()) return;
        ByteReader r(payload);
        const auto type = static_cast<S6aType>(r.u8());
        r.u64();
        if (type != S6aType::AuthInfoResp) {
          fail(txn, "HSS rejected AIR: " + (type == S6aType::Error ? r.str() : "bad reply"));
          return;
        }
        const Bytes rand = r.bytes();
        it->second.xres = r.bytes();
        const Bytes autn = r.bytes();
        r.bytes();  // kasme: retained by the network side implicitly

        it->second.hooks.challenge(rand, autn, [this, txn](Bytes res) {
          // [AGW msg 3/4] Verify RES; run security mode; then ULR.
          queue_.submit(kAgwMsg, [this, txn, res = std::move(res)] {
            auto pit = pending_.find(txn);
            if (pit == pending_.end()) return;
            if (!constant_time_equal(res, pit->second.xres)) {
              fail(txn, "authentication failure: RES mismatch");
              return;
            }
            update_location(txn);
          });
        });
      });
    };
    send_s6a(S6aType::AuthInfoReq, txn, to_bytes(imsi));
  });
}

void Mme::update_location(std::uint64_t txn) {
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  it->second.hooks.smc([this, txn] {
    auto sit = pending_.find(txn);
    if (sit == pending_.end()) return;
    awaiting_hss_[txn] = [this, txn](CowBytes ula) {
      // [AGW msg, last] Process ULA; create the bearer; accept.
      queue_.submit(kAgwMsg, [this, txn, ula = std::move(ula)] {
        auto ait = pending_.find(txn);
        if (ait == pending_.end()) return;
        ByteReader r(ula);
        if (static_cast<S6aType>(r.u8()) != S6aType::UpdateLocationResp) {
          fail(txn, "HSS rejected ULR");
          return;
        }
        PendingAttach ctx = std::move(ait->second);
        pending_.erase(ait);
        const net::Ipv4Addr ip =
            spgw_.create_session(ctx.imsi, ctx.ue_node, ctx.tower, ctx.radio_link);
        ++completed_;
        const TimePoint now = node_.simulator().now();
        obs::inc(obs::counter("epc.mme.attach.success"));
        obs::observe(obs::histogram("epc.mme.attach_latency_ms"),
                     (now - ctx.started_at).to_millis());
        obs::trace(now, obs::TraceType::EpcAttachDone, txn,
                   static_cast<std::uint64_t>((now - ctx.started_at).nanos() / 1000));
        ctx.hooks.done(ip);
      });
    };
    send_s6a(S6aType::UpdateLocationReq, txn, to_bytes(sit->second.imsi));
  });
}

void Mme::attach5g(Bytes suci, net::Node* ue_node, net::Node* tower, net::Link* radio_link,
                   AttachHooks hooks) {
  const std::uint64_t txn = next_txn_++;
  const TimePoint started = node_.simulator().now();
  // The SUPI is unknown until the home side confirms; filled at [AGW 4/5].
  pending_[txn] = PendingAttach{"", ue_node, tower, radio_link, std::move(hooks), {}, started};
  obs::inc(obs::counter("epc.mme.attach5g.attempts"));
  obs::trace(started, obs::TraceType::EpcAttachStart, txn);

  // [AGW msg 1/5] Process the Registration Request; forward the SUCI home.
  queue_.submit(kAgwMsg, [this, txn, suci = std::move(suci)] {
    awaiting_hss_[txn] = [this, txn](CowBytes payload) {
      // [AGW msg 2/5] Process the 5G AIA; issue the challenge.
      queue_.submit(kAgwMsg, [this, txn, payload = std::move(payload)] {
        auto it = pending_.find(txn);
        if (it == pending_.end()) return;
        ByteReader r(payload);
        const auto type = static_cast<S6aType>(r.u8());
        r.u64();
        if (type != S6aType::Auth5gInfoResp) {
          fail(txn, "AUSF rejected 5G AIR: " +
                        (type == S6aType::Error ? r.str() : "bad reply"));
          return;
        }
        const Bytes rand = r.bytes();
        const Bytes autn = r.bytes();
        it->second.xres = r.bytes();  // HXRES*: the SEAF's local check value

        it->second.hooks.challenge(rand, autn, [this, txn, rand](Bytes res_star) {
          // [AGW msg 3/5] HXRES* check locally, then confirm RES* home-side.
          queue_.submit(kAgwMsg, [this, txn, rand, res_star = std::move(res_star)] {
            auto pit = pending_.find(txn);
            if (pit == pending_.end()) return;
            if (!constant_time_equal(hash_res_star(rand, res_star), pit->second.xres)) {
              fail(txn, "authentication failure: HXRES* mismatch");
              return;
            }
            awaiting_hss_[txn] = [this, txn](CowBytes confirm) {
              // [AGW msg 4/5] Process the confirm; learn SUPI + KSEAF; SMC.
              queue_.submit(kAgwMsg, [this, txn, confirm = std::move(confirm)] {
                auto cit = pending_.find(txn);
                if (cit == pending_.end()) return;
                ByteReader cr(confirm);
                const auto ct = static_cast<S6aType>(cr.u8());
                cr.u64();
                if (ct != S6aType::Auth5gConfirmResp || cr.u8() != 1) {
                  fail(txn, "authentication failure: AUSF rejected RES*");
                  return;
                }
                cit->second.imsi = cr.str();  // disclosed SUPI
                last_kseaf_ = cr.bytes();
                update_location(txn);
              });
            };
            send_s6a(S6aType::Auth5gConfirm, txn, res_star);
          });
        });
      });
    };
    send_s6a(S6aType::Auth5gInfoReq, txn, suci);
  });
}

}  // namespace cb::epc
