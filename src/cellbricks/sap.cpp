#include "cellbricks/sap.hpp"

#include <unordered_set>

#include "cellbricks/ticket.hpp"
#include "common/log.hpp"
#include "crypto/hmac.hpp"
#include "obs/metrics.hpp"

namespace cb::cellbricks {

namespace {

// Sign-then-seal: the recipient first opens the box, then verifies the
// embedded signature over the inner payload.
Bytes sign_and_seal(const crypto::RsaKeyPair& signer, const crypto::RsaPublicKey& recipient,
                    BytesView inner, Rng& rng) {
  ByteWriter w;
  w.bytes(inner);
  w.bytes(signer.sign(inner));
  return crypto::seal(recipient, w.data(), rng);
}

Result<Bytes> open_and_verify(const crypto::RsaKeyPair& recipient,
                              const crypto::RsaPublicKey& signer, BytesView box) {
  auto opened = crypto::open(recipient, box);
  if (!opened) return Result<Bytes>::err("open failed: " + opened.error());
  try {
    ByteReader r(opened.value());
    Bytes inner = r.bytes();
    const Bytes sig = r.bytes();
    if (!signer.verify(inner, sig)) return Result<Bytes>::err("signature verification failed");
    return inner;
  } catch (const std::out_of_range&) {
    return Result<Bytes>::err("truncated signed payload");
  }
}

}  // namespace

SecurityContext SecurityContext::derive(BytesView ss) {
  SecurityContext ctx;
  ctx.kasme = Bytes(ss.begin(), ss.end());
  ctx.k_nas_enc = crypto::hkdf({}, ss, to_bytes("nas-enc"), 32);
  ctx.k_nas_int = crypto::hkdf({}, ss, to_bytes("nas-int"), 32);
  ctx.k_as = crypto::hkdf({}, ss, to_bytes("as"), 32);
  return ctx;
}

// --- SapUe ---------------------------------------------------------------

SapUe::SapUe(std::string id_u, std::string id_b, crypto::RsaKeyPair keys,
             crypto::RsaPublicKey broker_key)
    : id_u_(std::move(id_u)),
      id_b_(std::move(id_b)),
      keys_(std::move(keys)),
      broker_key_(std::move(broker_key)) {}

Bytes SapUe::make_auth_req(const std::string& id_t, Rng& rng) {
  // Fig.2 steps 1-4.
  last_nonce_ = rng.random_bytes(16);
  last_id_t_ = id_t;

  ByteWriter auth_vec;
  auth_vec.str(id_u_);
  auth_vec.str(id_b_);
  auth_vec.str(id_t);
  auth_vec.bytes(last_nonce_);

  const Bytes auth_vec_enc = crypto::seal(broker_key_, auth_vec.data(), rng);
  const Bytes sig = keys_.sign(auth_vec_enc);

  ByteWriter req;
  req.str(id_b_);
  req.bytes(auth_vec_enc);
  req.bytes(sig);
  obs::inc(obs::counter("sap.ue.auth_req_built"));
  return req.take();
}

Result<UeSession> SapUe::process_auth_resp(BytesView auth_resp_u) {
  // Fig.2 steps 5-6.
  auto inner = open_and_verify(keys_, broker_key_, auth_resp_u);
  if (!inner) {
    obs::inc(obs::counter("sap.ue.auth_resp_invalid"));
    return Result<UeSession>::err("authRespU: " + inner.error());
  }
  try {
    ByteReader r(inner.value());
    const std::string id_u = r.str();
    const std::string id_t = r.str();
    const Bytes ss = r.bytes();
    const Bytes nonce = r.bytes();
    const std::uint64_t session_id = r.u64();
    // Optional trailing field (resumption-enabled brokers only): pre-ticket
    // responses simply end here.
    Bytes ticket;
    if (r.remaining() > 0) ticket = r.bytes();

    if (id_u != id_u_) return Result<UeSession>::err("authRespU: wrong subscriber");
    if (id_t != last_id_t_) return Result<UeSession>::err("authRespU: wrong bTelco");
    if (!constant_time_equal(nonce, last_nonce_)) {
      return Result<UeSession>::err("authRespU: nonce mismatch (replay?)");
    }
    last_nonce_.clear();  // single use

    UeSession session;
    session.id_t = id_t;
    session.session_id = session_id;
    session.security = SecurityContext::derive(ss);
    session.ticket = std::move(ticket);
    obs::inc(obs::counter("sap.ue.auth_resp_ok"));
    return session;
  } catch (const std::out_of_range&) {
    return Result<UeSession>::err("authRespU: truncated");
  }
}

// --- SapTelco -------------------------------------------------------------------

SapTelco::SapTelco(std::string id_t, crypto::RsaKeyPair keys, crypto::Certificate cert,
                   crypto::RsaPublicKey ca_key)
    : id_t_(std::move(id_t)),
      keys_(std::move(keys)),
      cert_(std::move(cert)),
      ca_key_(std::move(ca_key)) {}

Bytes SapTelco::make_auth_req_t(BytesView auth_req_u, const QosCap& qos_cap) {
  ByteWriter body;
  body.bytes(auth_req_u);
  body.str(id_t_);
  qos_cap.serialize(body);
  body.bytes(cert_.serialize());

  ByteWriter out;
  out.bytes(body.data());
  out.bytes(keys_.sign(body.data()));
  return out.take();
}

Result<TelcoSession> SapTelco::process_auth_resp(BytesView auth_resp_t,
                                                 const crypto::Certificate& broker_cert,
                                                 TimePoint now) {
  // Authenticate the broker via its CA-signed certificate before trusting
  // the response (mutual T<->B authentication).
  if (!crypto::CertificateAuthority::verify_signature(broker_cert, ca_key_)) {
    return Result<TelcoSession>::err("authRespT: broker certificate invalid");
  }
  if (now < broker_cert.not_before() || now > broker_cert.not_after()) {
    return Result<TelcoSession>::err("authRespT: broker certificate expired");
  }

  auto inner = open_and_verify(keys_, broker_cert.key(), auth_resp_t);
  if (!inner) return Result<TelcoSession>::err("authRespT: " + inner.error());
  try {
    ByteReader r(inner.value());
    TelcoSession session;
    session.ue_pseudonym = r.str();
    const std::string id_t = r.str();
    const Bytes ss = r.bytes();
    session.qos = QosInfo::deserialize(r);
    session.session_id = r.u64();
    if (id_t != id_t_) return Result<TelcoSession>::err("authRespT: addressed to another bTelco");
    session.security = SecurityContext::derive(ss);
    obs::inc(obs::counter("sap.telco.auth_resp_ok"));
    return session;
  } catch (const std::out_of_range&) {
    return Result<TelcoSession>::err("authRespT: truncated");
  }
}

// --- SapBroker ------------------------------------------------------------------

SapBroker::SapBroker(std::string id_b, crypto::RsaKeyPair keys, crypto::Certificate cert,
                     crypto::RsaPublicKey ca_key)
    : id_b_(std::move(id_b)),
      keys_(std::move(keys)),
      cert_(std::move(cert)),
      ca_key_(std::move(ca_key)) {}

void SapBroker::enable_resume(Bytes ticket_key, Duration ttl) {
  ticket_key_ = std::move(ticket_key);
  ticket_ttl_ = ttl;
}

void SapBroker::add_subscriber(const std::string& id_u, crypto::RsaPublicKey key) {
  subscribers_[id_u] = std::move(key);
}

void SapBroker::remove_subscriber(const std::string& id_u) { subscribers_.erase(id_u); }

const crypto::RsaPublicKey* SapBroker::subscriber_key(const std::string& id_u) const {
  auto it = subscribers_.find(id_u);
  return it == subscribers_.end() ? nullptr : &it->second;
}

Result<BrokerDecision> SapBroker::process_auth_req(
    BytesView auth_req_t, TimePoint now, Rng& rng, const QosInfo& desired_qos,
    const std::function<bool(const std::string&, const std::string&)>& authorize,
    const SessionIdTransform& session_id_transform) {
  using R = Result<BrokerDecision>;
  try {
    // Unpack and authenticate the bTelco layer.
    ByteReader outer(auth_req_t);
    const Bytes body = outer.bytes();
    const Bytes sig_t = outer.bytes();

    ByteReader br(body);
    const Bytes auth_req_u = br.bytes();
    const std::string id_t = br.str();
    const QosCap qos_cap = QosCap::deserialize(br);
    auto cert = crypto::Certificate::deserialize(br.bytes());
    if (!cert) return R::err("authReqT: " + cert.error());
    const crypto::Certificate& cert_t = cert.value();
    if (cert_t.subject() != id_t) return R::err("authReqT: certificate subject mismatch");
    if (!crypto::CertificateAuthority::verify_signature(cert_t, ca_key_)) {
      return R::err("authReqT: bTelco certificate invalid");
    }
    if (now < cert_t.not_before() || now > cert_t.not_after()) {
      return R::err("authReqT: bTelco certificate expired");
    }
    if (!cert_t.key().verify(body, sig_t)) return R::err("authReqT: bTelco signature invalid");

    // Unpack and authenticate the UE layer.
    ByteReader ur(auth_req_u);
    const std::string id_b = ur.str();
    const Bytes auth_vec_enc = ur.bytes();
    const Bytes sig_u = ur.bytes();
    if (id_b != id_b_) return R::err("authReqU: wrong broker");

    auto auth_vec = crypto::open(keys_, auth_vec_enc);
    if (!auth_vec) return R::err("authReqU: cannot open authVec: " + auth_vec.error());
    ByteReader vr(auth_vec.value());
    const std::string id_u = vr.str();
    const std::string vec_id_b = vr.str();
    const std::string vec_id_t = vr.str();
    const Bytes nonce = vr.bytes();

    if (vec_id_b != id_b_) return R::err("authVec: wrong broker");
    if (vec_id_t != id_t) {
      // The UE asked for a different bTelco than the one forwarding: either
      // a relay attack or a stale request.
      return R::err("authVec: bTelco mismatch");
    }
    auto sub = subscribers_.find(id_u);
    if (sub == subscribers_.end()) return R::err("authVec: unknown subscriber");
    if (!sub->second.verify(auth_vec_enc, sig_u)) return R::err("authVec: UE signature invalid");

    const std::string nonce_key = id_u + ":" + to_hex(nonce);
    if (seen_nonces_.contains(nonce_key)) return R::err("authVec: replayed nonce");
    seen_nonces_.insert(nonce_key);

    // Authorization policy (reputation, suspect list, billing standing).
    if (authorize && !authorize(id_u, id_t)) return R::err("authorization denied by policy");

    // Issue the session.
    BrokerDecision d;
    d.id_u = id_u;
    d.id_t = id_t;
    d.telco_key = cert_t.key();
    d.session_id = rng.next_u64();
    if (session_id_transform) d.session_id = session_id_transform(d.session_id, id_u);
    d.ss = rng.random_bytes(32);
    d.qos = QosInfo::negotiate(desired_qos, qos_cap);

    // authRespT: pseudonymous UE handle; never the real idU.
    const std::string pseudonym = "ue-" + to_hex(crypto::hmac_sha256(
        d.ss, to_bytes(id_u)));  // unlinkable across sessions
    ByteWriter t_inner;
    t_inner.str(pseudonym.substr(0, 19));
    t_inner.str(id_t);
    t_inner.bytes(d.ss);
    d.qos.serialize(t_inner);
    t_inner.u64(d.session_id);
    d.auth_resp_t = sign_and_seal(keys_, cert_t.key(), t_inner.data(), rng);

    ByteWriter u_inner;
    u_inner.str(id_u);
    u_inner.str(id_t);
    u_inner.bytes(d.ss);
    u_inner.bytes(nonce);
    u_inner.u64(d.session_id);
    if (!ticket_key_.empty()) {
      // Mint a resumption ticket (trailing optional field — pre-ticket UEs
      // stop reading before it). Drawn ONLY in resume mode, so worlds
      // without tickets consume the exact same rng stream as before.
      TicketInner ti;
      ti.pseudonym = pseudonym.substr(0, 19);
      ti.session_id = d.session_id;
      ti.qos = d.qos;
      ti.ss_resume = derive_resume_secret(d.ss);
      ti.ticket_id = rng.random_bytes(kTicketIdSize);
      u_inner.bytes(mint_resume_ticket(keys_, ticket_key_, ti, now + ticket_ttl_, rng));
    }
    d.auth_resp_u = sign_and_seal(keys_, sub->second, u_inner.data(), rng);

    obs::inc(obs::counter("sap.broker.auth_req_ok"));
    return d;
  } catch (const std::out_of_range&) {
    return R::err("authReqT: truncated");
  }
}

}  // namespace cb::cellbricks
