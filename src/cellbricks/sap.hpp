// The Secure Attachment Protocol (SAP) — the heart of CellBricks (§4.1).
//
// One round trip, UE → bTelco → broker → bTelco → UE, replacing the shared-
// secret EPS-AKA with public-key authentication among mutually untrusting
// parties. Message construction/verification is pure logic here (fully unit
// testable); the network actors in ue_agent/btelco/broker_cluster move the bytes.
//
// Faithful to Fig.2/Fig.3:
//   UE:     authVec = (idU, idB, idT, n); encrypt with pkB; sign with skU;
//           authReqU = (sig, authVec*, idB).
//           The bTelco never sees idU in cleartext (no IMSI catching).
//   bTelco: augments with (idT, qosCap, cert_T), signs -> authReqT.
//   Broker: authenticates T (CA cert + signature) and U (stored pkU +
//           signature), checks the nonce for replay, authorizes, and returns
//           authRespT (-> ss, qosInfo, pseudonymous session id, sealed to T)
//           and authRespU (-> ss, nonce echo, sealed to U), both signed.
//   Both U and T derive the security context from ss (= K_ASME) via HKDF.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cellbricks/qos.hpp"
#include "common/result.hpp"
#include "crypto/box.hpp"
#include "crypto/cert.hpp"

namespace cb::cellbricks {

/// NAS/AS key hierarchy derived from the SAP shared secret (§4.1: ss is
/// used as K_ASME in the unmodified SMC procedures).
struct SecurityContext {
  Bytes kasme;      // = ss
  Bytes k_nas_enc;  // NAS ciphering
  Bytes k_nas_int;  // NAS integrity
  Bytes k_as;       // AS (RRC/UP) root

  static SecurityContext derive(BytesView ss);
  bool operator==(const SecurityContext&) const = default;
};

/// What the UE learns from a successful SAP run.
struct UeSession {
  std::string id_t;  // serving bTelco
  std::uint64_t session_id = 0;
  SecurityContext security;
  /// Resumption ticket (ticket.hpp), present when the broker has resumption
  /// enabled; empty otherwise. Opaque to the UE — it is presented verbatim
  /// on re-attach, authenticated by ss-derived material.
  Bytes ticket;
};

/// What the bTelco learns (note: a pseudonym, never the real idU).
struct TelcoSession {
  std::string ue_pseudonym;
  std::uint64_t session_id = 0;
  QosInfo qos;
  SecurityContext security;
};

// --- UE side ---------------------------------------------------------------

class SapUe {
 public:
  /// `keys` and `broker_key` are SIM-provisioned state (§4.1: "U's key
  /// pairs and B's public key ... embedded in the U's SIM card").
  SapUe(std::string id_u, std::string id_b, crypto::RsaKeyPair keys,
        crypto::RsaPublicKey broker_key);

  const std::string& id_u() const { return id_u_; }
  const crypto::RsaPublicKey& public_key() const { return keys_.public_key(); }
  const crypto::RsaPublicKey& broker_key() const { return broker_key_; }

  /// Sign arbitrary payloads with the device key (baseband-held): used for
  /// tamper-resistant traffic reports (§4.3).
  Bytes sign(BytesView message) const { return keys_.sign(message); }

  /// Craft authReqU for bTelco `id_t`; remembers the nonce for the reply.
  Bytes make_auth_req(const std::string& id_t, Rng& rng);

  /// Verify and unpack authRespU; fails on bad signature, wrong nonce
  /// (replay), or mismatched identities.
  Result<UeSession> process_auth_resp(BytesView auth_resp_u);

 private:
  std::string id_u_;
  std::string id_b_;
  crypto::RsaKeyPair keys_;
  crypto::RsaPublicKey broker_key_;
  Bytes last_nonce_;
  std::string last_id_t_;
};

// --- bTelco side --------------------------------------------------------------

class SapTelco {
 public:
  SapTelco(std::string id_t, crypto::RsaKeyPair keys, crypto::Certificate cert,
           crypto::RsaPublicKey ca_key);

  const std::string& id_t() const { return id_t_; }
  const crypto::Certificate& certificate() const { return cert_; }

  /// Sign arbitrary payloads (traffic reports).
  Bytes sign(BytesView message) const { return keys_.sign(message); }

  /// Augment a UE request with service parameters and sign it (Fig.3 top).
  Bytes make_auth_req_t(BytesView auth_req_u, const QosCap& qos_cap);

  /// Verify a broker's authRespT: checks the broker certificate against the
  /// CA, the signature, and that the response addresses this bTelco.
  Result<TelcoSession> process_auth_resp(BytesView auth_resp_t,
                                         const crypto::Certificate& broker_cert,
                                         TimePoint now);

 private:
  std::string id_t_;
  crypto::RsaKeyPair keys_;
  crypto::Certificate cert_;
  crypto::RsaPublicKey ca_key_;
};

// --- Broker side ----------------------------------------------------------------

/// Outcome of broker-side SAP processing.
struct BrokerDecision {
  std::string id_u;   // authenticated subscriber
  std::string id_t;   // authenticated bTelco
  std::uint64_t session_id = 0;
  Bytes ss;           // issued shared secret
  QosInfo qos;        // negotiated parameters
  Bytes auth_resp_t;  // sealed for the bTelco
  Bytes auth_resp_u;  // sealed for the UE (forwarded blindly by the bTelco)
  crypto::RsaPublicKey telco_key;  // from the validated certificate
};

class SapBroker {
 public:
  SapBroker(std::string id_b, crypto::RsaKeyPair keys, crypto::Certificate cert,
            crypto::RsaPublicKey ca_key);

  const std::string& id_b() const { return id_b_; }
  const crypto::Certificate& certificate() const { return cert_; }
  /// CA root the broker validates bTelco certificates against (the broker also
  /// checks ResumeNotify certificates with it).
  const crypto::RsaPublicKey& ca_key() const { return ca_key_; }

  /// Enable resumption tickets (ticket.hpp): every successful auth appends a
  /// ticket — sealed under `ticket_key` (the STEK shared with federated
  /// bTelcos), signed by this broker, expiring `ttl` after issuance — to the
  /// UE response. Off (no ticket, wire unchanged) until called.
  void enable_resume(Bytes ticket_key, Duration ttl);
  bool resume_enabled() const { return !ticket_key_.empty(); }
  const Bytes& ticket_key() const { return ticket_key_; }

  /// Register a subscriber's public key (the broker issued it — no
  /// certificate needed, revocation = deletion).
  void add_subscriber(const std::string& id_u, crypto::RsaPublicKey key);
  void remove_subscriber(const std::string& id_u);
  /// The registered key of `id_u`, or null (the broker checks UE report
  /// signatures with it).
  const crypto::RsaPublicKey* subscriber_key(const std::string& id_u) const;

  /// Open a sealed box addressed to this broker (used for traffic reports,
  /// which are encrypted to pkB like SAP material).
  Result<Bytes> open_box(BytesView box) const { return crypto::open(keys_, box); }

  /// Distinct nonces consumed by accepted auth requests. Every authorized
  /// session burned exactly one fresh nonce, so sessions issued can never
  /// exceed this (the check layer's nonce-uniqueness invariant).
  std::size_t nonces_seen() const { return seen_nonces_.size(); }

  /// Optional hook applied to the freshly drawn session id before it is
  /// sealed into the responses. The sharded broker uses it to embed the
  /// subscriber's routing bucket in the id (settlement_log.hpp); the default
  /// (empty) leaves the raw random id untouched.
  using SessionIdTransform =
      std::function<std::uint64_t(std::uint64_t raw, const std::string& id_u)>;

  /// Full Fig.3 broker procedure. `authorize` is the policy hook
  /// (reputation / suspect list); `desired_qos` is the subscriber's plan.
  Result<BrokerDecision> process_auth_req(
      BytesView auth_req_t, TimePoint now, Rng& rng, const QosInfo& desired_qos,
      const std::function<bool(const std::string& id_u, const std::string& id_t)>& authorize,
      const SessionIdTransform& session_id_transform = {});

 private:
  std::string id_b_;
  crypto::RsaKeyPair keys_;
  crypto::Certificate cert_;
  crypto::RsaPublicKey ca_key_;
  std::unordered_map<std::string, crypto::RsaPublicKey> subscribers_;
  std::unordered_set<std::string> seen_nonces_;  // replay cache
  Bytes ticket_key_;                             // empty = resumption off
  Duration ticket_ttl_ = Duration::zero();
};

}  // namespace cb::cellbricks
