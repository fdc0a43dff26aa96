// HSS / SubscriberDB: the subscriber database of the MNO baseline.
//
// Serves two S6A-style requests over UDP — Authentication Information
// Request (AIR) and Update Location Request (ULR). The standard attach makes
// BOTH round-trips (TS 29.272); CellBricks' SAP replaces them with a single
// round-trip to the broker, which is where Fig.7's latency win comes from.
#pragma once

#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "crypto/rsa.hpp"
#include "epc/auth.hpp"
#include "net/node.hpp"
#include "sim/service_queue.hpp"

namespace cb::epc {

inline constexpr std::uint16_t kHssPort = 3868;

/// S6A message types on the wire. Types 6-9 are the 5G-AKA extension: the
/// AUSF/UDM roles fold into this same subscriber-database node (the serving
/// side still pays home-network round-trips, which is what Fig.7 measures).
enum class S6aType : std::uint8_t {
  AuthInfoReq = 1,
  AuthInfoResp = 2,
  UpdateLocationReq = 3,
  UpdateLocationResp = 4,
  Error = 5,
  Auth5gInfoReq = 6,      // carries a SUCI, not a cleartext IMSI
  Auth5gInfoResp = 7,     // RAND, AUTN, HXRES* (RES*/KSEAF stay home-side)
  Auth5gConfirm = 8,      // serving side forwards the UE's RES*
  Auth5gConfirmResp = 9,  // ok flag + disclosed SUPI + KSEAF
};

class Hss {
 public:
  explicit Hss(net::Node& node);

  /// Provision a subscriber with its permanent key K.
  void add_subscriber(const std::string& imsi, Bytes k);

  /// Enable the 5G-AKA service: generates the home-network keypair SUCIs
  /// are concealed under. Draws from `rng` only when called, so 4G worlds
  /// keep their RNG streams bit-identical.
  void enable_5g(Rng& rng, std::size_t modulus_bits = 512);
  /// Public half of the home-network key (the UE needs it to build SUCIs).
  const crypto::RsaPublicKey& home_network_key() const { return hn_keys_.public_key(); }

  /// Cumulative processing time (Fig.7 breakdown).
  Duration busy_time() const { return queue_.busy_time(); }
  std::uint64_t requests_served() const { return queue_.jobs(); }

 private:
  struct Pending5g {
    std::string supi;
    Bytes xres_star;
    Bytes kseaf;
  };

  void handle(const net::Packet& packet);
  void handle_5g_info(std::uint64_t txn, ByteReader& r, const net::EndPoint& from);
  void handle_5g_confirm(std::uint64_t txn, ByteReader& r, const net::EndPoint& from);
  void error_reply(const net::EndPoint& to, std::uint64_t txn, std::string_view reason);
  void reply(const net::EndPoint& to, Bytes payload);

  net::Node& node_;
  sim::ServiceQueue queue_;
  std::unordered_map<std::string, Bytes> subscribers_;
  std::unordered_map<std::string, std::string> locations_;  // imsi -> serving MME
  crypto::RsaKeyPair hn_keys_;                              // empty until enable_5g
  std::unordered_map<std::string, HssSqnState> sqn_;        // per-SUPI (5G path)
  std::unordered_map<std::uint64_t, Pending5g> pending5g_;  // txn -> awaiting confirm
  Rng rng_;
};

}  // namespace cb::epc
