#include "crypto/box.hpp"

#include <stdexcept>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"

namespace cb::crypto {

namespace {

// Derive independent cipher and MAC keys from one master secret.
struct SymKeys {
  Bytes enc;
  Bytes mac;
};

SymKeys derive(BytesView master) {
  const Bytes prk = hkdf_extract(to_bytes("cb-box-salt"), master);
  return SymKeys{
      hkdf_expand(prk, to_bytes("enc"), kChaChaKeySize),
      hkdf_expand(prk, to_bytes("mac"), 32),
  };
}

Bytes sym_encrypt(const SymKeys& keys, BytesView nonce, BytesView plaintext) {
  return chacha20_xor(keys.enc, nonce, 1, plaintext);
}

Bytes mac_over(const SymKeys& keys, BytesView nonce, BytesView ciphertext) {
  ByteWriter w;
  w.raw(nonce);
  w.raw(ciphertext);
  return hmac_sha256(keys.mac, w.data());
}

}  // namespace

Bytes seal(const RsaPublicKey& recipient, BytesView plaintext, Rng& rng) {
  const Bytes master = rng.random_bytes(32);
  const SymKeys keys = derive(master);
  const Bytes nonce = rng.random_bytes(kChaChaNonceSize);

  auto wrapped = recipient.encrypt(master, rng);
  if (!wrapped) throw std::logic_error("seal: " + wrapped.error());

  const Bytes ciphertext = sym_encrypt(keys, nonce, plaintext);
  const Bytes mac = mac_over(keys, nonce, ciphertext);

  ByteWriter w;
  w.bytes(wrapped.value());
  w.raw(nonce);
  w.bytes(ciphertext);
  w.raw(mac);
  return w.take();
}

Result<Bytes> open(const RsaKeyPair& recipient, BytesView box) {
  try {
    ByteReader r(box);
    const Bytes wrapped = r.bytes();
    const Bytes nonce = r.raw(kChaChaNonceSize);
    const Bytes ciphertext = r.bytes();
    const Bytes mac = r.raw(32);
    if (!r.done()) return Result<Bytes>::err("open: trailing bytes");

    auto master = recipient.decrypt(wrapped);
    if (!master) return Result<Bytes>::err("open: " + master.error());
    const SymKeys keys = derive(master.value());
    if (!constant_time_equal(mac, mac_over(keys, nonce, ciphertext))) {
      return Result<Bytes>::err("open: MAC mismatch");
    }
    return chacha20_xor(keys.enc, nonce, 1, ciphertext);
  } catch (const std::out_of_range&) {
    return Result<Bytes>::err("open: truncated box");
  }
}

Bytes symmetric_seal(BytesView key, BytesView plaintext, Rng& rng) {
  const SymKeys keys = derive(key);
  const Bytes nonce = rng.random_bytes(kChaChaNonceSize);
  const Bytes ciphertext = sym_encrypt(keys, nonce, plaintext);
  const Bytes mac = mac_over(keys, nonce, ciphertext);
  ByteWriter w;
  w.raw(nonce);
  w.bytes(ciphertext);
  w.raw(mac);
  return w.take();
}

Result<Bytes> symmetric_open(BytesView key, BytesView box) {
  try {
    ByteReader r(box);
    const Bytes nonce = r.raw(kChaChaNonceSize);
    const Bytes ciphertext = r.bytes();
    const Bytes mac = r.raw(32);
    if (!r.done()) return Result<Bytes>::err("symmetric_open: trailing bytes");
    const SymKeys keys = derive(key);
    if (!constant_time_equal(mac, mac_over(keys, nonce, ciphertext))) {
      return Result<Bytes>::err("symmetric_open: MAC mismatch");
    }
    return chacha20_xor(keys.enc, nonce, 1, ciphertext);
  } catch (const std::out_of_range&) {
    return Result<Bytes>::err("symmetric_open: truncated box");
  }
}

}  // namespace cb::crypto
