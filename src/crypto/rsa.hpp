// RSA key generation, signatures, and encryption built on BigNum.
//
// Padding follows PKCS#1 v1.5 shapes (type-1 blocks for signatures, type-2
// for encryption). The goal is real asymmetric-crypto behaviour and cost for
// the SAP and billing protocols — not resistance to 2020s-era lattice/oracle
// attacks, which a production deployment would get from a vetted library.
#pragma once

#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/bignum.hpp"

namespace cb::crypto {

/// Public half of an RSA key pair; copyable value type.
class RsaPublicKey {
 public:
  RsaPublicKey() = default;
  RsaPublicKey(BigNum n, BigNum e) : n_(std::move(n)), e_(std::move(e)) {
    if (Montgomery::accepts(n_)) mont_ = std::make_shared<const Montgomery>(n_);
  }

  const BigNum& modulus() const { return n_; }
  const BigNum& exponent() const { return e_; }
  /// Modulus size in bytes (the width of signatures and ciphertext blocks).
  std::size_t size_bytes() const { return (n_.bit_length() + 7) / 8; }
  bool empty() const { return n_.is_zero(); }

  /// Verify a signature over sha256(message).
  bool verify(BytesView message, BytesView signature) const;
  /// Encrypt a short plaintext (must fit in size_bytes() - 11).
  Result<Bytes> encrypt(BytesView plaintext, Rng& rng) const;

  /// Stable identifier: sha256 over the serialized key (paper: "an
  /// identifier could be the digest of the owner's public key").
  Bytes fingerprint() const;

  Bytes serialize() const;
  static Result<RsaPublicKey> deserialize(BytesView data);

  bool operator==(const RsaPublicKey& o) const { return n_ == o.n_ && e_ == o.e_; }

 private:
  /// (base ^ e) mod n through the cached Montgomery context when available.
  BigNum public_op(const BigNum& base) const {
    return mont_ ? mont_->pow(base, e_) : base.powmod(e_, n_);
  }

  BigNum n_;
  BigNum e_;
  // Per-key precomputed context; shared so copies of the key (they are
  // passed around by value in SAP messages) reuse one immutable setup.
  std::shared_ptr<const Montgomery> mont_;
};

/// Full RSA key pair.
class RsaKeyPair {
 public:
  RsaKeyPair() = default;

  /// Generate a fresh key with the given modulus size (default 1024 bits:
  /// large enough for real multi-precision cost, small enough for fast
  /// simulation; tests use 512 for speed).
  static RsaKeyPair generate(Rng& rng, std::size_t modulus_bits = 1024);

  const RsaPublicKey& public_key() const { return pub_; }
  bool empty() const { return pub_.empty(); }

  /// Sign sha256(message) with the private exponent.
  Bytes sign(BytesView message) const;
  /// Decrypt a ciphertext produced by RsaPublicKey::encrypt.
  Result<Bytes> decrypt(BytesView ciphertext) const;

 private:
  RsaKeyPair(RsaPublicKey pub, BigNum d, BigNum p, BigNum q);
  /// Private-key exponentiation, CRT-accelerated when factors are known.
  BigNum private_op(const BigNum& m) const;

  RsaPublicKey pub_;
  BigNum d_;
  // CRT components (standard ~4x speedup for sign/decrypt).
  BigNum p_, q_, d_p_, d_q_, q_inv_;
  // Montgomery contexts for the two half-size prime moduli.
  std::shared_ptr<const Montgomery> mont_p_, mont_q_;
};

}  // namespace cb::crypto
