#include "crypto/rsa.hpp"

#include <stdexcept>

#include "crypto/sha256.hpp"

namespace cb::crypto {

namespace {
// PKCS#1 v1.5 type-1 block: 0x00 0x01 FF..FF 0x00 || digest.
Bytes signature_block(BytesView message, std::size_t width) {
  const Bytes digest = sha256(message);
  if (width < digest.size() + 11) throw std::invalid_argument("rsa: modulus too small to sign");
  Bytes em(width, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[width - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(), em.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return em;
}
}  // namespace

bool RsaPublicKey::verify(BytesView message, BytesView signature) const {
  if (empty() || signature.size() != size_bytes()) return false;
  const BigNum s = BigNum::from_bytes_be(signature);
  if (s >= n_) return false;
  const BigNum m = public_op(s);
  Bytes em;
  try {
    em = m.to_bytes_be(size_bytes());
  } catch (const std::invalid_argument&) {
    return false;
  }
  const Bytes expected = signature_block(message, size_bytes());
  return constant_time_equal(em, expected);
}

Result<Bytes> RsaPublicKey::encrypt(BytesView plaintext, Rng& rng) const {
  if (empty()) return Result<Bytes>::err("rsa encrypt: empty key");
  const std::size_t k = size_bytes();
  if (plaintext.size() + 11 > k) return Result<Bytes>::err("rsa encrypt: plaintext too long");

  // Type-2 block: 0x00 0x02 <nonzero pad> 0x00 <plaintext>.
  Bytes em(k, 0);
  em[1] = 0x02;
  const std::size_t pad_len = k - plaintext.size() - 3;
  for (std::size_t i = 0; i < pad_len; ++i) {
    std::uint8_t b;
    do {
      b = static_cast<std::uint8_t>(rng.next_u64());
    } while (b == 0);
    em[2 + i] = b;
  }
  em[2 + pad_len] = 0x00;
  std::copy(plaintext.begin(), plaintext.end(), em.begin() + static_cast<std::ptrdiff_t>(3 + pad_len));

  const BigNum m = BigNum::from_bytes_be(em);
  return public_op(m).to_bytes_be(k);
}

Bytes RsaPublicKey::fingerprint() const { return sha256(serialize()); }

Bytes RsaPublicKey::serialize() const {
  ByteWriter w;
  w.bytes(n_.to_bytes_be());
  w.bytes(e_.to_bytes_be());
  return w.take();
}

Result<RsaPublicKey> RsaPublicKey::deserialize(BytesView data) {
  try {
    ByteReader r(data);
    BigNum n = BigNum::from_bytes_be(r.bytes());
    BigNum e = BigNum::from_bytes_be(r.bytes());
    if (!n.is_odd() || n < BigNum{3}) {
      return Result<RsaPublicKey>::err("rsa key: modulus must be odd and >= 3");
    }
    if (e.is_zero()) return Result<RsaPublicKey>::err("rsa key: zero exponent");
    return RsaPublicKey(std::move(n), std::move(e));
  } catch (const std::out_of_range&) {
    return Result<RsaPublicKey>::err("rsa key: truncated");
  }
}

RsaKeyPair::RsaKeyPair(RsaPublicKey pub, BigNum d, BigNum p, BigNum q)
    : pub_(std::move(pub)), d_(std::move(d)), p_(std::move(p)), q_(std::move(q)) {
  d_p_ = d_.mod(p_ - BigNum{1});
  d_q_ = d_.mod(q_ - BigNum{1});
  q_inv_ = BigNum::modinv(q_, p_);
  if (Montgomery::accepts(p_)) mont_p_ = std::make_shared<const Montgomery>(p_);
  if (Montgomery::accepts(q_)) mont_q_ = std::make_shared<const Montgomery>(q_);
}

RsaKeyPair RsaKeyPair::generate(Rng& rng, std::size_t modulus_bits) {
  if (modulus_bits < 128) throw std::invalid_argument("rsa: modulus too small");
  const BigNum e{65537};
  for (;;) {
    const BigNum p = BigNum::generate_prime(rng, modulus_bits / 2);
    const BigNum q = BigNum::generate_prime(rng, modulus_bits - modulus_bits / 2);
    if (p == q) continue;
    const BigNum n = p * q;
    const BigNum phi = (p - BigNum{1}) * (q - BigNum{1});
    if (!(BigNum::gcd(e, phi) == BigNum{1})) continue;
    BigNum d = BigNum::modinv(e, phi);
    if (d.is_zero()) continue;
    return RsaKeyPair(RsaPublicKey(n, e), std::move(d), p, q);
  }
}

BigNum RsaKeyPair::private_op(const BigNum& m) const {
  // Garner's CRT recombination: m^d mod n from half-size exponentiations,
  // each through its prime's cached Montgomery context.
  const BigNum m1 = mont_p_ ? mont_p_->pow(m, d_p_) : m.mod(p_).powmod(d_p_, p_);
  const BigNum m2 = mont_q_ ? mont_q_->pow(m, d_q_) : m.mod(q_).powmod(d_q_, q_);
  // h = q_inv * (m1 - m2) mod p  (lift m1 into the positive range first)
  const BigNum diff = (m1 + p_ - m2.mod(p_)).mod(p_);
  const BigNum h = (q_inv_ * diff).mod(p_);
  return m2 + q_ * h;
}

Bytes RsaKeyPair::sign(BytesView message) const {
  if (empty()) throw std::logic_error("rsa sign: empty key");
  const std::size_t k = pub_.size_bytes();
  const Bytes em = signature_block(message, k);
  const BigNum m = BigNum::from_bytes_be(em);
  return private_op(m).to_bytes_be(k);
}

Result<Bytes> RsaKeyPair::decrypt(BytesView ciphertext) const {
  if (empty()) return Result<Bytes>::err("rsa decrypt: empty key");
  const std::size_t k = pub_.size_bytes();
  if (ciphertext.size() != k) return Result<Bytes>::err("rsa decrypt: bad ciphertext length");
  const BigNum c = BigNum::from_bytes_be(ciphertext);
  if (c >= pub_.modulus()) return Result<Bytes>::err("rsa decrypt: ciphertext out of range");
  Bytes em;
  try {
    em = private_op(c).to_bytes_be(k);
  } catch (const std::invalid_argument&) {
    return Result<Bytes>::err("rsa decrypt: internal width error");
  }
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    return Result<Bytes>::err("rsa decrypt: bad padding");
  }
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) return Result<Bytes>::err("rsa decrypt: bad padding");
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

}  // namespace cb::crypto
