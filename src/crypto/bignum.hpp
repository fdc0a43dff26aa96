// Arbitrary-precision unsigned integers sized for RSA (512-2048 bit moduli).
//
// Little-endian 32-bit limbs with 64-bit intermediates; division is Knuth's
// Algorithm D so modular exponentiation stays fast enough for per-attachment
// signing in the simulator. Only the operations RSA needs are provided.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace cb::crypto {

class BigNum;
class Montgomery;

/// Quotient and remainder from BigNum::divmod.
struct DivMod;

/// Unsigned big integer.
class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(std::uint64_t v);

  /// Big-endian byte import/export (the wire format for keys/signatures).
  static BigNum from_bytes_be(BytesView data);
  Bytes to_bytes_be() const;
  /// Fixed-width big-endian export, left-padded with zeros; throws if the
  /// value does not fit.
  Bytes to_bytes_be(std::size_t width) const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits.
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  int compare(const BigNum& o) const;
  bool operator==(const BigNum& o) const { return compare(o) == 0; }
  bool operator<(const BigNum& o) const { return compare(o) < 0; }
  bool operator<=(const BigNum& o) const { return compare(o) <= 0; }
  bool operator>(const BigNum& o) const { return compare(o) > 0; }
  bool operator>=(const BigNum& o) const { return compare(o) >= 0; }

  BigNum operator+(const BigNum& o) const;
  /// Requires *this >= o.
  BigNum operator-(const BigNum& o) const;
  BigNum operator*(const BigNum& o) const;
  BigNum operator<<(std::size_t bits) const;
  BigNum operator>>(std::size_t bits) const;

  /// Quotient and remainder; divisor must be nonzero.
  DivMod divmod(const BigNum& divisor) const;
  BigNum mod(const BigNum& m) const;

  /// (this ^ exponent) mod m. Moduli a Montgomery context accepts take that
  /// fast path; the rest (even, or wider than Montgomery::kMaxBits) fall
  /// back to square-and-multiply with Knuth division.
  BigNum powmod(const BigNum& exponent, const BigNum& m) const;

  /// Reference square-and-multiply implementation, kept as the fallback for
  /// moduli Montgomery refuses and as the differential-test oracle for it.
  BigNum powmod_reference(const BigNum& exponent, const BigNum& m) const;

  /// Remainder of division by a small value (used in prime sieving).
  std::uint32_t mod_u32(std::uint32_t m) const;

  std::string to_string_hex() const;

  /// Uniform random value in [0, bound).
  static BigNum random_below(Rng& rng, const BigNum& bound);
  /// Random odd integer with exactly `bits` bits (top bit set).
  static BigNum random_odd(Rng& rng, std::size_t bits);

  /// Greatest common divisor.
  static BigNum gcd(BigNum a, BigNum b);
  /// Modular inverse of a mod m (m > 1); returns zero if none exists.
  static BigNum modinv(const BigNum& a, const BigNum& m);

  /// Miller-Rabin with `rounds` random bases.
  static bool is_probable_prime(const BigNum& n, Rng& rng, int rounds = 24);
  /// Generate a random probable prime with exactly `bits` bits.
  static BigNum generate_prime(Rng& rng, std::size_t bits);

 private:
  friend class Montgomery;

  void trim();
  static BigNum sub_unchecked(const BigNum& a, const BigNum& b);

  std::vector<std::uint32_t> limbs_;  // little-endian, no trailing zeros
};

struct DivMod {
  BigNum quotient;
  BigNum remainder;
};

/// Precomputed Montgomery-form context for one odd modulus of at most
/// kMaxBits bits.
///
/// The modulus's 64-bit limbs are zero-padded to the smallest kernel width
/// S of 4, 8, 16 or 32 limbs that holds them, and R = 2^(64S). Every
/// modular multiplication is then one CIOS pass (interleaved multiply +
/// reduce, no division at all) of a kernel compiled for that S. CIOS needs
/// only an odd n < R, so the padding leaves every result unchanged.
/// Construction pays one Knuth division (for R^2 mod n) plus a Newton
/// inversion of the low limb. RSA keys cache one of these per modulus so
/// repeated sign/verify against the same key amortizes the setup.
/// Immutable after construction, so a `const Montgomery` is safe to share
/// across threads.
class Montgomery {
 public:
  /// Widest modulus a context takes (S = 32 limbs).
  static constexpr std::size_t kMaxBits = 2048;

  /// Whether a context can be built for `modulus`: odd, > 1 and at most
  /// kMaxBits bits. BigNum::powmod and the RSA keys build one only then.
  static bool accepts(const BigNum& modulus);

  /// Throws std::invalid_argument unless accepts(modulus).
  explicit Montgomery(const BigNum& modulus);

  const BigNum& modulus() const { return modulus_; }

  /// (base ^ exponent) mod modulus via fixed 4-bit-window exponentiation in
  /// stack buffers; the returned BigNum is its only allocation when
  /// base < modulus.
  BigNum pow(const BigNum& base, const BigNum& exponent) const;

 private:
  // Internally the context works on 64-bit limbs (with 128-bit multiply
  // intermediates): one CIOS pass then does a quarter of the single-limb
  // multiply-accumulates the BigNum 32-bit representation would need.
  using Limbs = std::vector<std::uint64_t>;

  /// out = a * b * R^-1 mod n (CIOS) on S-limb operands below n. `out` may
  /// alias `a` or `b`.
  template <std::size_t S>
  void mul(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out) const;
  template <std::size_t S>
  BigNum pow_fixed(const BigNum& base, const BigNum& exponent) const;

  /// Write v as s 64-bit limbs to out, zero-padded; v must fit.
  static void to_limbs(const BigNum& v, std::uint64_t* out, std::size_t s);
  static BigNum from_limbs(const std::uint64_t* v, std::size_t s);

  BigNum modulus_;
  Limbs n_;            // modulus limbs, zero-padded to S
  Limbs rr_;           // R^2 mod n, S limbs
  std::uint64_t n0inv_ = 0;  // -n^-1 mod 2^64
};

inline BigNum BigNum::mod(const BigNum& m) const { return divmod(m).remainder; }

}  // namespace cb::crypto
