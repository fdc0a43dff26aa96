#include "crypto/bignum.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace cb::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;

// Small primes for trial division before Miller-Rabin.
constexpr std::uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127,
    131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467};
}  // namespace

BigNum::BigNum(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigNum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::from_bytes_be(BytesView data) {
  BigNum out;
  out.limbs_.assign((data.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t byte_index = data.size() - 1 - i;  // significance
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(data[byte_index]) << ((i % 4) * 8);
  }
  out.trim();
  return out;
}

Bytes BigNum::to_bytes_be() const {
  if (is_zero()) return {};
  const std::size_t nbytes = (bit_length() + 7) / 8;
  return to_bytes_be(nbytes);
}

Bytes BigNum::to_bytes_be(std::size_t width) const {
  if (bit_length() > width * 8) throw std::invalid_argument("BigNum: value wider than requested");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t limb = i / 4;
    if (limb >= limbs_.size()) break;
    out[width - 1 - i] = static_cast<std::uint8_t>(limbs_[limb] >> ((i % 4) * 8));
  }
  return out;
}

std::size_t BigNum::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigNum::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigNum::compare(const BigNum& o) const {
  if (limbs_.size() != o.limbs_.size()) {
    return limbs_.size() < o.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] < o.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigNum BigNum::operator+(const BigNum& o) const {
  BigNum out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < o.limbs_.size()) sum += o.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.trim();
  return out;
}

BigNum BigNum::sub_unchecked(const BigNum& a, const BigNum& b) {
  BigNum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator-(const BigNum& o) const {
  if (*this < o) throw std::invalid_argument("BigNum: negative subtraction");
  return sub_unchecked(*this, o);
}

BigNum BigNum::operator*(const BigNum& o) const {
  if (is_zero() || o.is_zero()) return BigNum{};
  BigNum out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = limbs_[i];
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out.limbs_[i + j]) + ai * o.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + o.limbs_.size();
    while (carry) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out.limbs_[k]) + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigNum BigNum::operator<<(std::size_t bits) const {
  if (is_zero()) return {};
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return {};
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

DivMod BigNum::divmod(const BigNum& divisor) const {
  if (divisor.is_zero()) throw std::invalid_argument("BigNum: division by zero");
  if (*this < divisor) return {BigNum{}, *this};

  // Single-limb fast path.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigNum q;
    q.limbs_.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = rem << 32 | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigNum{rem}};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set, making the quotient estimate off by at most 2.
  const std::size_t shift = 32 - (divisor.bit_length() % 32 == 0 ? 32 : divisor.bit_length() % 32);
  const BigNum u_norm = *this << shift;
  const BigNum v_norm = divisor << shift;
  const std::size_t n = v_norm.limbs_.size();
  const std::size_t m = u_norm.limbs_.size() - n;

  std::vector<std::uint32_t> u(u_norm.limbs_);
  u.push_back(0);  // u has m+n+1 limbs
  const std::vector<std::uint32_t>& v = v_norm.limbs_;

  BigNum q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t numer = (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = numer / v[n - 1];
    std::uint64_t rhat = numer % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-subtract qhat * v from u[j..j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      std::int64_t t = static_cast<std::int64_t>(u[i + j]) - static_cast<std::int64_t>(p & 0xFFFFFFFF) - borrow;
      if (t < 0) {
        t += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(t);
    }
    std::int64_t t = static_cast<std::int64_t>(u[j + n]) - static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<std::int64_t>(kBase);
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum = static_cast<std::uint64_t>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<std::uint32_t>(sum);
        c = sum >> 32;
      }
      t += static_cast<std::int64_t>(c);
      t &= static_cast<std::int64_t>(0xFFFFFFFF);
    }
    u[j + n] = static_cast<std::uint32_t>(t);
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  q.trim();

  BigNum r;
  r.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  r.trim();
  r = r >> shift;
  return {q, r};
}

BigNum BigNum::powmod(const BigNum& exponent, const BigNum& m) const {
  if (m.is_zero()) throw std::invalid_argument("BigNum: powmod modulus zero");
  if (Montgomery::accepts(m)) return Montgomery(m).pow(*this, exponent);
  return powmod_reference(exponent, m);
}

BigNum BigNum::powmod_reference(const BigNum& exponent, const BigNum& m) const {
  if (m.is_zero()) throw std::invalid_argument("BigNum: powmod modulus zero");
  BigNum result{1};
  BigNum base = this->mod(m);
  const std::size_t nbits = exponent.bit_length();
  for (std::size_t i = 0; i < nbits; ++i) {
    if (exponent.bit(i)) result = (result * base).mod(m);
    base = (base * base).mod(m);
  }
  return result;
}

void Montgomery::to_limbs(const BigNum& v, std::uint64_t* out, std::size_t s) {
  std::fill(out, out + s, 0u);
  for (std::size_t i = 0; i < v.limbs_.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(v.limbs_[i]) << (32 * (i % 2));
  }
}

BigNum Montgomery::from_limbs(const std::uint64_t* v, std::size_t s) {
  BigNum out;
  out.limbs_.resize(s * 2, 0);
  for (std::size_t i = 0; i < s; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(v[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(v[i] >> 32);
  }
  out.trim();
  return out;
}

bool Montgomery::accepts(const BigNum& modulus) {
  return modulus.is_odd() && modulus > BigNum{1} && modulus.bit_length() <= kMaxBits;
}

Montgomery::Montgomery(const BigNum& modulus) : modulus_(modulus) {
  if (!accepts(modulus)) {
    throw std::invalid_argument("Montgomery: modulus must be odd, > 1 and at most 2048 bits");
  }
  std::size_t s = 4;
  while (64 * s < modulus.bit_length()) s *= 2;
  n_.resize(s);
  to_limbs(modulus, n_.data(), s);

  // n0inv = -n^-1 mod 2^64 by Newton iteration: for odd x, x is its own
  // inverse mod 8, and each step doubles the number of correct bits
  // (3 -> 6 -> 12 -> 24 -> 48 -> 96 covers 64).
  std::uint64_t inv = n_[0];
  for (int i = 0; i < 5; ++i) inv *= 2u - n_[0] * inv;
  n0inv_ = ~inv + 1u;  // -inv mod 2^64

  // R^2 mod n where R = 2^(64s): one big division at setup time.
  rr_.resize(s);
  to_limbs((BigNum{1} << (128 * s)).mod(modulus), rr_.data(), s);
}

template <std::size_t S>
void Montgomery::mul(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out) const {
  // CIOS (coarsely integrated operand scanning): interleave the multiply
  // by b[i] with the Montgomery reduction step, keeping the accumulator at
  // S+2 limbs. All terms fit in 128 bits: (2^64-1)^2 + 2*(2^64-1) = 2^128-1.
  using u128 = unsigned __int128;
  const std::uint64_t* n = n_.data();
  std::uint64_t t[S + 2] = {};
  for (std::size_t i = 0; i < S; ++i) {
    const u128 bi = b[i];
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < S; ++j) {
      const u128 cur = t[j] + a[j] * bi + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[S]) + carry;
    t[S] = static_cast<std::uint64_t>(cur);
    t[S + 1] = static_cast<std::uint64_t>(cur >> 64);

    // Add m*n with m chosen so the low limb cancels, then shift down a limb.
    const u128 m = static_cast<std::uint64_t>(t[0] * n0inv_);
    carry = static_cast<std::uint64_t>((t[0] + m * n[0]) >> 64);
    for (std::size_t j = 1; j < S; ++j) {
      cur = t[j] + m * n[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    cur = static_cast<u128>(t[S]) + carry;
    t[S - 1] = static_cast<std::uint64_t>(cur);
    t[S] = t[S + 1] + static_cast<std::uint64_t>(cur >> 64);
  }

  // t < 2n: subtract n unless that borrows out of the top limb t[S]. a and
  // b are no longer read, so out may alias them.
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < S; ++j) {
    const u128 diff = static_cast<u128>(t[j]) - n[j] - borrow;
    out[j] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1u;
  }
  if (t[S] == 0 && borrow != 0) std::copy(t, t + S, out);  // t < n already
}

template <std::size_t S>
BigNum Montgomery::pow_fixed(const BigNum& base, const BigNum& exponent) const {
  if (exponent.is_zero()) return BigNum{1};  // modulus > 1, so 1 mod n = 1

  // Fixed 4-bit windows over a table of powers in Montgomery form; scan the
  // exponent from the most significant nibble down. The table is built only
  // up to the largest window value the exponent actually uses — a sparse
  // exponent like 65537 (nibbles 1,0,0,0,1) then costs one table entry
  // instead of fifteen.
  const auto window = [&exponent](std::size_t w) {
    return (exponent.limbs_[w / 8] >> (4 * (w % 8))) & 0xFu;
  };
  const std::size_t nwindows = (exponent.bit_length() + 3) / 4;
  std::uint32_t max_window = 1;
  for (std::size_t w = 0; w < nwindows; ++w) max_window = std::max(max_window, window(w));

  // table[0] holds the base below n; table[k] = base^k * R mod n for k >= 1.
  std::uint64_t table[16][S] = {};
  if (base < modulus_) {
    to_limbs(base, table[0], S);
  } else {
    to_limbs(base.mod(modulus_), table[0], S);
  }
  mul<S>(table[0], rr_.data(), table[1]);
  for (std::size_t k = 2; k <= max_window; ++k) mul<S>(table[k - 1], table[1], table[k]);

  // The top window is nonzero, so the accumulator starts at its entry.
  const std::uint32_t top = window(nwindows - 1);
  std::uint64_t acc[S] = {};
  std::copy(table[top], table[top] + S, acc);
  for (std::size_t w = nwindows - 1; w-- > 0;) {
    for (int sq = 0; sq < 4; ++sq) mul<S>(acc, acc, acc);
    if (const std::uint32_t bits = window(w)) mul<S>(acc, table[bits], acc);
  }

  // Leave Montgomery form: mont(acc, 1).
  const std::uint64_t unit[S] = {1};
  mul<S>(acc, unit, acc);
  return from_limbs(acc, S);
}

BigNum Montgomery::pow(const BigNum& base, const BigNum& exponent) const {
  switch (n_.size()) {
    case 4: return pow_fixed<4>(base, exponent);
    case 8: return pow_fixed<8>(base, exponent);
    case 16: return pow_fixed<16>(base, exponent);
    default: return pow_fixed<32>(base, exponent);
  }
}

std::uint32_t BigNum::mod_u32(std::uint32_t m) const {
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | limbs_[i]) % m;
  }
  return static_cast<std::uint32_t>(rem);
}

std::string BigNum::to_string_hex() const {
  if (is_zero()) return "0";
  return to_hex(to_bytes_be());
}

BigNum BigNum::random_below(Rng& rng, const BigNum& bound) {
  if (bound.is_zero()) throw std::invalid_argument("BigNum: random_below(0)");
  const std::size_t nbits = bound.bit_length();
  const std::size_t nbytes = (nbits + 7) / 8;
  // Mask the top byte to the bound's bit width so rejection is rare.
  const std::uint8_t top_mask =
      static_cast<std::uint8_t>((1u << (nbits % 8 == 0 ? 8 : nbits % 8)) - 1);
  for (;;) {
    Bytes bytes = rng.random_bytes(nbytes);
    bytes[0] &= top_mask;
    BigNum candidate = from_bytes_be(bytes);
    if (candidate < bound) return candidate;
  }
}

BigNum BigNum::random_odd(Rng& rng, std::size_t bits) {
  if (bits < 2) throw std::invalid_argument("BigNum: random_odd needs >= 2 bits");
  Bytes bytes = rng.random_bytes((bits + 7) / 8);
  // Force exact bit length and oddness.
  const std::size_t top_bit = (bits - 1) % 8;
  bytes[0] &= static_cast<std::uint8_t>((1u << (top_bit + 1)) - 1);
  bytes[0] |= static_cast<std::uint8_t>(1u << top_bit);
  bytes.back() |= 1;
  return from_bytes_be(bytes);
}

BigNum BigNum::gcd(BigNum a, BigNum b) {
  while (!b.is_zero()) {
    BigNum r = a.mod(b);
    a = b;
    b = r;
  }
  return a;
}

BigNum BigNum::modinv(const BigNum& a, const BigNum& m) {
  // Extended Euclid on non-negative values, tracking coefficients with signs.
  BigNum old_r = a.mod(m), r = m;
  BigNum old_s{1}, s{};
  bool old_s_neg = false, s_neg = false;
  while (!r.is_zero()) {
    const DivMod dm = old_r.divmod(r);
    const BigNum q = dm.quotient;
    old_r = r;
    r = dm.remainder;

    // new_s = old_s - q * s (with sign tracking)
    BigNum qs = q * s;
    BigNum new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = s;
    old_s_neg = s_neg;
    s = new_s;
    s_neg = new_s_neg;
  }
  if (!(old_r == BigNum{1})) return BigNum{};  // not invertible
  if (old_s_neg) return m - old_s.mod(m);
  return old_s.mod(m);
}

bool BigNum::is_probable_prime(const BigNum& n, Rng& rng, int rounds) {
  if (n < BigNum{2}) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n == BigNum{p}) return true;
    if (n.mod_u32(p) == 0) return false;
  }
  if (!n.is_odd()) return n == BigNum{2};

  // n - 1 = d * 2^s
  const BigNum n_minus_1 = n - BigNum{1};
  BigNum d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  // One Montgomery context serves every round; a candidate wider than a
  // context takes goes through powmod's reference path instead.
  std::optional<Montgomery> mont;
  if (Montgomery::accepts(n)) mont.emplace(n);
  const BigNum two{2};
  const BigNum n_minus_3 = n - BigNum{3};
  for (int round = 0; round < rounds; ++round) {
    const BigNum a = random_below(rng, n_minus_3) + two;  // in [2, n-2]
    BigNum x = mont ? mont->pow(a, d) : a.powmod(d, n);
    if (x == BigNum{1} || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < s; ++i) {
      x = (x * x).mod(n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigNum BigNum::generate_prime(Rng& rng, std::size_t bits) {
  for (;;) {
    BigNum candidate = random_odd(rng, bits);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace cb::crypto
