// Additional crypto coverage: more published vectors, parameterized
// property sweeps across key sizes and message lengths, and adversarial
// byte-level robustness of every deserializer.
#include <gtest/gtest.h>

#include "common/fnv.hpp"
#include "crypto/bignum.hpp"
#include "crypto/box.hpp"
#include "crypto/cert.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "test_seed.hpp"

namespace cb::crypto {
namespace {

// --- More NIST / RFC vectors -------------------------------------------------

TEST(Sha256Extra, Nist448BitMessage) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijk"
                                   "lmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnop"
                                   "qrstu"))),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Extra, SingleByteAndBoundaryLengths) {
  // 55/56/64-byte messages straddle the padding boundary.
  for (std::size_t n : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    const Bytes m(n, 'x');
    Sha256 incremental;
    for (std::size_t i = 0; i < n; ++i) incremental.update(BytesView(&m[i], 1));
    EXPECT_EQ(incremental.finish(), sha256(m)) << "length " << n;
  }
}

TEST(HmacExtra, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacExtra, Rfc4231Case4) {
  const Bytes key = from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  const Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HkdfExtra, Rfc5869Case2LongInputs) {
  Bytes ikm, salt, info;
  for (int i = 0x00; i <= 0x4f; ++i) ikm.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0x60; i <= 0xaf; ++i) salt.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0xb0; i <= 0xff; ++i) info.push_back(static_cast<std::uint8_t>(i));
  const Bytes okm = hkdf(salt, ikm, info, 82);
  EXPECT_EQ(to_hex(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

TEST(HkdfExtra, Rfc5869Case3NoSaltNoInfo) {
  const Bytes ikm(22, 0x0b);
  EXPECT_EQ(to_hex(hkdf({}, ikm, {}, 42)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// --- BigNum edge cases --------------------------------------------------------

TEST(BigNumExtra, ZeroBehaviour) {
  const BigNum zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_TRUE(zero.to_bytes_be().empty());
  EXPECT_TRUE(zero + zero == zero);
  EXPECT_TRUE(zero * BigNum{12345} == zero);
  EXPECT_THROW(BigNum{1}.divmod(zero), std::invalid_argument);
  EXPECT_THROW(zero - BigNum{1}, std::invalid_argument);
}

TEST(BigNumExtra, FixedWidthExport) {
  const BigNum v{0x1234};
  EXPECT_EQ(to_hex(v.to_bytes_be(4)), "00001234");
  EXPECT_THROW(v.to_bytes_be(1), std::invalid_argument);
}

TEST(BigNumExtra, LeadingZeroBytesIgnoredOnImport) {
  const BigNum a = BigNum::from_bytes_be(from_hex("00000042"));
  EXPECT_TRUE(a == BigNum{0x42});
}

TEST(BigNumExtra, DivModBySelfAndOne) {
  const std::uint64_t seed = cb::test::seed_or(3);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  const BigNum a = BigNum::from_bytes_be(rng.random_bytes(24));
  auto [q1, r1] = a.divmod(a);
  EXPECT_TRUE(q1 == BigNum{1});
  EXPECT_TRUE(r1.is_zero());
  auto [q2, r2] = a.divmod(BigNum{1});
  EXPECT_TRUE(q2 == a);
  EXPECT_TRUE(r2.is_zero());
}

TEST(BigNumExtra, PowmodEdges) {
  const BigNum m{97};
  EXPECT_TRUE(BigNum{5}.powmod(BigNum{}, m) == BigNum{1});   // x^0 = 1
  EXPECT_TRUE(BigNum{}.powmod(BigNum{5}, m) == BigNum{});    // 0^x = 0
  EXPECT_TRUE(BigNum{98}.powmod(BigNum{1}, m) == BigNum{1}); // reduced base
}

TEST(BigNumExtra, ModU32MatchesDivMod) {
  const std::uint64_t seed = cb::test::seed_or(17);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  for (int i = 0; i < 50; ++i) {
    const BigNum a = BigNum::from_bytes_be(rng.random_bytes(1 + rng.next_below(30)));
    const std::uint32_t m = 2 + static_cast<std::uint32_t>(rng.next_below(1u << 30));
    const auto [q, r] = a.divmod(BigNum{m});
    EXPECT_TRUE(BigNum{a.mod_u32(m)} == r);
  }
}

// --- RSA across key sizes (CRT correctness) -----------------------------------

class RsaKeySizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaKeySizeSweep, SignVerifyEncryptDecrypt) {
  Rng rng(GetParam());
  const RsaKeyPair keys = RsaKeyPair::generate(rng, GetParam());
  const Bytes msg = rng.random_bytes(40);

  const Bytes sig = keys.sign(msg);
  EXPECT_TRUE(keys.public_key().verify(msg, sig));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(keys.public_key().verify(tampered, sig));

  const Bytes pt = rng.random_bytes(24);
  auto ct = keys.public_key().encrypt(pt, rng);
  ASSERT_TRUE(ct.ok());
  auto out = keys.decrypt(ct.value());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), pt);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaKeySizeSweep, ::testing::Values(384, 512, 768, 1024));

TEST(RsaExtra, CrtMatchesPlainExponentiation) {
  // The signature must verify under pure public-side math — which it only
  // can if the CRT private op equals m^d mod n.
  Rng rng(404);
  const RsaKeyPair keys = RsaKeyPair::generate(rng, 512);
  for (int i = 0; i < 10; ++i) {
    const Bytes msg = rng.random_bytes(1 + rng.next_below(200));
    EXPECT_TRUE(keys.public_key().verify(msg, keys.sign(msg)));
  }
}

// A serialized public key {n, e = 65537} with the given big-endian modulus.
Bytes key_with_modulus(const char* n_hex) {
  ByteWriter w;
  w.bytes(from_hex(n_hex));
  w.bytes(from_hex("010001"));
  return w.take();
}

TEST(RsaExtra, DeserializeGarbage) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    (void)RsaPublicKey::deserialize(rng.random_bytes(rng.next_below(60)));
  }
  // Well-formed keys whose modulus no RSA key has: 1 (it once threw from
  // the Montgomery constructor) and even values.
  for (const char* n_hex : {"01", "02", "0100"}) {
    EXPECT_FALSE(RsaPublicKey::deserialize(key_with_modulus(n_hex)).ok()) << "n=" << n_hex;
  }
  SUCCEED();  // must not crash/throw
}

// --- Certificates / boxes robustness ------------------------------------------

TEST(CertExtra, DeserializeGarbage) {
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    (void)Certificate::deserialize(rng.random_bytes(rng.next_below(100)));
  }
  // A well-formed certificate whose key has modulus 1.
  ByteWriter tbs;
  tbs.str("telco");
  tbs.bytes(key_with_modulus("01"));
  tbs.str("root");
  tbs.u64(0);
  tbs.u64(1);
  ByteWriter cert;
  cert.bytes(tbs.data());
  cert.bytes({});
  EXPECT_FALSE(Certificate::deserialize(cert.data()).ok());
  SUCCEED();
}

TEST(BoxExtra, OpenGarbage) {
  Rng rng(9);
  const RsaKeyPair keys = RsaKeyPair::generate(rng, 512);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(open(keys, rng.random_bytes(rng.next_below(300))).ok());
  }
}

class BoxPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoxPayloadSweep, RoundTripAnySize) {
  const std::uint64_t seed = cb::test::seed_or(100) + GetParam();
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << (seed - GetParam()));
  Rng rng(seed);
  static const RsaKeyPair keys = [] {
    Rng kr(55);
    return RsaKeyPair::generate(kr, 512);
  }();
  const Bytes msg = rng.random_bytes(GetParam());
  auto out = open(keys, seal(keys.public_key(), msg, rng));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoxPayloadSweep,
                         ::testing::Values(0, 1, 31, 32, 33, 63, 64, 1000, 20000));

TEST(MontgomeryDiff, MatchesReferencePowmodOnRandomOddModuli) {
  // Differential test: the Montgomery/CIOS fast path must agree with the
  // reference square-and-multiply for random bases/exponents/odd moduli of
  // assorted widths (including non-limb-aligned ones).
  const std::uint64_t seed = cb::test::seed_or(0xD1FF);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  for (std::size_t bits : {2u, 17u, 33u, 64u, 65u, 127u, 256u, 511u, 1024u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const BigNum m = BigNum::random_odd(rng, bits);
      const BigNum base = BigNum::random_below(rng, m + m);  // may exceed m
      const BigNum exp = BigNum::random_below(rng, m);
      EXPECT_EQ(base.powmod(exp, m), base.powmod_reference(exp, m))
          << "bits=" << bits << " trial=" << trial;
    }
  }
}

TEST(MontgomeryDiff, EdgeOperands) {
  const std::uint64_t seed = cb::test::seed_or(77);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  const BigNum m = BigNum::random_odd(rng, 128);
  const BigNum zero{};
  const BigNum one{1};
  // 0^e, b^0, 1^e, b^1, and base == multiple of m.
  EXPECT_EQ(zero.powmod(BigNum{5}, m), zero.powmod_reference(BigNum{5}, m));
  EXPECT_EQ(BigNum{5}.powmod(zero, m), one);
  EXPECT_EQ(one.powmod(BigNum{123456}, m), one);
  EXPECT_EQ(BigNum{7}.powmod(one, m), BigNum{7});
  EXPECT_EQ(m.powmod(BigNum{3}, m), zero);
  EXPECT_EQ((m + m).powmod(BigNum{2}, m), zero);
  // Montgomery context rejects even/trivial moduli.
  EXPECT_THROW(Montgomery(BigNum{10}), std::invalid_argument);
  EXPECT_THROW(Montgomery(BigNum{1}), std::invalid_argument);
  // Even modulus still works through the reference fallback.
  EXPECT_EQ(BigNum{7}.powmod(BigNum{13}, BigNum{100}),
            BigNum{7}.powmod_reference(BigNum{13}, BigNum{100}));
}

TEST(MontgomeryDiff, AllOnesModuliAtEveryWidth) {
  // Moduli R - k for R = 2^(64s) and small odd k have all-ones limbs, so
  // every carry in the kernel is at its largest. The widths sit on both
  // sides of each kernel width's padding boundary (4, 8, 16, 32 limbs).
  for (std::size_t s : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 32u}) {
    const BigNum r = BigNum{1} << (64 * s);
    for (std::uint64_t k : {1u, 3u, 5u, 7u}) {
      const BigNum n = r - BigNum{k};
      for (std::uint64_t j : {1u, 2u, 3u}) {
        const BigNum base = n - BigNum{j};
        for (const BigNum& e : {r - BigNum{1}, BigNum{65537}}) {
          EXPECT_EQ(base.powmod(e, n), base.powmod_reference(e, n))
              << "s=" << s << " k=" << k << " base=n-" << j << " e_bits=" << e.bit_length();
        }
      }
    }
  }
  // Wider than any kernel: answered by the reference, and a key with such a
  // modulus still builds.
  const BigNum wide = (BigNum{1} << 2048) + BigNum{1};
  const BigNum base = wide - BigNum{2};
  EXPECT_EQ(base.powmod(BigNum{65537}, wide), base.powmod_reference(BigNum{65537}, wide));
  EXPECT_EQ(RsaPublicKey(wide, BigNum{65537}).size_bytes(), 257u);
}

TEST(MontgomeryDiff, CrtSignMatchesPlainExponentiationAcrossSizes) {
  // CRT + Montgomery private op must round-trip against the public op for
  // edge modulus sizes (including odd bit counts), and signatures must
  // verify with the cached-context verify path.
  const std::uint64_t seed = cb::test::seed_or(0xC47);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  for (std::size_t bits : {128u, 192u, 512u}) {
    RsaKeyPair keys = RsaKeyPair::generate(rng, bits);
    const Bytes msg = rng.random_bytes(64);
    if (bits >= 512) {  // signature blocks need >= digest + 11 bytes
      const Bytes sig = keys.sign(msg);
      EXPECT_TRUE(keys.public_key().verify(msg, sig)) << "bits=" << bits;
      Bytes tampered = sig;
      tampered[tampered.size() / 2] ^= 1;
      EXPECT_FALSE(keys.public_key().verify(msg, tampered));
    }
    // Encrypt/decrypt round-trip exercises private_op on small plaintexts.
    const Bytes pt = rng.random_bytes(bits / 8 - 11);
    auto ct = keys.public_key().encrypt(pt, rng);
    ASSERT_TRUE(ct.ok());
    auto back = keys.decrypt(ct.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), pt);
  }
}

// --- Golden output bytes -------------------------------------------------------
// Keys, signatures and ciphertexts are pure functions of their seeds, and
// every simulation fingerprint rests on them, so any change to prime search,
// exponentiation, padding or key derivation must leave these FNV-1a digests
// alone. The seeds are literal inputs: CB_TEST_SEED does not move them.

TEST(CryptoGolden, KeygenAndSign) {
  struct Pin {
    std::size_t bits;
    std::uint64_t key;
    std::uint64_t sig;
  };
  const Pin pins[] = {
      {384, 0x4183cd81d0860f2eULL, 0x05887c3e07bd4a43ULL},
      {512, 0xdd0ce89fcb13cdb1ULL, 0x7a64a43791eee0e8ULL},
      {768, 0x5d2abd7a22297639ULL, 0x21be0b96cbd5030dULL},
      {1024, 0x21c628fe0dd82520ULL, 0xdd99e90fcb80eb06ULL},
  };
  for (const Pin& pin : pins) {
    Rng rng(1000 + pin.bits);
    const RsaKeyPair keys = RsaKeyPair::generate(rng, pin.bits);
    EXPECT_EQ(fnv1a(keys.public_key().serialize()), pin.key) << "bits=" << pin.bits;
    EXPECT_EQ(fnv1a(keys.sign(to_bytes("cellbricks"))), pin.sig) << "bits=" << pin.bits;
  }
}

const RsaKeyPair& golden_keys() {
  static const RsaKeyPair keys = [] {
    Rng rng(2021);
    return RsaKeyPair::generate(rng, 512);
  }();
  return keys;
}

TEST(CryptoGolden, Encrypt) {
  Rng rng(31);
  const auto ct =
      golden_keys().public_key().encrypt(to_bytes("thirty-two byte session secret!!"), rng);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(fnv1a(ct.value()), 0x4913f52f7e6bb859ULL);
}

TEST(CryptoGolden, Seal) {
  Rng rng(32);
  EXPECT_EQ(fnv1a(seal(golden_keys().public_key(), to_bytes("signed traffic report"), rng)),
            0x41e453e31d109578ULL);
}

TEST(ChaChaExtra, CounterContinuity) {
  // Encrypting [A|B] in one call equals encrypting A at counter c and B at
  // counter c + blocks(A) when A is block-aligned.
  Rng rng(11);
  const Bytes key = rng.random_bytes(32);
  const Bytes nonce = rng.random_bytes(12);
  const Bytes data = rng.random_bytes(256);
  const Bytes whole = chacha20_xor(key, nonce, 5, data);
  const Bytes a = chacha20_xor(key, nonce, 5, BytesView(data.data(), 128));
  const Bytes b = chacha20_xor(key, nonce, 7, BytesView(data.data() + 128, 128));
  Bytes glued = a;
  glued.insert(glued.end(), b.begin(), b.end());
  EXPECT_EQ(whole, glued);
}

}  // namespace
}  // namespace cb::crypto
