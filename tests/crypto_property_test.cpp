// Property-style sweeps over the arithmetic and commitment layers:
// algebraic laws on random inputs, equivalence of the Montgomery fast
// path with the reference implementation, and cross-CRS rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/hash.h"
#include "crypto/modexp.h"
#include "crypto/primes.h"
#include "crypto/rsa.h"
#include "mercurial/qtmc.h"
#include "mercurial/tmc.h"

namespace desword {
namespace {

Bignum random_bn(int bits) { return Bignum::rand_bits(bits); }

TEST(BignumPropertyTest, RingLaws) {
  for (int i = 0; i < 25; ++i) {
    const Bignum a = random_bn(200);
    const Bignum b = random_bn(180);
    const Bignum c = random_bn(90);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ((a - b) + b, a);
  }
}

TEST(BignumPropertyTest, DivisionInvariant) {
  for (int i = 0; i < 25; ++i) {
    const Bignum a = random_bn(300);
    const Bignum d = random_bn(120);
    Bignum r;
    const Bignum q = a.divided_by(d, &r);
    EXPECT_EQ(q * d + r, a);
    EXPECT_LT(r, d);
  }
}

TEST(BignumPropertyTest, ModularExponentLaws) {
  const Bignum m = Bignum::generate_prime(128);
  for (int i = 0; i < 10; ++i) {
    const Bignum g = random_bn(100).mod(m);
    const Bignum x = random_bn(64);
    const Bignum y = random_bn(64);
    // g^(x+y) == g^x * g^y (mod m)
    EXPECT_EQ(Bignum::mod_exp(g, x + y, m),
              Bignum::mod_mul(Bignum::mod_exp(g, x, m),
                              Bignum::mod_exp(g, y, m), m));
    // (g^x)^y == g^(x*y)
    EXPECT_EQ(Bignum::mod_exp(Bignum::mod_exp(g, x, m), y, m),
              Bignum::mod_exp(g, x * y, m));
  }
}

TEST(BignumPropertyTest, GcdLaws) {
  for (int i = 0; i < 25; ++i) {
    const Bignum a = random_bn(150);
    const Bignum b = random_bn(150);
    const Bignum g = Bignum::gcd(a, b);
    EXPECT_TRUE(a.divisible_by(g));
    EXPECT_TRUE(b.divisible_by(g));
    EXPECT_EQ(Bignum::gcd(a, b), Bignum::gcd(b, a));
  }
}

TEST(ModExpContextTest, MatchesReferenceImplementation) {
  const RsaModulus mod = generate_rsa_modulus(512);
  const ModExpContext ctx(mod.n);
  for (int i = 0; i < 20; ++i) {
    const Bignum base = random_bn(500);
    const Bignum e = random_bn(1 + static_cast<int>(random_u64() % 300));
    EXPECT_EQ(ctx.exp(base, e), Bignum::mod_exp(base.mod(mod.n), e, mod.n));
  }
}

TEST(ModExpContextTest, SignedExponentInverts) {
  const RsaModulus mod = generate_rsa_modulus(512);
  const ModExpContext ctx(mod.n);
  const Bignum g = random_quadratic_residue(mod.n);
  const Bignum e = random_bn(100);
  const Bignum pos = ctx.exp_signed(g, e);
  const Bignum neg = ctx.exp_signed(g, e.negated());
  EXPECT_TRUE(Bignum::mod_mul(pos, neg, mod.n).is_one());
}

TEST(ModExpContextTest, RejectsEvenModulus) {
  EXPECT_THROW(ModExpContext(Bignum(100)), CryptoError);
  EXPECT_THROW(ModExpContext(Bignum(1)), CryptoError);
}

// multi_exp against the product of independent mod-exps, over every batch
// size, exponent width and bit pattern a verification fold can hand it:
// zero exponents (skipped), sub-window and window-boundary widths mixed
// into wide batches, long zero runs (windows that close early) and all-ones
// exponents (windows that never shrink). The sweep must drive both kernels.
Bignum pow2(int k) {
  Bignum x;
  BN_set_bit(x.raw(), k);
  return x;
}

/// Exponent `i` of a batch whose widest exponent is exactly `width` bits
/// and whose kernel window is `window`.
Bignum sweep_exponent(std::size_t i, int width, int window) {
  const auto clip = [width](int bits) { return std::clamp(bits, 1, width); };
  switch (i % 8) {
    case 0:
      return random_bn(width);
    case 1:
      return Bignum();  // zero: contributes 1
    case 2:
      return pow2(width) - Bignum(1);  // all ones
    case 3: {  // long zero runs between three set bits
      Bignum e = pow2(width - 1) + Bignum(1);
      if (width > 2) e += pow2(width / 3);
      return e;
    }
    case 4:
      return random_bn(clip(window - 1));
    case 5:
      return random_bn(clip(window));
    case 6:
      return random_bn(clip(window + 1));
    default: {
      const auto span = static_cast<std::uint64_t>(width);
      return random_bn(1 + static_cast<int>(random_u64() % span));
    }
  }
}

struct KernelsSeen {
  bool straus = false;
  bool pippenger = false;
};

/// Checks every (size, width) batch with size·width <= max_work.
void multi_exp_sweep(int modulus_bits, std::size_t max_work,
                     KernelsSeen& seen) {
  Bignum n = random_bn(modulus_bits);
  if (!n.is_odd()) n += Bignum(1);
  const ModExpContext ctx(n);
  for (const std::size_t size : {1, 2, 3, 17, 64, 300, 1000}) {
    for (const int width : {1, 2, 3, 4, 5, 6, 7, 8, 9, 128, 264, 645, 2176}) {
      if (size * static_cast<std::size_t>(width) > max_work) continue;
      // sweep_exponent's case 1 is zero, so (size + 6) / 8 terms drop out;
      // the kernel plans for the rest, and the narrower terms straddle its
      // window.
      const std::size_t live = size - (size + 6) / 8;
      const ModExpContext::MultiExpPlan plan =
          ModExpContext::plan_multi_exp(live, width);
      if (live >= 2) (plan.pippenger ? seen.pippenger : seen.straus) = true;
      std::vector<ModExpContext::ExpTerm> terms;
      Bignum expected(1);
      for (std::size_t i = 0; i < size; ++i) {
        ModExpContext::ExpTerm t{random_bn(modulus_bits),
                                 sweep_exponent(i, width, plan.window)};
        expected = Bignum::mod_mul(
            expected, Bignum::mod_exp(t.base.mod(n), t.exponent, n), n);
        terms.push_back(std::move(t));
      }
      EXPECT_EQ(ctx.multi_exp(terms), expected)
          << modulus_bits << "-bit modulus, n=" << size << ", width " << width;
    }
  }
}

TEST(ModExpContextTest, MultiExpMatchesProductOfModExps512) {
  KernelsSeen seen;
  multi_exp_sweep(512, std::size_t{1000} * 2176, seen);
  EXPECT_TRUE(seen.straus);
  EXPECT_TRUE(seen.pippenger);
}

TEST(ModExpContextTest, MultiExpMatchesProductOfModExps2048) {
  KernelsSeen seen;
  multi_exp_sweep(2048, std::size_t{64} * 2176, seen);
  EXPECT_TRUE(seen.straus);
  EXPECT_TRUE(seen.pippenger);
}

TEST(ModExpContextTest, MultiExpDegenerateBatches) {
  const RsaModulus mod = generate_rsa_modulus(512);
  const ModExpContext ctx(mod.n);
  EXPECT_TRUE(ctx.multi_exp({}).is_one());
  const std::vector<ModExpContext::ExpTerm> zeros = {
      {random_bn(500), Bignum()}, {random_bn(500), Bignum()}};
  EXPECT_TRUE(ctx.multi_exp(zeros).is_one());
  const std::vector<ModExpContext::ExpTerm> negative = {
      {random_bn(500), Bignum(3)}, {random_bn(500), Bignum(5).negated()}};
  EXPECT_THROW(ctx.multi_exp(negative), CryptoError);
}

// Proofs generated under one CRS must never verify under another, even
// with identical configurations — commitments bind to the key material.
TEST(CrossCrsTest, TmcRejectsForeignOpenings) {
  const GroupPtr group = make_p256_group();
  const auto keys_a = mercurial::TmcScheme::keygen(group);
  const auto keys_b = mercurial::TmcScheme::keygen(group);
  const mercurial::TmcScheme a(group, keys_a.pk);
  const mercurial::TmcScheme b(group, keys_b.pk);

  const Bytes msg = hash_to_128("m", {bytes_of("x")});
  const auto [com, dec] = a.hard_commit(msg);
  EXPECT_TRUE(a.verify_open(com, a.hard_open(dec)));
  EXPECT_FALSE(b.verify_open(com, a.hard_open(dec)));
}

TEST(CrossCrsTest, QtmcRejectsForeignOpenings) {
  const auto keys_a = mercurial::QtmcScheme::keygen(4, 512);
  const auto keys_b = mercurial::QtmcScheme::keygen(4, 512);
  const mercurial::QtmcScheme a(keys_a.pk);
  const mercurial::QtmcScheme b(keys_b.pk);

  std::vector<Bytes> msgs;
  for (int i = 0; i < 4; ++i) msgs.push_back(hash_to_128("m", {be64(i)}));
  const auto [com, dec] = a.hard_commit(msgs);
  const auto op = a.hard_open(dec, 1);
  EXPECT_TRUE(a.verify_open(com, op));
  EXPECT_FALSE(b.verify_open(com, op));
}

TEST(CrossCrsTest, QtmcDifferentSeedsGiveDifferentPrimes) {
  // Same modulus reused with a different prime seed is still a different
  // scheme: openings cannot transfer.
  const auto keys = mercurial::QtmcScheme::keygen(4, 512);
  mercurial::QtmcPublicKey other_pk = keys.pk;
  other_pk.prime_seed = bytes_of("different-seed");
  const mercurial::QtmcScheme a(keys.pk);
  const mercurial::QtmcScheme b(other_pk);

  std::vector<Bytes> msgs;
  for (int i = 0; i < 4; ++i) msgs.push_back(hash_to_128("m", {be64(i)}));
  const auto [com, dec] = a.hard_commit(msgs);
  EXPECT_FALSE(b.verify_open(com, a.hard_open(dec, 0)));
}

TEST(HashToPrimePropertyTest, WidthSweep) {
  for (const int bits : {64, 96, 136, 160}) {
    const Bignum p = hash_to_prime(bytes_of("sweep"), 3, bits);
    EXPECT_EQ(p.bits(), bits);
    EXPECT_TRUE(p.is_prime());
    EXPECT_TRUE(p.is_odd());
  }
}

}  // namespace
}  // namespace desword
