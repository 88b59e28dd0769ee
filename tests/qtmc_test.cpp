#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "common/rng.h"
#include "crypto/hash.h"
#include "crypto/primes.h"
#include "mercurial/qtmc.h"

namespace desword::mercurial {
namespace {

// Small parameters keep the suite fast; production scale (RSA-2048,
// q up to 128) is exercised by the benchmarks.
constexpr int kTestRsaBits = 512;

Bytes msg16(int i) {
  return hash_to_128("qtmc-test-msg", {be64(static_cast<std::uint64_t>(i))});
}

std::vector<Bytes> make_messages(std::uint32_t count) {
  std::vector<Bytes> msgs;
  for (std::uint32_t i = 0; i < count; ++i) msgs.push_back(msg16(100 + i));
  return msgs;
}

class QtmcTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    q_ = GetParam();
    keys_ = QtmcScheme::keygen(q_, kTestRsaBits);
    scheme_ = std::make_unique<QtmcScheme>(keys_.pk);
  }

  std::uint32_t q_ = 0;
  QtmcKeyPair keys_{QtmcPublicKey{}, Bignum()};
  std::unique_ptr<QtmcScheme> scheme_;
};

TEST_P(QtmcTest, HardCommitOpenVerifyAllPositions) {
  const auto msgs = make_messages(q_);
  const auto [com, dec] = scheme_->hard_commit(msgs);
  for (std::uint32_t i = 0; i < q_; ++i) {
    const QtmcOpening op = scheme_->hard_open(dec, i);
    EXPECT_TRUE(scheme_->verify_open(com, op)) << "pos " << i;
    EXPECT_EQ(op.message, msgs[i]);
  }
}

TEST_P(QtmcTest, HardCommitTeaseVerifyAllPositions) {
  const auto msgs = make_messages(q_);
  const auto [com, dec] = scheme_->hard_commit(msgs);
  for (std::uint32_t i = 0; i < q_; ++i) {
    const QtmcTease t = scheme_->tease_hard(dec, i);
    EXPECT_TRUE(scheme_->verify_tease(com, t)) << "pos " << i;
    EXPECT_EQ(t.message, msgs[i]);
  }
}

TEST_P(QtmcTest, ShortMessageVectorPadsWithNull) {
  if (q_ < 2) GTEST_SKIP() << "needs arity >= 2";
  // Committing fewer than q messages commits the null message at the tail.
  const auto msgs = make_messages(1);
  const auto [com, dec] = scheme_->hard_commit(msgs);
  const QtmcOpening op = scheme_->hard_open(dec, q_ - 1);
  EXPECT_EQ(op.message, null_message());
  EXPECT_TRUE(scheme_->verify_open(com, op));
}

TEST_P(QtmcTest, OpenRejectsWrongMessage) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  QtmcOpening op = scheme_->hard_open(dec, 0);
  op.message = msg16(999);
  EXPECT_FALSE(scheme_->verify_open(com, op));
}

TEST_P(QtmcTest, TeaseRejectsWrongMessage) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  QtmcTease t = scheme_->tease_hard(dec, 0);
  t.message = msg16(999);
  EXPECT_FALSE(scheme_->verify_tease(com, t));
}

TEST_P(QtmcTest, OpenRejectsWrongPosition) {
  // An opening for position 0 replayed at position 1 must fail.
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  QtmcOpening op = scheme_->hard_open(dec, 0);
  if (q_ < 2) GTEST_SKIP() << "needs arity >= 2";
  op.pos = 1;
  EXPECT_FALSE(scheme_->verify_open(com, op));
}

TEST_P(QtmcTest, OpenRejectsOutOfRangePosition) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  QtmcOpening op = scheme_->hard_open(dec, 0);
  op.pos = q_;
  EXPECT_FALSE(scheme_->verify_open(com, op));
}

TEST_P(QtmcTest, OpenRejectsWrongCommitment) {
  const auto [com1, dec1] = scheme_->hard_commit(make_messages(q_));
  const auto [com2, dec2] = scheme_->hard_commit({msg16(7)});
  EXPECT_FALSE(scheme_->verify_open(com2, scheme_->hard_open(dec1, 0)));
}

TEST_P(QtmcTest, SoftCommitTeasesToAnythingAtAnyPosition) {
  const auto [com, dec] = scheme_->soft_commit();
  for (std::uint32_t i = 0; i < q_; ++i) {
    const QtmcTease t = scheme_->tease_soft(dec, i, msg16(static_cast<int>(i)));
    EXPECT_TRUE(scheme_->verify_tease(com, t)) << "pos " << i;
  }
  // Including the null message.
  const QtmcTease tn = scheme_->tease_soft(dec, 0, null_message());
  EXPECT_TRUE(scheme_->verify_tease(com, tn));
}

TEST_P(QtmcTest, SoftCommitTeasesSamePositionToDifferentMessages) {
  // The equivocation at the heart of non-ownership proofs.
  const auto [com, dec] = scheme_->soft_commit();
  const QtmcTease t1 = scheme_->tease_soft(dec, 0, msg16(1));
  const QtmcTease t2 = scheme_->tease_soft(dec, 0, msg16(2));
  EXPECT_TRUE(scheme_->verify_tease(com, t1));
  EXPECT_TRUE(scheme_->verify_tease(com, t2));
}

TEST_P(QtmcTest, SoftCommitCannotBeHardOpenedNaively) {
  const auto [com, dec] = scheme_->soft_commit();
  const QtmcTease t = scheme_->tease_soft(dec, 0, msg16(3));
  // Present the tease as an opening using the soft r1 — must fail the
  // C1 = h^{r1} check (C1 is a power of g, not of h).
  QtmcOpening cheat{0, t.message, t.tau, t.lambda, dec.r1};
  EXPECT_FALSE(scheme_->verify_open(com, cheat));
}

TEST_P(QtmcTest, HardAndSoftCommitmentsLookAlike) {
  const auto [hcom, hdec] = scheme_->hard_commit(make_messages(q_));
  const auto [scom, sdec] = scheme_->soft_commit();
  EXPECT_EQ(hcom.serialize(keys_.pk.n).size(),
            scom.serialize(keys_.pk.n).size());
}

TEST_P(QtmcTest, HardAndSoftTeasesLookAlike) {
  const auto [hcom, hdec] = scheme_->hard_commit(make_messages(q_));
  const auto [scom, sdec] = scheme_->soft_commit();
  const QtmcTease th = scheme_->tease_hard(hdec, 0);
  const QtmcTease ts = scheme_->tease_soft(sdec, 0, hdec.message(0));
  EXPECT_EQ(th.serialize(keys_.pk.n).size(), ts.serialize(keys_.pk.n).size());
}

TEST_P(QtmcTest, CommitmentsAreRandomized) {
  const auto msgs = make_messages(q_);
  const auto [com1, dec1] = scheme_->hard_commit(msgs);
  const auto [com2, dec2] = scheme_->hard_commit(msgs);
  EXPECT_NE(com1, com2);
}

TEST_P(QtmcTest, SerializationRoundTrips) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  const QtmcCommitment com2 =
      QtmcCommitment::deserialize(keys_.pk.n, com.serialize(keys_.pk.n));
  EXPECT_EQ(com, com2);

  const QtmcOpening op = scheme_->hard_open(dec, 0);
  const QtmcOpening op2 =
      QtmcOpening::deserialize(keys_.pk.n, op.serialize(keys_.pk.n));
  EXPECT_TRUE(scheme_->verify_open(com2, op2));

  const QtmcTease t = scheme_->tease_hard(dec, 0);
  const QtmcTease t2 =
      QtmcTease::deserialize(keys_.pk.n, t.serialize(keys_.pk.n));
  EXPECT_TRUE(scheme_->verify_tease(com2, t2));
}

TEST_P(QtmcTest, PublicKeyRoundTripYieldsWorkingScheme) {
  const QtmcPublicKey pk2 = QtmcPublicKey::deserialize(keys_.pk.serialize());
  QtmcScheme scheme2(pk2);
  // A commitment made under the original scheme verifies under the
  // re-derived one (primes and S_i tables are deterministic).
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  const QtmcOpening op = scheme_->hard_open(dec, 0);
  EXPECT_TRUE(scheme2.verify_open(com, op));
}

TEST_P(QtmcTest, TrapdoorEquivocation) {
  const auto [com, dec] = scheme_->fake_commit(keys_.trapdoor);
  const QtmcOpening op1 = scheme_->fake_open(dec, keys_.trapdoor, 0, msg16(1));
  const QtmcOpening op2 = scheme_->fake_open(dec, keys_.trapdoor, 0, msg16(2));
  EXPECT_TRUE(scheme_->verify_open(com, op1));
  EXPECT_TRUE(scheme_->verify_open(com, op2));
  if (q_ > 1) {
    const QtmcOpening op3 =
        scheme_->fake_open(dec, keys_.trapdoor, q_ - 1, msg16(3));
    EXPECT_TRUE(scheme_->verify_open(com, op3));
  }
}

TEST_P(QtmcTest, OpeningBitFlipFuzz) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(q_));
  const QtmcOpening op = scheme_->hard_open(dec, 0);
  const Bytes ser = op.serialize(keys_.pk.n);
  ASSERT_TRUE(scheme_->verify_open(com, op));
  for (std::size_t i = 0; i < ser.size(); ++i) {
    Bytes mutated = ser;
    mutated[i] ^= 0x01;
    try {
      const QtmcOpening bad = QtmcOpening::deserialize(keys_.pk.n, mutated);
      EXPECT_FALSE(scheme_->verify_open(com, bad)) << "byte " << i;
    } catch (const Error&) {
      // rejected at parse time: fine
    }
  }
}

TEST_P(QtmcTest, PrecomputeSoftBasesIsIdempotent) {
  scheme_->precompute_soft_bases();
  const auto [com, dec] = scheme_->soft_commit();
  const QtmcTease t = scheme_->tease_soft(dec, q_ - 1, msg16(5));
  EXPECT_TRUE(scheme_->verify_tease(com, t));
  scheme_->precompute_soft_bases();
}

// Λ_pos from the public key alone, through the direct exponent
// (z·P + Σ_{j≠pos} m_j·P_j)/e_pos: no CRS tables, no factoring.
Bignum reference_lambda(const QtmcScheme& scheme, const QtmcHardDecommit& dec,
                        std::uint32_t pos) {
  const QtmcPublicKey& pk = scheme.public_key();
  const std::vector<Bignum> e = derive_primes(pk.prime_seed, pk.q, kPrimeBits);
  Bignum p(1);
  for (const Bignum& e_j : e) p *= e_j;
  const Bignum p_pos = p.divided_by(e[pos]);
  Bignum exponent = dec.z * p_pos;
  for (std::uint32_t j = 0; j < pk.q; ++j) {
    if (j == pos) continue;
    exponent += message_to_scalar(dec.message(j)) * p_pos.divided_by(e[j]);
  }
  const Bignum x = scheme.modexp_context().exp(pk.g, exponent);
  const Bignum neg = pk.n - x;
  return neg < x ? neg : x;
}

// The factored opening must emit exactly the bytes of the direct formula,
// whatever the message pattern around the opened position.
TEST_P(QtmcTest, FactoredOpeningMatchesDirectFormula) {
  const Bytes x = msg16(1);
  const Bytes y = msg16(2);
  const Bytes z = msg16(3);
  struct Pattern {
    std::string name;
    std::function<Bytes(std::uint32_t j, std::uint32_t pos)> at;
  };
  const std::vector<Pattern> patterns = {
      {"others_equal", [&](auto j, auto pos) { return j == pos ? y : x; }},
      {"others_null",
       [&](auto j, auto pos) { return j == pos ? y : null_message(); }},
      {"one_exception",
       [&](auto j, auto pos) {
         return j == pos ? y : j == (pos + 1) % q_ ? z : x;
       }},
      {"all_distinct",
       [&](auto j, auto) { return msg16(10 + static_cast<int>(j)); }},
      {"tie",
       [&](auto j, auto pos) { return j == pos ? y : j % 2 == 0 ? x : z; }},
      {"pos_holds_majority",
       [&](auto j, auto pos) { return j == (pos + 1) % q_ && q_ > 2 ? z : x; }},
  };
  const Bignum& n = keys_.pk.n;
  for (const Pattern& pattern : patterns) {
    for (std::uint32_t pos = 0; pos < q_; ++pos) {
      std::vector<Bytes> msgs;
      for (std::uint32_t j = 0; j < q_; ++j) msgs.push_back(pattern.at(j, pos));
      const auto [com, dec] = scheme_->hard_commit(msgs);
      const Bignum lambda = reference_lambda(*scheme_, dec, pos);
      const QtmcOpening op = scheme_->hard_open(dec, pos);
      EXPECT_EQ(op.serialize(n),
                (QtmcOpening{pos, msgs[pos], dec.r0, lambda, dec.r1}
                     .serialize(n)))
          << pattern.name << " pos " << pos;
      EXPECT_TRUE(scheme_->verify_open(com, op)) << pattern.name;
      EXPECT_EQ(scheme_->tease_hard(dec, pos).serialize(n),
                (QtmcTease{pos, msgs[pos], dec.r0, lambda}.serialize(n)))
          << pattern.name << " pos " << pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, QtmcTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(QtmcKeygenTest, RejectsBadArity) {
  EXPECT_THROW(QtmcScheme::keygen(0, kTestRsaBits), Error);
  EXPECT_THROW(QtmcScheme::keygen(5000, kTestRsaBits), Error);
}

TEST(QtmcKeygenTest, TooManyMessagesRejected) {
  const QtmcKeyPair keys = QtmcScheme::keygen(2, kTestRsaBits);
  QtmcScheme scheme(keys.pk);
  EXPECT_THROW(scheme.hard_commit(make_messages(3)), Error);
}

}  // namespace
}  // namespace desword::mercurial
