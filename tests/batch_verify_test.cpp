// Differential tests for the randomized batch-verification engine
// (mercurial/batch_verify.h): the batched strategy must agree with the
// scalar verifiers verdict-for-verdict — on valid proofs, on tampered
// proofs whose structure still parses, and on adversarial bit-flips — and
// the bisection must pinpoint exactly the corrupted unit inside a large
// batch. Also covers the fixed-base table registry shared across scheme
// instances and the protocol-level reputation outcome under both
// verification strategies.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "crypto/hash.h"
#include "crypto/primes.h"
#include "desword/scenario.h"
#include "mercurial/batch_verify.h"
#include "mercurial/message.h"
#include "obs/metrics.h"
#include "zkedb/prover.h"
#include "zkedb/verifier.h"

namespace desword {
namespace {

using mercurial::BatchVerifier;
using mercurial::QtmcKeyPair;
using mercurial::QtmcOpening;
using mercurial::QtmcScheme;
using mercurial::QtmcTease;
using mercurial::TmcKeyPair;
using mercurial::TmcOpening;
using mercurial::TmcScheme;
using mercurial::TmcTease;

namespace zk = zkedb;
using zk::EdbKey;

constexpr int kTestRsaBits = 512;

Bytes msg16(int i) {
  return hash_to_128("batch-test-msg", {be64(static_cast<std::uint64_t>(i))});
}

std::vector<Bytes> make_messages(std::uint32_t count) {
  std::vector<Bytes> msgs;
  for (std::uint32_t i = 0; i < count; ++i) msgs.push_back(msg16(1000 + i));
  return msgs;
}

// ---------------------------------------------------------------------------
// qTMC: batch verdicts equal scalar verdicts, unit by unit.

class QtmcBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keys_ = QtmcScheme::keygen(/*q=*/4, kTestRsaBits);
    scheme_ = std::make_unique<QtmcScheme>(keys_.pk);
  }

  QtmcKeyPair keys_{mercurial::QtmcPublicKey{}, Bignum()};
  std::unique_ptr<QtmcScheme> scheme_;
};

TEST_F(QtmcBatchTest, MixedValidAndTamperedUnitsMatchScalar) {
  const auto msgs = make_messages(4);
  const auto [com, dec] = scheme_->hard_commit(msgs);

  // Unit 0: valid opening. Unit 1: wrong message (parses, equation fails).
  // Unit 2: valid tease. Unit 3: tease with wrong message. Unit 4: opening
  // replayed at the wrong position (equation fails, not structure).
  QtmcOpening good_op = scheme_->hard_open(dec, 0);
  QtmcOpening bad_op = scheme_->hard_open(dec, 1);
  bad_op.message = msg16(999);
  QtmcTease good_tease = scheme_->tease_hard(dec, 2);
  QtmcTease bad_tease = scheme_->tease_hard(dec, 3);
  bad_tease.message = msg16(998);
  QtmcOpening moved_op = scheme_->hard_open(dec, 0);
  moved_op.pos = 1;

  BatchVerifier bv(*scheme_);
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, good_op));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, bad_op));  // structure ok, equation bad
  bv.begin_unit();
  EXPECT_TRUE(bv.add_tease(com, good_tease));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_tease(com, bad_tease));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, moved_op));

  const BatchVerifier::Result res = bv.verify();
  const std::vector<bool> scalar = {
      scheme_->verify_open(com, good_op), scheme_->verify_open(com, bad_op),
      scheme_->verify_tease(com, good_tease),
      scheme_->verify_tease(com, bad_tease),
      scheme_->verify_open(com, moved_op)};
  ASSERT_EQ(res.unit_ok.size(), scalar.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(res.unit_ok[i], scalar[i]) << "unit " << i;
  }
  EXPECT_FALSE(res.all_ok);
  EXPECT_TRUE(res.unit_ok[0]);
  EXPECT_FALSE(res.unit_ok[1]);
}

TEST_F(QtmcBatchTest, StructuralFailureMarksUnitWithoutPollutingFold) {
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));
  QtmcOpening oob = scheme_->hard_open(dec, 0);
  oob.pos = scheme_->arity();  // out of range: structural rejection

  BatchVerifier bv(*scheme_);
  bv.begin_unit();
  EXPECT_FALSE(bv.add_open(com, oob));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_open(com, scheme_->hard_open(dec, 1)));

  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  EXPECT_FALSE(res.unit_ok[0]);
  EXPECT_TRUE(res.unit_ok[1]);  // the valid unit folds clean on its own
}

TEST_F(QtmcBatchTest, BisectionPinpointsSingleCorruptedUnitOf64) {
  constexpr std::size_t kUnits = 64;
  constexpr std::size_t kBad = 37;
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));

  BatchVerifier bv(*scheme_);
  for (std::size_t i = 0; i < kUnits; ++i) {
    bv.begin_unit();
    QtmcOpening op = scheme_->hard_open(
        dec, static_cast<std::uint32_t>(i % scheme_->arity()));
    if (i == kBad) op.message = msg16(666);  // equation-level corruption
    ASSERT_TRUE(bv.add_open(com, op)) << "unit " << i;
  }
  ASSERT_EQ(bv.units(), kUnits);

  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.unit_ok.size(), kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(res.unit_ok[i], i != kBad) << "unit " << i;
  }
}

// Equations are compared in Z_N*/{±1} and proof elements must be the
// canonical representative min(x, N−x): replacing Λ by N−Λ (same quotient
// element, non-canonical encoding, coprimality-invisible since
// gcd(N−Λ, N) = gcd(Λ, N)) must be rejected by BOTH paths. In plain Z_N*
// this forgery's fold defect (−1)^{e_pos} cancels for every even batching
// multiplier, defeating small-exponent batching with probability 1/2.
TEST_F(QtmcBatchTest, SignFlippedElementsRejectedByBothPaths) {
  const Bignum& n = scheme_->public_key().n;
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));

  QtmcOpening flipped_op = scheme_->hard_open(dec, 0);
  flipped_op.lambda = n - flipped_op.lambda;
  EXPECT_FALSE(scheme_->verify_open(com, flipped_op));

  QtmcTease flipped_tease = scheme_->tease_hard(dec, 1);
  flipped_tease.lambda = n - flipped_tease.lambda;
  EXPECT_FALSE(scheme_->verify_tease(com, flipped_tease));

  mercurial::QtmcCommitment flipped_com = com;
  flipped_com.c0 = n - flipped_com.c0;
  EXPECT_FALSE(scheme_->verify_open(flipped_com, scheme_->hard_open(dec, 2)));

  BatchVerifier bv(*scheme_);
  bv.begin_unit();
  EXPECT_FALSE(bv.add_open(com, flipped_op));
  bv.begin_unit();
  EXPECT_FALSE(bv.add_tease(com, flipped_tease));
  bv.begin_unit();
  EXPECT_FALSE(bv.add_open(flipped_com, scheme_->hard_open(dec, 2)));
  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  for (std::size_t i = 0; i < res.unit_ok.size(); ++i) {
    EXPECT_FALSE(res.unit_ok[i]) << "unit " << i;
  }
}

// The deterministic Fiat–Shamir multipliers make acceptance offline-
// computable, so a 1/2-probability hole would be grindable to certainty;
// the rejection must therefore be unconditional — a sign-flipped unit in a
// large batch is rejected structurally, never reaching the fold, while the
// honest remainder still folds clean.
TEST_F(QtmcBatchTest, SignFlipInLargeBatchRejectedRegardlessOfMultipliers) {
  constexpr std::size_t kUnits = 32;
  constexpr std::size_t kBad = 11;
  const Bignum& n = scheme_->public_key().n;
  const auto [com, dec] = scheme_->hard_commit(make_messages(4));

  BatchVerifier bv(*scheme_);
  for (std::size_t i = 0; i < kUnits; ++i) {
    bv.begin_unit();
    QtmcOpening op = scheme_->hard_open(
        dec, static_cast<std::uint32_t>(i % scheme_->arity()));
    if (i == kBad) {
      op.lambda = n - op.lambda;
      EXPECT_FALSE(bv.add_open(com, op));
    } else {
      ASSERT_TRUE(bv.add_open(com, op)) << "unit " << i;
    }
  }
  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.unit_ok.size(), kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(res.unit_ok[i], i != kBad) << "unit " << i;
  }
}

TEST_F(QtmcBatchTest, EmptyBatchAcceptsVacuously) {
  BatchVerifier bv(*scheme_);
  const auto res = bv.verify();
  EXPECT_TRUE(res.all_ok);
  EXPECT_TRUE(res.unit_ok.empty());
}

TEST_F(QtmcBatchTest, FixedBaseTablesSharedAcrossInstancesOfSameKey) {
  QtmcScheme other(keys_.pk);  // second instance, same CRS
  scheme_->precompute_fixed_bases(/*position_bases=*/false);
  other.precompute_fixed_bases(/*position_bases=*/false);
  ASSERT_NE(scheme_->fixed_base_tables_id(), nullptr);
  // One registry entry per public key: both instances adopt the same set.
  EXPECT_EQ(scheme_->fixed_base_tables_id(), other.fixed_base_tables_id());

  const auto fresh = QtmcScheme::keygen(/*q=*/2, kTestRsaBits);
  QtmcScheme unrelated(fresh.pk);
  unrelated.precompute_fixed_bases(/*position_bases=*/false);
  EXPECT_NE(unrelated.fixed_base_tables_id(), scheme_->fixed_base_tables_id());
}

// ---------------------------------------------------------------------------
// The emitted hard-opening equations (h^{r1} == C1 and the main equation
// with h^{r1·τ} in place of C1^τ) accept exactly the openings of the
// paper's check. PaperOpenReference writes that check out directly, with
// no equation layer, fixed-base table or fold.

class PaperOpenReference {
 public:
  explicit PaperOpenReference(const mercurial::QtmcPublicKey& pk)
      : pk_(pk), half_((pk.n - Bignum(1)).divided_by(Bignum(2))) {
    primes_ = derive_primes(pk.prime_seed, pk.q, mercurial::kPrimeBits);
    Bignum prod(1);
    for (const Bignum& e : primes_) prod *= e;
    for (const Bignum& e : primes_) {
      s_.push_back(Bignum::mod_exp(pk.g, prod.divided_by(e), pk.n));
    }
  }

  const Bignum& prime(std::uint32_t pos) const { return primes_[pos]; }

  /// C1 = h^{r1} ∧ Λ^{e_i}·S_i^{m_i}·C1^τ = C0 in Z_N*/{±1}, every element
  /// given by its canonical representative.
  bool operator()(const mercurial::QtmcCommitment& com,
                  const QtmcOpening& op) const {
    if (op.pos >= pk_.q || op.message.size() != mercurial::kMessageBytes) {
      return false;
    }
    if (op.r1.is_negative() || op.tau.is_negative()) return false;
    for (const Bignum* x : {&com.c0, &com.c1, &op.lambda}) {
      if (!element(*x)) return false;
    }
    const Bignum& n = pk_.n;
    if (quotient(Bignum::mod_exp(pk_.h, op.r1, n)) != com.c1) return false;
    Bignum lhs = Bignum::mod_exp(op.lambda, primes_[op.pos], n);
    lhs = Bignum::mod_mul(
        lhs,
        Bignum::mod_exp(s_[op.pos], mercurial::message_to_scalar(op.message),
                        n),
        n);
    lhs = Bignum::mod_mul(lhs, Bignum::mod_exp(com.c1, op.tau, n), n);
    return quotient(lhs) == com.c0;
  }

 private:
  /// A canonical representative of a unit of Z_N*/{±1}.
  bool element(const Bignum& x) const {
    return !x.is_zero() && !x.is_negative() && x <= half_ &&
           Bignum::gcd(x, pk_.n).is_one();
  }
  Bignum quotient(const Bignum& x) const { return x > half_ ? pk_.n - x : x; }

  mercurial::QtmcPublicKey pk_;
  Bignum half_;
  std::vector<Bignum> primes_;
  std::vector<Bignum> s_;
};

TEST_F(QtmcBatchTest, EmittedEquationsMatchPaperCheck) {
  const PaperOpenReference paper(keys_.pk);
  const Bignum& n = keys_.pk.n;
  struct Case {
    std::string name;
    mercurial::QtmcCommitment com;
    QtmcOpening op;
    bool valid;
  };
  std::vector<Case> cases;

  // Three committed messages; position 3 holds the null message, whose
  // main equation carries no S term.
  const auto [com, dec] = scheme_->hard_commit(make_messages(3));
  for (std::uint32_t pos = 0; pos < scheme_->arity(); ++pos) {
    cases.push_back({"honest pos " + std::to_string(pos), com,
                     scheme_->hard_open(dec, pos), true});
  }
  const QtmcOpening base = scheme_->hard_open(dec, 1);
  const auto tampered = [&](const std::string& name, auto edit) {
    Case c{name, com, base, false};
    edit(c.com, c.op);
    cases.push_back(std::move(c));
  };
  using Com = mercurial::QtmcCommitment;
  tampered("r1 + 1", [](Com&, QtmcOpening& op) { op.r1 += Bignum(1); });
  tampered("tau + 1", [](Com&, QtmcOpening& op) { op.tau += Bignum(1); });
  tampered("lambda * g", [&](Com&, QtmcOpening& op) {
    op.lambda = scheme_->canonical(Bignum::mod_mul(op.lambda, keys_.pk.g, n));
  });
  tampered("lambda sign-flipped", [&](Com&, QtmcOpening& op) {
    op.lambda = n - op.lambda;
  });
  tampered("c0 * g", [&](Com& c, QtmcOpening&) {
    c.c0 = scheme_->canonical(Bignum::mod_mul(c.c0, keys_.pk.g, n));
  });
  tampered("c1 * h", [&](Com& c, QtmcOpening&) {
    c.c1 = scheme_->canonical(Bignum::mod_mul(c.c1, keys_.pk.h, n));
  });
  tampered("c1 = h^{r1+1} with r1 + 1", [&](Com& c, QtmcOpening& op) {
    op.r1 += Bignum(1);
    c.c1 = scheme_->canonical(Bignum::mod_exp(keys_.pk.h, op.r1, n));
  });
  tampered("message", [](Com&, QtmcOpening& op) { op.message = msg16(999); });
  tampered("pos", [](Com&, QtmcOpening& op) { op.pos = 2; });
  tampered("r1 = 0", [](Com&, QtmcOpening& op) { op.r1 = Bignum(); });

  // A second valid opening of the same message: τ + e_i with Λ·C1^{−1}.
  {
    Case c{"tau + e_i, lambda / c1", com, base, true};
    c.op.tau += paper.prime(c.op.pos);
    c.op.lambda = scheme_->canonical(
        Bignum::mod_mul(c.op.lambda, Bignum::mod_inverse(com.c1, n), n));
    cases.push_back(std::move(c));
  }
  // A soft commitment's tease relabelled as a hard opening: no r1 the
  // prover can name satisfies h^{r1} = C1.
  {
    const auto [soft_com, soft_dec] = scheme_->soft_commit();
    const QtmcTease tease = scheme_->tease_soft(soft_dec, 2, msg16(7));
    for (const Bignum& r1 : {soft_dec.r1, Bignum::rand_bits(256)}) {
      cases.push_back({"soft tease as hard opening", soft_com,
                       QtmcOpening{tease.pos, tease.message, tease.tau,
                                   tease.lambda, r1},
                       false});
    }
  }
  // The trapdoor simulator's hard-lookalike opening verifies everywhere.
  {
    const auto [fake_com, fake_dec] = scheme_->fake_commit(keys_.trapdoor);
    cases.push_back({"trapdoor fake opening", fake_com,
                     scheme_->fake_open(fake_dec, keys_.trapdoor, 0, msg16(5)),
                     true});
  }

  BatchVerifier all(*scheme_);
  for (const Case& c : cases) {
    const bool reference = paper(c.com, c.op);
    EXPECT_EQ(reference, c.valid) << c.name;
    EXPECT_EQ(scheme_->verify_open(c.com, c.op), reference) << c.name;
    BatchVerifier one(*scheme_);
    one.begin_unit();
    one.add_open(c.com, c.op);
    EXPECT_EQ(one.verify().all_ok, reference) << c.name;
    all.begin_unit();
    all.add_open(c.com, c.op);
  }
  // One mixed batch: the fold fails and bisection settles every unit.
  const BatchVerifier::Result res = all.verify();
  ASSERT_EQ(res.unit_ok.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(res.unit_ok[i], paper(cases[i].com, cases[i].op))
        << cases[i].name;
  }
}

// ---------------------------------------------------------------------------
// TMC leaf equations fold into the same batch.

TEST(TmcBatchTest, LeafUnitsMatchScalar) {
  const GroupPtr group = make_p256_group();
  const TmcKeyPair keys = TmcScheme::keygen(group);
  const TmcScheme tmc(group, keys.pk);
  // BatchVerifier needs a qTMC scheme even for leaf-only batches.
  const QtmcKeyPair qkeys = QtmcScheme::keygen(/*q=*/2, kTestRsaBits);
  const QtmcScheme qtmc(qkeys.pk);

  const auto [com, dec] = tmc.hard_commit(msg16(1));
  TmcOpening good_op = tmc.hard_open(dec);
  TmcOpening bad_op = tmc.hard_open(dec);
  bad_op.message = msg16(2);
  TmcTease good_tease = tmc.tease_hard(dec);
  TmcTease bad_tease = tmc.tease_hard(dec);
  bad_tease.message = msg16(3);

  BatchVerifier bv(qtmc, &tmc);
  bv.begin_unit();
  EXPECT_TRUE(bv.add_leaf_open(com, good_op));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_leaf_open(com, bad_op));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_leaf_tease(com, good_tease));
  bv.begin_unit();
  EXPECT_TRUE(bv.add_leaf_tease(com, bad_tease));

  const auto res = bv.verify();
  EXPECT_FALSE(res.all_ok);
  EXPECT_EQ(res.unit_ok[0], tmc.verify_open(com, good_op));
  EXPECT_EQ(res.unit_ok[1], tmc.verify_open(com, bad_op));
  EXPECT_EQ(res.unit_ok[2], tmc.verify_tease(com, good_tease));
  EXPECT_EQ(res.unit_ok[3], tmc.verify_tease(com, bad_tease));
  EXPECT_TRUE(res.unit_ok[0]);
  EXPECT_FALSE(res.unit_ok[1]);
  EXPECT_TRUE(res.unit_ok[2]);
  EXPECT_FALSE(res.unit_ok[3]);
}

// ---------------------------------------------------------------------------
// ZK-EDB proof chains: batched and scalar strategies decide identically.

class EdbDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    zk::EdbConfig cfg;
    cfg.q = 4;
    cfg.height = 6;
    cfg.rsa_bits = kTestRsaBits;
    cfg.group_name = "p256";
    crs_ = zk::generate_crs(cfg);
    std::map<Bytes, Bytes> entries;
    for (int i = 0; i < 8; ++i) {
      entries[key_of(i)] = bytes_of("value-" + std::to_string(i));
    }
    prover_ = std::make_unique<zk::EdbProver>(crs_, entries);
  }

  EdbKey key_of(int i) const {
    return zk::key_for_identifier(*crs_, bytes_of("k" + std::to_string(i)));
  }

  /// Both strategies must return the same verdict; returns it.
  zk::VerifyOutcome verify_both(const EdbKey& key,
                                const zk::EdbMembershipProof& proof) {
    zk::EdbVerifyOptions scalar;
    scalar.batched = false;
    const auto s = zk::edb_verify_membership(*crs_, prover_->commitment(),
                                             key, proof, scalar);
    const auto b =
        zk::edb_verify_membership(*crs_, prover_->commitment(), key, proof);
    EXPECT_EQ(s.has_value(), b.has_value());
    if (s.has_value() && b.has_value()) {
      EXPECT_EQ(*s, *b);
    }
    return b;
  }

  bool verify_both(const EdbKey& key, const zk::EdbNonMembershipProof& proof) {
    zk::EdbVerifyOptions scalar;
    scalar.batched = false;
    const bool s = zk::edb_verify_non_membership(*crs_, prover_->commitment(),
                                                 key, proof, scalar)
                       .ok;
    const bool b = zk::edb_verify_non_membership(*crs_, prover_->commitment(),
                                                 key, proof)
                       .ok;
    EXPECT_EQ(s, b);
    return b;
  }

  zk::EdbCrsPtr crs_;
  std::unique_ptr<zk::EdbProver> prover_;
};

TEST_F(EdbDifferentialTest, MembershipValidAndTamperedAgree) {
  const EdbKey key = key_of(0);
  auto proof = prover_->prove_membership(key);
  EXPECT_TRUE(verify_both(key, proof).has_value());

  // Equation-level tamper: τ of a mid-chain opening shifts by one. All
  // structural checks still pass; only the folded/scalar equations catch it.
  auto tau_tampered = proof;
  tau_tampered.openings[2].tau += Bignum(1);
  EXPECT_FALSE(verify_both(key, tau_tampered).has_value());

  auto value_tampered = proof;
  value_tampered.value = bytes_of("forged value");
  EXPECT_FALSE(verify_both(key, value_tampered).has_value());

  // Sign flip Λ → N−Λ: the same element of Z_N*/{±1} in non-canonical
  // encoding; must be structurally rejected by both strategies.
  auto sign_tampered = proof;
  sign_tampered.openings[1].lambda =
      crs_->params().qtmc_pk.n - sign_tampered.openings[1].lambda;
  EXPECT_FALSE(verify_both(key, sign_tampered).has_value());

  auto leaf_tampered = proof;
  leaf_tampered.leaf_opening.r0 += Bignum(1);
  EXPECT_FALSE(verify_both(key, leaf_tampered).has_value());
}

TEST_F(EdbDifferentialTest, NonMembershipValidAndTamperedAgree) {
  const EdbKey key = zk::key_for_identifier(*crs_, bytes_of("absent"));
  ASSERT_FALSE(prover_->contains(key));
  auto proof = prover_->prove_non_membership(key);
  EXPECT_TRUE(verify_both(key, proof));

  auto tampered = proof;
  tampered.teases[1].tau += Bignum(1);
  EXPECT_FALSE(verify_both(key, tampered));

  auto leaf_tampered = proof;
  leaf_tampered.leaf_tease.message = msg16(7);
  EXPECT_FALSE(verify_both(key, leaf_tampered));
}

TEST_F(EdbDifferentialTest, BitFlippedSerializedProofsAgree) {
  const EdbKey key = key_of(1);
  const Bytes wire = prover_->prove_membership(key).serialize(*crs_);
  // Sample flip positions across the whole proof; every one that still
  // deserializes must draw the same verdict from both strategies (the
  // EXPECT inside verify_both), and none may crash either path.
  for (std::size_t pos = 0; pos < wire.size(); pos += 97) {
    Bytes corrupted = wire;
    corrupted[pos] ^= 0x40;
    zk::EdbMembershipProof proof;
    try {
      proof = zk::EdbMembershipProof::deserialize(*crs_, corrupted);
    } catch (const Error&) {
      continue;  // parse-level rejection: identical for both strategies
    }
    verify_both(key, proof);
  }
}

TEST_F(EdbDifferentialTest, VerifyManyPinpointsTamperedProof) {
  constexpr std::size_t kProofs = 8;
  constexpr std::size_t kBad = 5;
  std::vector<zk::EdbMembershipProof> proofs;
  std::vector<zk::EdbMembershipQuery> queries;
  proofs.reserve(kProofs);
  queries.reserve(kProofs);
  for (std::size_t i = 0; i < kProofs; ++i) {
    const EdbKey key = key_of(static_cast<int>(i));
    proofs.push_back(prover_->prove_membership(key));
    queries.push_back({key, &proofs.back()});
  }
  proofs[kBad].openings[3].tau += Bignum(1);

  for (const bool batched : {true, false}) {
    zk::EdbVerifyOptions opts;
    opts.batched = batched;
    const auto results = zk::edb_verify_membership_many(
        *crs_, prover_->commitment(), queries, opts);
    ASSERT_EQ(results.size(), kProofs);
    for (std::size_t i = 0; i < kProofs; ++i) {
      EXPECT_EQ(results[i].has_value(), i != kBad)
          << "proof " << i << " batched=" << batched;
    }
  }
}

TEST_F(EdbDifferentialTest, BatchedMembershipFoldsOneHBase) {
  // Machine-independent pin on the fold size: a batched membership verify
  // is one fold of two multi-exps. The RHS holds C1 and C0 of each of the
  // h hard openings; the LHS one Λ per opening, one S_i per distinct digit
  // and ONE merged h — at most h + q + 1 terms. Carrying C1^τ as its own
  // base instead would add h more.
  const EdbKey key = key_of(0);
  const auto proof = prover_->prove_membership(key);
  obs::Counter& calls = obs::metric("crypto.multi_exp.calls");
  obs::Counter& terms = obs::metric("crypto.multi_exp.terms");
  obs::Counter& bits = obs::metric("crypto.multi_exp.exp_bits");
  const std::uint64_t calls0 = calls.value();
  const std::uint64_t terms0 = terms.value();
  const std::uint64_t bits0 = bits.value();
  ASSERT_TRUE(
      zk::edb_verify_membership(*crs_, prover_->commitment(), key, proof)
          .has_value());
  EXPECT_EQ(calls.value() - calls0, 2u);
  EXPECT_GT(bits.value(), bits0);

  const std::uint64_t h = crs_->height();
  const std::uint64_t q = crs_->q();
  const std::vector<std::uint32_t> digits = crs_->digits_of(key);
  const std::uint64_t distinct_digits =
      std::set<std::uint32_t>(digits.begin(), digits.end()).size();
  const std::uint64_t lhs_terms = terms.value() - terms0 - 2 * h;
  EXPECT_EQ(lhs_terms, h + distinct_digits + 1);
  EXPECT_LE(lhs_terms, h + q + 1);
}

// ---------------------------------------------------------------------------
// Protocol level: a corrupted query proof costs the corrupting hop its
// reputation under BOTH verification strategies.

class BatchVerifyReputationTest : public ::testing::TestWithParam<bool> {};

TEST_P(BatchVerifyReputationTest, PenaltyLandsOnCorruptingHop) {
  using supplychain::DistributionConfig;
  using supplychain::ProductId;
  using supplychain::SupplyChainGraph;
  namespace proto = protocol;

  proto::ScenarioConfig cfg;
  cfg.edb = zk::EdbConfig{4, 8, kTestRsaBits, "p256", zk::SoftMode::kShared};
  cfg.batch_verify = GetParam();
  proto::Scenario scenario(SupplyChainGraph::paper_example(), cfg);

  const auto products = supplychain::make_products(1, 2000, 8);
  DistributionConfig dist;
  dist.initial = "v0";
  dist.products = products;
  dist.seed = 42;
  scenario.run_task("task-bv", dist);

  const ProductId* product = nullptr;
  for (const ProductId& p : products) {
    const auto* path = scenario.path_of(p);
    if (path != nullptr && path->size() >= 3) {
      product = &p;
      break;
    }
  }
  ASSERT_NE(product, nullptr) << "no product with a long enough path";
  const std::string cheater = (*scenario.path_of(*product))[1];

  proto::QueryBehavior behavior;
  behavior.corrupt_proof.insert(*product);
  scenario.participant(cheater).set_query_behavior(behavior);

  proto::QueryOutcome outcome;
  ASSERT_NO_THROW(outcome = scenario.proxy().run_query(
                      *product, proto::ProductQuality::kGood));
  EXPECT_TRUE(outcome.has_violation(
      cheater, proto::ViolationType::kClaimProcessingInvalidProof));
  EXPECT_LT(scenario.proxy().reputation(cheater), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Strategies, BatchVerifyReputationTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Batched" : "Scalar";
                         });

}  // namespace
}  // namespace desword
