// Verification-cache coverage: the epoch-versioned hop memo must be a
// pure accelerator — never a way to smuggle a bad proof past the verifier,
// never a way to resurrect a verdict from a retired POC-list epoch.
//
//   * unit: LRU eviction under a small cap, epoch invalidation, rejected
//     verdicts never stored, bit-flipped proof bytes never alias a key;
//   * protocol level: a repeated product query hits the proxy's hop memo
//     with an identical outcome (ownership and non-ownership hops), each
//     hop check is exactly one memo lookup, a tampered proof after a
//     genuine hit is still rejected and booked, and a replacement POC-list
//     submission bumps the task epoch so every hop re-verifies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/hash.h"
#include "desword/messages.h"
#include "desword/scenario.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "poc/poc_list.h"
#include "zkedb/verify_cache.h"

namespace desword {
namespace {

namespace zk = zkedb;
namespace proto = protocol;
using supplychain::DistributionConfig;
using supplychain::make_products;
using supplychain::ProductId;
using supplychain::SupplyChainGraph;
using zk::VerifyCache;
using zk::VerifyOutcome;

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

Bytes key_of(int i) {
  return TaggedHasher("test/cache-key").add_str(std::to_string(i)).digest();
}

std::uint64_t hits() { return obs::metric("zkedb.cache.hit").value(); }
std::uint64_t evictions() { return obs::metric("zkedb.cache.evict").value(); }
std::uint64_t stales() { return obs::metric("zkedb.cache.stale").value(); }
std::uint64_t misses() { return obs::metric("zkedb.cache.miss").value(); }
std::uint64_t batched() {
  return obs::metric("zkedb.verify.batched").value();
}

// ---------------------------------------------------------------------------
// VerifyCache unit coverage
// ---------------------------------------------------------------------------

TEST(VerifyCacheTest, HitReturnsStoredOutcome) {
  VerifyCache cache(/*capacity=*/8);
  const Bytes key = key_of(1);
  EXPECT_FALSE(cache.lookup(key, 0).has_value());
  cache.store(key, VerifyOutcome::accept_value(bytes_of("v")), 0);
  const std::uint64_t h0 = hits();
  const auto hit = cache.lookup(key, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->ok);
  EXPECT_EQ(**hit, bytes_of("v"));
  EXPECT_EQ(hits(), h0 + 1);
}

TEST(VerifyCacheTest, RejectionsAreNeverStored) {
  // Negative caching would let a flooder evict the legitimate working set
  // with free garbage proofs; rejections must stay uncached.
  VerifyCache cache(/*capacity=*/8);
  cache.store(key_of(1), VerifyOutcome::reject(), 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_of(1), 0).has_value());
}

TEST(VerifyCacheTest, LruEvictsOldestUnderSmallCap) {
  VerifyCache cache(/*capacity=*/4);
  const std::uint64_t e0 = evictions();
  for (int i = 0; i < 4; ++i) {
    cache.store(key_of(i), VerifyOutcome::accept(), 0);
  }
  EXPECT_EQ(cache.size(), 4u);
  // Touch key 0 so key 1 becomes the LRU victim.
  ASSERT_TRUE(cache.lookup(key_of(0), 0).has_value());
  cache.store(key_of(4), VerifyOutcome::accept(), 0);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(evictions(), e0 + 1);
  EXPECT_FALSE(cache.lookup(key_of(1), 0).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_of(0), 0).has_value());   // kept (recently used)
  EXPECT_TRUE(cache.lookup(key_of(4), 0).has_value());
}

TEST(VerifyCacheTest, EpochMismatchErasesStaleEntry) {
  VerifyCache cache(/*capacity=*/8);
  const Bytes key = key_of(7);
  cache.store(key, VerifyOutcome::accept(), /*epoch=*/1);
  const std::uint64_t s0 = stales();
  EXPECT_FALSE(cache.lookup(key, /*epoch=*/2).has_value());
  EXPECT_EQ(stales(), s0 + 1);
  // The stale entry was erased, not just skipped: even its own epoch
  // misses now.
  EXPECT_FALSE(cache.lookup(key, /*epoch=*/1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerifyCacheTest, BitFlippedProofBytesNeverAliasAKey) {
  // Cache poisoning via key collision: a proof that shares every other
  // key component but differs in ONE bit of the proof bytes must map to a
  // different slot.
  const Bytes commitment = bytes_of("commitment");
  const Bytes product = bytes_of("product");
  Bytes proof = bytes_of("proof-bytes");
  const Bytes genuine = VerifyCache::hop_key("t0", "p1", product, commitment,
                                             proof, "ownership");
  proof[0] ^= 0x01;
  EXPECT_NE(genuine, VerifyCache::hop_key("t0", "p1", product, commitment,
                                          proof, "ownership"));
  // The flavour is bound too: a non-ownership verdict can never answer an
  // ownership lookup for the same bytes.
  proof[0] ^= 0x01;
  EXPECT_NE(genuine, VerifyCache::hop_key("t0", "p1", product, commitment,
                                          proof, "non_ownership"));
}

// ---------------------------------------------------------------------------
// Protocol integration (proxy hop memo + epochs)
// ---------------------------------------------------------------------------

class VerifyCacheProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::ScenarioConfig cfg;
    cfg.edb = zk::EdbConfig{4, 6, 512, "p256", zk::SoftMode::kShared};
    scenario_ = std::make_unique<proto::Scenario>(
        SupplyChainGraph::paper_example(), cfg);
    dist_.initial = "v0";
    dist_.products = make_products(1, 0, 3);
    dist_.seed = 7;
    scenario_->run_task("t0", dist_);
  }

  proto::QueryOutcome query(const ProductId& product) {
    return scenario_->proxy().run_query(product, proto::ProductQuality::kGood);
  }

  static std::pair<std::vector<std::string>, bool> digest(
      const proto::QueryOutcome& o) {
    return {o.path, o.complete};
  }

  std::unique_ptr<proto::Scenario> scenario_;
  DistributionConfig dist_;
};

TEST_F(VerifyCacheProtocolTest, RepeatedQueryHitsTheHopMemo) {
  // A second task from the same initial participant: an unhinted bad
  // query for one of its products first scans v0's t0 entry, where v0
  // answers with a non-ownership proof.
  DistributionConfig t1 = dist_;
  t1.products = make_products(1, 100, 1);
  scenario_->run_task("t1", t1);

  struct Input {
    ProductId product;
    proto::ProductQuality quality;
    const char* checked_kind;  // a verify span the query must contain
  };
  const Input inputs[] = {
      {dist_.products[0], proto::ProductQuality::kGood, "ownership"},
      {t1.products[0], proto::ProductQuality::kBad, "non_ownership"},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.checked_kind);
    const std::uint64_t m0 = misses();
    const std::uint64_t b0 = batched();
    const auto first = scenario_->proxy().run_query(in.product, in.quality);
    // Every participant is honest: both queries trace the whole path and
    // book nothing, cold and on a memo hit alike.
    EXPECT_TRUE(first.complete);
    EXPECT_TRUE(first.violations.empty());
    const std::uint64_t checks = batched() - b0;
    ASSERT_GT(checks, 0u);
    // The hop memo is the only verdict memo: a cold query misses it once
    // per hop check and nothing below it looks anything up again.
    EXPECT_EQ(misses() - m0, checks);

    const std::uint64_t h0 = hits();
    const std::uint64_t b1 = batched();
    const auto repeat = scenario_->proxy().run_query(in.product, in.quality);
    EXPECT_EQ(hits() - h0, checks)
        << "every hop check of the repeat must be a hop-memo hit";
    EXPECT_EQ(batched(), b1) << "a repeat query must verify nothing";
    EXPECT_EQ(digest(first), digest(repeat));
    EXPECT_TRUE(repeat.violations.empty());

    const obs::QueryTrace* trace =
        scenario_->proxy().query_trace(repeat.query_id);
    ASSERT_NE(trace, nullptr);
    bool saw_kind = false;
    for (const obs::TraceSpan& span : trace->spans()) {
      saw_kind |= span.event == obs::span::kVerifyOk &&
                  span.detail == in.checked_kind;
    }
    EXPECT_TRUE(saw_kind);
  }
}

TEST_F(VerifyCacheProtocolTest, TamperedProofAfterGenuineHitIsRejected) {
  const ProductId& product = dist_.products[0];
  const auto genuine = query(product);
  ASSERT_TRUE(genuine.complete);
  ASSERT_GE(genuine.path.size(), 2u);
  // Tamper at the last hop, so every honest hop before it still replays
  // its memoized verdict.
  const std::string& liar = genuine.path.back();
  const std::uint64_t honest_hops = genuine.path.size() - 1;

  proto::QueryBehavior corrupt;
  corrupt.corrupt_proof.insert(product);
  proto::QueryBehavior wrong_trace;
  wrong_trace.wrong_trace.insert(product);
  for (const proto::QueryBehavior& behavior : {corrupt, wrong_trace}) {
    scenario_->participant(liar).set_query_behavior(behavior);
    const double score0 = scenario_->proxy().reputation(liar);
    const std::uint64_t h0 = hits();
    const std::uint64_t m0 = misses();
    const auto tampered = query(product);
    EXPECT_EQ(hits() - h0, honest_hops)
        << "honest hops hit; the tampered hop must not";
    EXPECT_EQ(misses() - m0, 1u);
    EXPECT_FALSE(tampered.complete);
    EXPECT_EQ(tampered.path.size(), honest_hops);
    const proto::Violation booked{
        liar, proto::ViolationType::kClaimProcessingInvalidProof};
    EXPECT_NE(std::find(tampered.violations.begin(),
                        tampered.violations.end(), booked),
              tampered.violations.end());
    EXPECT_LT(scenario_->proxy().reputation(liar), score0);
    scenario_->participant(liar).set_query_behavior({});
  }

  // Rejections are never stored: the genuine bytes still answer from the
  // memo afterwards.
  const std::uint64_t h0 = hits();
  const auto again = query(product);
  EXPECT_EQ(digest(again), digest(genuine));
  EXPECT_EQ(hits() - h0, genuine.path.size());
}

TEST_F(VerifyCacheProtocolTest, RepeatedQuerySkipsProofRegeneration) {
  const ProductId& product = dist_.products[0];
  const auto first = query(product);
  ASSERT_TRUE(first.complete);

  // Participants memoize per committed statement: a repeat of the same
  // query re-serves identical proof bytes without touching PocScheme.
  std::uint64_t generated = 0;
  for (const auto& id : scenario_->graph().participants()) {
    generated += scenario_->participant(id).stats().proofs_generated;
  }
  const auto second = query(product);
  std::uint64_t generated_after = 0;
  for (const auto& id : scenario_->graph().participants()) {
    generated_after += scenario_->participant(id).stats().proofs_generated;
  }
  EXPECT_EQ(generated_after, generated)
      << "repeat query must not re-run proof generation";
  EXPECT_EQ(digest(first), digest(second));
}

TEST_F(VerifyCacheProtocolTest, ProofMemoStaysWithinItsByteBudget) {
  // Bad-quality queries for products v0 never processed: each one is a
  // fresh non-ownership proof, i.e. a memo miss that grows the memo.
  proto::Participant& v0 = scenario_->participant("v0");
  const poc::Poc* poc = v0.poc_for_task("t0");
  ASSERT_NE(poc, nullptr);
  const Bytes poc_bytes = poc->serialize();
  net::SimTransport probe(scenario_->network());
  std::size_t responses = 0;
  probe.register_node("probe", [&](const net::Envelope&) { ++responses; });
  std::uint64_t query_id = 1000;
  // Returns whether v0 answered (a product whose test-sized trie key
  // collides with a committed one gets no non-ownership proof).
  const auto ask = [&](const ProductId& product) {
    const std::size_t before = responses;
    probe.send("probe", "v0", proto::msg::kQueryRequest,
               proto::QueryRequest{++query_id, product,
                                   proto::ProductQuality::kBad, poc_bytes}
                   .serialize());
    scenario_->network().run();
    return responses > before;
  };

  // Sweep distinct products until the memo has had to clear once.
  const std::size_t budget = proto::Participant::kProofMemoBudgetBytes;
  const std::uint64_t generated0 = v0.stats().proofs_generated;
  std::vector<ProductId> hot;
  bool cleared = false;
  for (const ProductId& product : make_products(9, 9, 4000)) {
    const std::size_t before = v0.proof_memo_bytes();
    if (ask(product) && hot.size() < 3) hot.push_back(product);
    ASSERT_LE(v0.proof_memo_bytes(), budget);
    if (v0.proof_memo_bytes() < before) {
      cleared = true;
      break;
    }
  }
  EXPECT_TRUE(cleared) << "the sweep never filled the memo budget";
  EXPECT_LT(v0.proof_memo_size(), v0.stats().proofs_generated - generated0);

  // A hot set still hits the memo on repeat.
  ASSERT_EQ(hot.size(), 3u);
  for (const ProductId& product : hot) ask(product);
  const std::uint64_t hits0 = obs::metric("protocol.proof.memo_hits").value();
  const std::uint64_t generated1 = v0.stats().proofs_generated;
  for (const ProductId& product : hot) ask(product);
  EXPECT_EQ(obs::metric("protocol.proof.memo_hits").value(),
            hits0 + hot.size());
  EXPECT_EQ(v0.stats().proofs_generated, generated1);
}

TEST_F(VerifyCacheProtocolTest, ListReplacementBumpsEpochAndStalesEntries) {
  const ProductId& product = dist_.products[0];
  const auto first = query(product);
  ASSERT_TRUE(first.complete);

  // Build a replacement POC list for t0: same POCs, minus one edge that
  // the queried product's path never crosses. Different bytes -> the
  // proxy treats it as a NEW distribution epoch for the task.
  const poc::PocList* orig = scenario_->proxy().task_list("t0");
  ASSERT_NE(orig, nullptr);
  const auto& path = scenario_->truth("t0").paths.at(product);
  const auto on_path = [&](const std::string& a, const std::string& b) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] == a && path[i + 1] == b) return true;
    }
    return false;
  };
  poc::PocList fresh(orig->ps());
  for (const std::string& p : orig->participants()) {
    fresh.add_poc(*orig->find(p));
  }
  bool dropped = false;
  for (const std::string& parent : orig->participants()) {
    for (const std::string& child : orig->children_of(parent)) {
      if (!dropped && !on_path(parent, child)) {
        dropped = true;  // omit exactly this edge
        continue;
      }
      fresh.add_edge(parent, child);
    }
  }
  ASSERT_TRUE(dropped) << "no off-path edge to drop; pick another product";

  net::SimTransport sender(scenario_->network());
  sender.send("v0", "proxy", proto::msg::kPocListSubmit,
              proto::PocListSubmit{"t0", fresh.serialize()}.serialize());
  scenario_->network().run();
  ASSERT_NE(scenario_->proxy().task_list("t0"), nullptr);

  // The re-query re-walks the same hops; every memoized verdict carries
  // the retired epoch, so each touch is a stale erase, never a hit, and
  // every hop is verified again under the new list.
  const std::uint64_t s0 = stales();
  const std::uint64_t h0 = hits();
  const std::uint64_t b0 = batched();
  const auto second = query(product);
  EXPECT_GT(stales(), s0)
      << "old-epoch entries must be erased on first touch";
  EXPECT_EQ(hits(), h0);
  EXPECT_EQ(batched() - b0, second.path.size())
      << "every hop must be re-verified after a list replacement";
  EXPECT_EQ(digest(first), digest(second));
}

// ---------------------------------------------------------------------------
// Cache-on / cache-off equivalence (no faults; the chaos suite covers the
// faulted cells)
// ---------------------------------------------------------------------------

TEST(VerifyCacheEquivalenceTest, CacheOffReachesIdenticalOutcome) {
  const auto run = [](bool cache) {
    proto::ScenarioConfig cfg;
    cfg.edb = zk::EdbConfig{4, 6, 512, "p256", zk::SoftMode::kShared};
    cfg.verify_cache = cache;
    proto::Scenario scenario(SupplyChainGraph::paper_example(), cfg);
    DistributionConfig dist;
    dist.initial = "v0";
    dist.products = make_products(1, 0, 2);
    dist.seed = 11;
    scenario.run_task("t0", dist);
    std::vector<std::string> paths;
    for (int round = 0; round < 2; ++round) {
      for (const ProductId& p : dist.products) {
        const auto outcome =
            scenario.proxy().run_query(p, proto::ProductQuality::kGood);
        EXPECT_TRUE(outcome.complete);
        for (const std::string& hop : outcome.path) paths.push_back(hop);
      }
    }
    return std::make_pair(paths, scenario.proxy().reputation_snapshot());
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_EQ(on.first, off.first);
  EXPECT_EQ(on.second, off.second);
}

}  // namespace
}  // namespace desword
