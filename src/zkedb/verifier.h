// ZK-EDB verification (the paper's EDB-Verify).
//
// Verification walks the proof chain from the root commitment, checking at
// every depth that (a) the opening/tease is valid for the current node's
// commitment, (b) it is at the key's digit position, and (c) its message
// equals the digest of the next node's commitment. Verification cost is
// O(height) and independent of q — the property Figure 5 measures.
//
// Two execution strategies produce the same accept/reject decisions:
//   * scalar — each opening is verified on its own (3–4 exponentiations);
//   * batched (default) — the chain's verification equations are folded
//     into one multi-exponentiation by a mercurial::BatchVerifier, with
//     scalar re-checks behind the bisection on failure (see
//     mercurial/batch_verify.h for the soundness argument).
//
// Both flavours return a `VerifyOutcome`: `ok` is the verdict;
// memberships additionally carry the proven value D(key).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "zkedb/proof.h"

namespace desword::zkedb {

/// Uniform result of a proof verification: `ok` is the verdict; `value`
/// carries the proven value for memberships (absent for non-memberships).
/// One shape for both proof flavours, so callers and the proxy's hop memo
/// handle them identically.
struct VerifyOutcome {
  bool ok = false;
  std::optional<Bytes> value;

  /// True iff the proof was accepted AND proves a value (membership).
  bool has_value() const { return ok && value.has_value(); }
  const Bytes& operator*() const { return *value; }
  const Bytes* operator->() const { return &*value; }
  explicit operator bool() const { return ok; }

  bool operator==(const VerifyOutcome&) const = default;

  static VerifyOutcome accept() { return VerifyOutcome{true, std::nullopt}; }
  static VerifyOutcome accept_value(Bytes v) {
    return VerifyOutcome{true, std::move(v)};
  }
  static VerifyOutcome reject() { return VerifyOutcome{}; }
};

/// Controls HOW verification executes, never WHAT it decides: the batched
/// and scalar strategies accept/reject identically (batched falls back to
/// exact scalar re-checks when a fold fails). Every call verifies; the
/// only verdict memo is the proxy's hop memo (desword/proxy.h).
struct EdbVerifyOptions {
  bool batched = true;   // fold proof-chain equations into one multi-exp
  unsigned threads = 0;  // *_many fan-out; 0 = DESWORD_THREADS / hw default
};

/// Verifies a membership proof against `root`. On success the outcome is
/// accepted and carries the proven value D(key). Never throws on
/// malformed proof content.
VerifyOutcome edb_verify_membership(const EdbCrs& crs,
                                    const mercurial::QtmcCommitment& root,
                                    const EdbKey& key,
                                    const EdbMembershipProof& proof,
                                    const EdbVerifyOptions& opts = {});

/// Verifies a non-membership proof against `root`. Accepted iff the
/// prover demonstrated D(key) = ⊥ (the outcome never carries a value).
VerifyOutcome edb_verify_non_membership(const EdbCrs& crs,
                                        const mercurial::QtmcCommitment& root,
                                        const EdbKey& key,
                                        const EdbNonMembershipProof& proof,
                                        const EdbVerifyOptions& opts = {});

/// One key/proof pair of a verification sweep.
struct EdbMembershipQuery {
  EdbKey key;
  const EdbMembershipProof* proof;
};

/// Verifies many independent membership proofs, fanning the per-proof work
/// out over `opts.threads` workers (0 = default: DESWORD_THREADS env, else
/// hardware_concurrency()). result[i] corresponds to queries[i] and equals
/// what edb_verify_membership would return for it. With `opts.batched`,
/// each worker folds its whole shard of proofs into one batch — the main
/// throughput lever of this module (see bench_zkedb VerifyManyBatched).
std::vector<VerifyOutcome> edb_verify_membership_many(
    const EdbCrs& crs, const mercurial::QtmcCommitment& root,
    const std::vector<EdbMembershipQuery>& queries,
    const EdbVerifyOptions& opts = {});

}  // namespace desword::zkedb
