// Epoch-versioned verification cache: the proxy's hop memo.
//
// Repeated audit traffic re-walks the same proof chains: recall campaigns
// and counterfeit audits query far more often than participants re-commit,
// so the exact same (task, participant, product, commitment, proof bytes)
// hop is verified over and over. This cache memoizes the *verdict* of an
// accepted hop check so a hop whose exact proof bytes were already
// admitted under the same POC-list generation skips the
// multi-exponentiation entirely. It is the only verdict memo: ZK-EDB
// verification itself (zkedb/verifier.h) always verifies.
//
// Safety rests on two pillars:
//
//   * Keys bind the FULL proof bytes (plus task, participant, product and
//     commitment) through a domain-separated SHA-256 — see hop_key(). A
//     tampered proof, however close to a cached one, hashes to a different
//     key and can never alias a cached acceptance. The `cache-key` lint
//     rule (tools/desword_lint.py) rejects key constructions that omit the
//     proof bytes.
//   * Entries are tagged with an epoch (the proxy's per-task POC-list
//     generation). A lookup under a different epoch misses AND erases the
//     stale entry, so acceptances from before a list replacement are
//     structurally unreachable.
//
// Only *accepted* verdicts are stored. Negative caching would be sound —
// the key binds the exact rejected bytes — but every adversarial garbage
// proof would then occupy a distinct entry, letting a flooder evict the
// legitimate working set at zero crypto cost. Rejections stay expensive
// for the attacker and free for the cache. (DESIGN.md §12.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string_view>

#include "common/bytes.h"
#include "common/mutex.h"
#include "zkedb/verifier.h"

namespace desword::zkedb {

/// Capacity-bounded LRU of accepted hop verdicts.
///
/// Thread safe: one annotated Mutex guards the map and the LRU list (the
/// proxy only touches it from its loop thread, but the lock keeps the
/// class safe to share and keeps the thread-safety analysis honest).
/// Instrumented with zkedb.cache.{hit,miss,evict,stale}.
class VerifyCache {
 public:
  explicit VerifyCache(std::size_t capacity);

  VerifyCache(const VerifyCache&) = delete;
  VerifyCache& operator=(const VerifyCache&) = delete;

  /// Returns the cached outcome iff `key` is present under exactly
  /// `epoch`. A present entry under a different epoch is erased (counted
  /// as zkedb.cache.stale) and reported as a miss.
  std::optional<VerifyOutcome> lookup(const Bytes& key, std::uint64_t epoch);

  /// Records an accepted outcome under (key, epoch). Rejections are
  /// dropped (see file header on negative caching). Storing an existing
  /// key refreshes its LRU position and overwrites its epoch.
  void store(const Bytes& key, const VerifyOutcome& outcome,
             std::uint64_t epoch);

  /// Entries currently resident.
  std::size_t size() const;

  /// Key for a proxy-level hop verdict. Binds the task, the responding
  /// participant, the queried product id, the hop's POC commitment bytes,
  /// the FULL proof bytes as received and the check flavour (`kind` =
  /// "ownership" / "non_ownership").
  static Bytes hop_key(std::string_view task_id, std::string_view participant,
                       BytesView product_id, BytesView commitment,
                       BytesView proof_bytes, std::string_view kind);

 private:
  struct Entry {
    VerifyOutcome outcome;
    std::uint64_t epoch = 0;
    std::list<Bytes>::iterator pos;  // position in the LRU list
  };

  const std::size_t capacity_;
  mutable Mutex mu_;
  std::map<Bytes, Entry> entries_ DESWORD_GUARDED_BY(mu_);
  /// Most-recently-used first; back() is the eviction victim.
  std::list<Bytes> lru_ DESWORD_GUARDED_BY(mu_);
};

}  // namespace desword::zkedb
