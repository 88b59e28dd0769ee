#include "crypto/modexp.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"

namespace desword {

namespace {

/// Call counters for the two modexp paths (DESIGN.md §8). Function-local
/// statics would retake the registry lock-free scan per TU anyway; these
/// file-level references bind once at static-init time.
obs::Counter& modexp_calls() {
  static obs::Counter& c = obs::metric("crypto.modexp.calls");
  return c;
}

obs::Counter& fixed_base_hits() {
  static obs::Counter& c = obs::metric("crypto.modexp.fixed_base_hits");
  return c;
}

/// Sum of exponent bit-lengths over both exp() paths: a machine-independent
/// measure of exponentiation work (a table exponentiation costs about
/// bits/window multiplications, a plain one about bits squarings).
obs::Counter& exp_bits() {
  static obs::Counter& c = obs::metric("crypto.modexp.exp_bits");
  return c;
}

obs::Counter& multi_exp_calls() {
  static obs::Counter& c = obs::metric("crypto.multi_exp.calls");
  return c;
}

/// Live (non-zero-exponent) terms per multi-exponentiation kernel run, and
/// the sum of their exponent bit-lengths: machine-independent measures of
/// the table-building and digit-multiply work a fold costs.
obs::Counter& multi_exp_terms() {
  static obs::Counter& c = obs::metric("crypto.multi_exp.terms");
  return c;
}

obs::Counter& multi_exp_bits() {
  static obs::Counter& c = obs::metric("crypto.multi_exp.exp_bits");
  return c;
}

BN_CTX* scratch() {
  thread_local BN_CTX* c = BN_CTX_new();
  if (c == nullptr) throw CryptoError("BN_CTX_new failed");
  return c;
}

}  // namespace

ModExpContext::ModExpContext(const Bignum& modulus)
    : modulus_(modulus), mont_(BN_MONT_CTX_new()) {
  if (!modulus.is_odd() || modulus <= Bignum(1)) {
    BN_MONT_CTX_free(mont_);
    throw CryptoError("ModExpContext requires an odd modulus > 1");
  }
  if (mont_ == nullptr ||
      BN_MONT_CTX_set(mont_, modulus_.raw(), scratch()) != 1) {
    BN_MONT_CTX_free(mont_);
    throw CryptoError("BN_MONT_CTX_set failed");
  }
}

ModExpContext::~ModExpContext() { BN_MONT_CTX_free(mont_); }

Bignum ModExpContext::exp(const Bignum& base, const Bignum& exponent) const {
  if (exponent.is_negative()) {
    throw CryptoError("ModExpContext::exp: negative exponent");
  }
  modexp_calls().add();
  exp_bits().add(static_cast<std::uint64_t>(exponent.bits()));
  Bignum out;
  // Reduce the base first: BN_mod_exp_mont requires base < modulus.
  const Bignum reduced = base.mod(modulus_);
  if (BN_mod_exp_mont(out.raw(), reduced.raw(), exponent.raw(),
                      modulus_.raw(), scratch(), mont_) != 1) {
    throw CryptoError("BN_mod_exp_mont failed");
  }
  return out;
}

Bignum ModExpContext::exp_signed(const Bignum& base,
                                 const Bignum& exponent) const {
  if (!exponent.is_negative()) return exp(base, exponent);
  return Bignum::mod_inverse(exp(base, exponent.negated()), modulus_);
}

ModExpContext::FixedBaseTable ModExpContext::precompute(const Bignum& base,
                                                        int max_bits,
                                                        int window) const {
  if (max_bits <= 0) {
    throw CryptoError("ModExpContext::precompute: max_bits must be > 0");
  }
  if (window < 1 || window > 8) {
    throw CryptoError("ModExpContext::precompute: window out of [1, 8]");
  }
  FixedBaseTable t;
  t.base_ = base.mod(modulus_);
  t.window_ = window;
  t.max_bits_ = max_bits;
  t.row_ = (std::size_t{1} << window) - 1;
  const int blocks = (max_bits + window - 1) / window;
  t.table_.resize(static_cast<std::size_t>(blocks) * t.row_);

  BN_CTX* ctx = scratch();
  // cur = base^(2^{w·j}) in Montgomery form, advanced block by block.
  Bignum cur;
  if (BN_to_montgomery(cur.raw(), t.base_.raw(), mont_, ctx) != 1) {
    throw CryptoError("BN_to_montgomery failed");
  }
  for (int j = 0; j < blocks; ++j) {
    Bignum* row = &t.table_[static_cast<std::size_t>(j) * t.row_];
    row[0] = cur;
    for (std::size_t k = 2; k <= t.row_; ++k) {
      // row[k-1] = base^(k·2^{wj}) = row[k-2] · cur.
      if (BN_mod_mul_montgomery(row[k - 1].raw(), row[k - 2].raw(), cur.raw(),
                                mont_, ctx) != 1) {
        throw CryptoError("BN_mod_mul_montgomery failed");
      }
    }
    if (j + 1 < blocks) {
      for (int s = 0; s < window; ++s) {
        if (BN_mod_mul_montgomery(cur.raw(), cur.raw(), cur.raw(), mont_,
                                  ctx) != 1) {
          throw CryptoError("BN_mod_mul_montgomery failed");
        }
      }
    }
  }
  return t;
}

Bignum ModExpContext::exp(const FixedBaseTable& table,
                          const Bignum& exponent) const {
  if (exponent.is_negative()) {
    throw CryptoError("ModExpContext::exp: negative exponent");
  }
  if (exponent.bits() > table.max_bits_) {
    return exp(table.base_, exponent);  // oversized: plain path (counted there)
  }
  modexp_calls().add();
  fixed_base_hits().add();
  exp_bits().add(static_cast<std::uint64_t>(exponent.bits()));
  if (exponent.is_zero()) return Bignum(1);

  BN_CTX* ctx = scratch();
  const int window = table.window_;
  const int blocks = (exponent.bits() + window - 1) / window;
  Bignum acc;
  bool have_acc = false;
  for (int j = 0; j < blocks; ++j) {
    unsigned digit = 0;
    for (int b = 0; b < window; ++b) {
      if (BN_is_bit_set(exponent.raw(), j * window + b)) digit |= 1u << b;
    }
    if (digit == 0) continue;
    const Bignum& entry =
        table.table_[static_cast<std::size_t>(j) * table.row_ + (digit - 1)];
    if (!have_acc) {
      acc = entry;
      have_acc = true;
      continue;
    }
    if (BN_mod_mul_montgomery(acc.raw(), acc.raw(), entry.raw(), mont_,
                              ctx) != 1) {
      throw CryptoError("BN_mod_mul_montgomery failed");
    }
  }
  Bignum out;
  if (BN_from_montgomery(out.raw(), acc.raw(), mont_, ctx) != 1) {
    throw CryptoError("BN_from_montgomery failed");
  }
  return out;
}

Bignum ModExpContext::exp_signed(const FixedBaseTable& table,
                                 const Bignum& exponent) const {
  if (!exponent.is_negative()) return exp(table, exponent);
  return Bignum::mod_inverse(exp(table, exponent.negated()), modulus_);
}

namespace {

/// Bits [w·j, w·j + w) of `e` as an unsigned digit.
unsigned window_digit(const BIGNUM* e, int j, int window) {
  unsigned digit = 0;
  for (int b = 0; b < window; ++b) {
    if (BN_is_bit_set(e, j * window + b)) digit |= 1u << b;
  }
  return digit;
}

/// Multiplication-count estimate for sliding-window Straus at window w:
/// per-base odd-power tables (2^{w−1} multiplies each, counting the one
/// squaring) + the shared squaring chain + one multiply per window, of
/// which a random L-bit exponent has ≈ L/(w+1).
double straus_cost(std::size_t n, int bits, int w) {
  const double nd = static_cast<double>(n);
  return nd * static_cast<double>(1 << (w - 1)) + bits + nd * bits / (w + 1);
}

/// Pippenger at window w: no per-base tables; every window pays one bucket
/// multiply per base plus ~2·(2^w − 1) multiplies for the suffix-product
/// collapse, on top of the shared squaring chain.
double pippenger_cost(std::size_t n, int bits, int w) {
  const double nd = static_cast<double>(n);
  const double blocks = static_cast<double>((bits + w - 1) / w);
  return nd + bits + blocks * (nd + 2.0 * static_cast<double>((1 << w) - 1));
}

}  // namespace

ModExpContext::MultiExpPlan ModExpContext::plan_multi_exp(std::size_t n,
                                                          int max_bits) {
  // Pick the algorithm/window pair with the lowest estimated multiplication
  // count. Straus windows are capped at 8 (table memory is n·2^{w−1}
  // residues); Pippenger buckets at 12 (2^w residues, amortized over many
  // bases).
  double best_cost = straus_cost(n, max_bits, 1);
  MultiExpPlan plan;
  for (int w = 1; w <= 12; ++w) {
    if (w <= 8) {
      const double c = straus_cost(n, max_bits, w);
      if (c < best_cost) {
        best_cost = c;
        plan = MultiExpPlan{false, w};
      }
    }
    const double c = pippenger_cost(n, max_bits, w);
    if (c < best_cost) {
      best_cost = c;
      plan = MultiExpPlan{true, w};
    }
  }
  return plan;
}

Bignum ModExpContext::multi_exp(const std::vector<ExpTerm>& terms) const {
  std::vector<const ExpTerm*> live;
  live.reserve(terms.size());
  int max_bits = 0;
  std::uint64_t live_bits = 0;
  for (const ExpTerm& t : terms) {
    if (t.exponent.is_negative()) {
      throw CryptoError("ModExpContext::multi_exp: negative exponent");
    }
    if (t.exponent.is_zero()) continue;  // b^0 = 1
    max_bits = std::max(max_bits, t.exponent.bits());
    live_bits += static_cast<std::uint64_t>(t.exponent.bits());
    live.push_back(&t);
  }
  if (live.empty()) return Bignum(1);
  if (live.size() == 1) return exp(live[0]->base, live[0]->exponent);
  multi_exp_calls().add();
  multi_exp_terms().add(live.size());
  multi_exp_bits().add(live_bits);

  const MultiExpPlan plan = plan_multi_exp(live.size(), max_bits);
  return plan.pippenger ? multi_exp_pippenger(live, max_bits, plan.window)
                        : multi_exp_straus(live, max_bits, plan.window);
}

Bignum ModExpContext::multi_exp_straus(const std::vector<const ExpTerm*>& terms,
                                       int max_bits, int window) const {
  BN_CTX* ctx = scratch();
  auto mont_mul_into = [&](Bignum& dst, const Bignum& a, const Bignum& b) {
    if (BN_mod_mul_montgomery(dst.raw(), a.raw(), b.raw(), mont_, ctx) != 1) {
      throw CryptoError("BN_mod_mul_montgomery failed");
    }
  };
  // Per-base odd-power tables: table[i][k] = base_i^{2k+1} (Montgomery),
  // built from base_i and one squaring base_i^2.
  const std::size_t row = std::size_t{1} << (window - 1);
  std::vector<Bignum> table(terms.size() * row);
  Bignum square;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    Bignum* t = &table[i * row];
    const Bignum reduced = terms[i]->base.mod(modulus_);
    if (BN_to_montgomery(t[0].raw(), reduced.raw(), mont_, ctx) != 1) {
      throw CryptoError("BN_to_montgomery failed");
    }
    if (row == 1) continue;
    mont_mul_into(square, t[0], t[0]);
    for (std::size_t k = 1; k < row; ++k) mont_mul_into(t[k], t[k - 1], square);
  }

  // Sliding windows, scanned from the top bit: a window opens on a set bit
  // b, spans at most w bits down to b − w + 1, and closes on its lowest
  // set bit, so every digit is odd and indexes the table directly. Each
  // window becomes one event at the bit where it closes.
  struct Window {
    int low_bit;
    std::uint32_t term;
    std::uint32_t entry;  // (digit − 1) / 2
  };
  std::vector<Window> windows;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const BIGNUM* e = terms[i]->exponent.raw();
    for (int b = terms[i]->exponent.bits() - 1; b >= 0;) {
      if (!BN_is_bit_set(e, b)) {
        --b;
        continue;
      }
      int low = std::max(b - window + 1, 0);
      while (!BN_is_bit_set(e, low)) ++low;
      unsigned digit = 0;
      for (int k = b; k >= low; --k) {
        digit = (digit << 1) | (BN_is_bit_set(e, k) ? 1u : 0u);
      }
      windows.push_back(Window{low, static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(digit >> 1)});
      b = low - 1;
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              return a.low_bit > b.low_bit;
            });

  // One squaring chain over the widest exponent, all bases interleaved:
  // at bit j, square once, then multiply in every window closing at j.
  Bignum acc;
  bool have_acc = false;
  std::size_t next = 0;
  for (int j = max_bits - 1; j >= 0; --j) {
    if (have_acc) mont_mul_into(acc, acc, acc);
    for (; next < windows.size() && windows[next].low_bit == j; ++next) {
      const Window& win = windows[next];
      const Bignum& entry = table[win.term * row + win.entry];
      if (!have_acc) {
        acc = entry;
        have_acc = true;
      } else {
        mont_mul_into(acc, acc, entry);
      }
    }
  }
  if (!have_acc) return Bignum(1);  // unreachable: exponents are non-zero
  Bignum out;
  if (BN_from_montgomery(out.raw(), acc.raw(), mont_, ctx) != 1) {
    throw CryptoError("BN_from_montgomery failed");
  }
  return out;
}

Bignum ModExpContext::multi_exp_pippenger(
    const std::vector<const ExpTerm*>& terms, int max_bits, int window) const {
  BN_CTX* ctx = scratch();
  // Montgomery form of each base, converted once.
  std::vector<Bignum> bases(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Bignum reduced = terms[i]->base.mod(modulus_);
    if (BN_to_montgomery(bases[i].raw(), reduced.raw(), mont_, ctx) != 1) {
      throw CryptoError("BN_to_montgomery failed");
    }
  }

  const std::size_t buckets = (std::size_t{1} << window) - 1;
  std::vector<Bignum> bucket(buckets);
  std::vector<bool> bucket_set(buckets);
  const int blocks = (max_bits + window - 1) / window;
  Bignum acc;
  bool have_acc = false;
  auto mont_mul_into = [&](Bignum& dst, const Bignum& a, const Bignum& b) {
    if (BN_mod_mul_montgomery(dst.raw(), a.raw(), b.raw(), mont_, ctx) != 1) {
      throw CryptoError("BN_mod_mul_montgomery failed");
    }
  };
  for (int j = blocks - 1; j >= 0; --j) {
    if (have_acc) {
      for (int s = 0; s < window; ++s) mont_mul_into(acc, acc, acc);
    }
    // bucket[d-1] = product of every base whose j-th window digit is d.
    std::fill(bucket_set.begin(), bucket_set.end(), false);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const unsigned digit = window_digit(terms[i]->exponent.raw(), j, window);
      if (digit == 0) continue;
      Bignum& b = bucket[digit - 1];
      if (!bucket_set[digit - 1]) {
        b = bases[i];
        bucket_set[digit - 1] = true;
      } else {
        mont_mul_into(b, b, bases[i]);
      }
    }
    // ∑ d·bucket[d] via running suffix products: S = ∏_{k>=d} bucket[k],
    // T = ∏_d S_d = ∏_d bucket[d]^d, both with plain multiplies.
    Bignum suffix, window_sum;
    bool have_suffix = false, have_sum = false;
    for (std::size_t d = buckets; d >= 1; --d) {
      if (bucket_set[d - 1]) {
        if (!have_suffix) {
          suffix = bucket[d - 1];
          have_suffix = true;
        } else {
          mont_mul_into(suffix, suffix, bucket[d - 1]);
        }
      }
      if (have_suffix) {
        if (!have_sum) {
          window_sum = suffix;
          have_sum = true;
        } else {
          mont_mul_into(window_sum, window_sum, suffix);
        }
      }
    }
    if (have_sum) {
      if (!have_acc) {
        acc = window_sum;
        have_acc = true;
      } else {
        mont_mul_into(acc, acc, window_sum);
      }
    }
  }
  if (!have_acc) return Bignum(1);  // unreachable: exponents are non-zero
  Bignum out;
  if (BN_from_montgomery(out.raw(), acc.raw(), mont_, ctx) != 1) {
    throw CryptoError("BN_from_montgomery failed");
  }
  return out;
}

}  // namespace desword
