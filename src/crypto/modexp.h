// Fast modular exponentiation engine.
//
// The paper's cost objection to exponential key exchange — "using large
// [numbers] is expensive in computation time" — is mostly a statement about
// naive modexp. This module supplies the engineered version:
//
//   * ModExpCtx — a cached Montgomery context for one odd modulus. The
//     per-modulus setup the old BigInt::ModExp repaid on every call
//     (n0inv, R mod m, R² mod m) is computed once at construction; every
//     Pow() call reuses it. Internally the context repacks the 32-bit
//     BigInt limbs into 64-bit limbs with 128-bit accumulation, halving
//     the limb count and quartering the single-word multiply count.
//   * ModExpCtx::Pow — sliding-window exponentiation (window 2–5 chosen
//     from the exponent width) over an odd-power table, with a dedicated
//     Montgomery squaring (MontSqr) that exploits product symmetry for the
//     ~50% of inner-loop work that squarings are.
//   * FixedBasePow — a radix-2^w fixed-base table for one (base, modulus)
//     pair: base^(d·2^(w·i)) for every window i and digit d, built once.
//     Evaluating base^e is then one Montgomery multiply per non-zero
//     window digit and no squarings at all — the shape of the KDC's g^x,
//     where g never changes.
//
// Construction is fail-closed: Create() returns an error for a zero, even,
// or ≤1 modulus instead of asserting, so degenerate DH group parameters
// surface as protocol errors (tests/fuzz/malformed_test.cc sweeps them).
//
// The pre-existing binary ladder survives as BigInt::ModExpBinary — the
// cross-check oracle, same pattern as DesKeyRef vs the table-driven DES —
// and tests/crypto/modexp_test.cc property-checks every path against it.
//
// SIDE-CHANNEL CAVEAT: none of these paths is constant-time in the
// exponent. The sliding-window scan branches on exponent bits and indexes
// the odd-power/comb tables with exponent-derived digits (as did the
// binary ladder before it), so secret exponents — DH private keys — leak
// through timing and cache side channels. That is acceptable here: this
// is a deterministic simulation of a 1991 protocol, every "secret" is a
// seeded-PRNG artifact, and no adversary in the threat model shares
// hardware with the victim. Do not lift this module into a setting where
// one does; a fixed-window scan with constant-time table selection is the
// standard remedy.

#ifndef SRC_CRYPTO_MODEXP_H_
#define SRC_CRYPTO_MODEXP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/crypto/bigint.h"

namespace kcrypto {

// Cached Montgomery-exponentiation context for one odd modulus > 1.
// Immutable after construction, so one context may be shared freely across
// serving threads (each Pow() call owns its scratch).
class ModExpCtx {
 public:
  // Fail-closed: rejects zero, even, and ≤1 moduli with kBadFormat.
  static kerb::Result<ModExpCtx> Create(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }
  // Number of internal 64-bit limbs.
  size_t limbs() const { return m_.size(); }

  // (base^exponent) mod modulus via sliding-window Montgomery ladder.
  BigInt Pow(const BigInt& base, const BigInt& exponent) const;

  // --- Montgomery-domain plumbing (used by FixedBasePow and the property
  // tests; not a general-purpose API). Values are little-endian vectors of
  // limbs() 64-bit words. `scratch` is caller-owned so the ops stay
  // re-entrant; it is resized on first use and reused allocation-free
  // afterwards.
  std::vector<uint64_t> ToMont(const BigInt& v) const;
  BigInt FromMont(const std::vector<uint64_t>& v) const;
  // out = a·b·R⁻¹ mod m (CIOS).
  void MontMul(const uint64_t* a, const uint64_t* b, uint64_t* out,
               std::vector<uint64_t>& scratch) const;
  // out = a²·R⁻¹ mod m — squaring specialization: computes the half
  // product, doubles, adds the diagonal, then reduces.
  void MontSqr(const uint64_t* a, uint64_t* out, std::vector<uint64_t>& scratch) const;
  // 1 in the Montgomery domain (R mod m).
  const std::vector<uint64_t>& MontOne() const { return r_; }

 private:
  ModExpCtx() = default;

  // Montgomery reduction of the 2n(+1)-limb value in `p` (modified in
  // place); quotient limbs land in p[n..2n], reduced result in `out`.
  void Reduce(uint64_t* p, uint64_t* out) const;

  BigInt modulus_;
  std::vector<uint64_t> m_;   // modulus, 64-bit limbs, little-endian
  uint64_t n0inv_ = 0;        // -m[0]^-1 mod 2^64
  std::vector<uint64_t> r_;   // R mod m      (Montgomery 1)
  std::vector<uint64_t> r2_;  // R² mod m     (to-Montgomery factor)
};

// Precomputed fixed-base exponentiation table: T[i][d] = base^(d·2^(w·i))
// mod m for windows i covering max_exp_bits and digits d in [1, 2^w).
// base^e is then Π T[i][digit_i(e)] — one MontMul per non-zero digit.
// Exponents wider than max_exp_bits fall back to ctx->Pow().
// Immutable after construction; shareable across threads.
class FixedBasePow {
 public:
  FixedBasePow(std::shared_ptr<const ModExpCtx> ctx, const BigInt& base,
               size_t max_exp_bits, int window = 4);

  BigInt Pow(const BigInt& exponent) const;

  const BigInt& base() const { return base_; }

 private:
  std::shared_ptr<const ModExpCtx> ctx_;
  BigInt base_;
  int w_;
  size_t windows_;
  // Flat table: entry (i, d) at ((i << w_) + d) * ctx_->limbs(). Digit 0
  // slots are unused (a zero digit multiplies by nothing).
  std::vector<uint64_t> table_;
};

}  // namespace kcrypto

#endif  // SRC_CRYPTO_MODEXP_H_
