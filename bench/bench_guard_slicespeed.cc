// Regression guard: the bitsliced dictionary sweep must stay at least 3.5x
// faster than the table-driven scalar path it replaced.
//
// Not a google-benchmark binary — a plain pass/fail ctest (registered as
// bench_smoke_slice_guard) so the margin is checked on every test run, not
// only when someone reads bench output. Both sides sweep the same
// dictionary against the same recorded AS reply with a strong (uncrackable)
// password, so each runs the full dictionary:
//
//   scalar:    per-candidate kcrypto::StringToKey (table-driven DES) +
//              trial krb4::Unseal4 — the pre-PR-6 inner loop;
//   bitsliced: kattack::CrackSealedReply, whose sweep now runs 256-lane
//              bitsliced string-to-key + trial decryption.
//
// KERB_CRACK_THREADS is pinned to 1 so the guard measures the engine, not
// the worker pool. The 3.5x floor is conservative: the measured steady-state
// margin on the 1-core reference box is ~4-4.5x (a broken sweep — e.g. a
// silent scalar fallback — reads ~1x), so the guard only fires on a real
// regression.
// Like bench_guard_modexp, the wall-clock ratio is flake-hardened twice
// over: best-of-N rounds absorbs scheduler noise within an attempt, and a
// failed attempt is re-measured from scratch up to kAttempts times —
// interleaved timing makes a transiently loaded box slow BOTH sides, so
// only a persistent one-sided slowdown can fail every attempt.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/attacks/passwords.h"
#include "src/crypto/str2key.h"
#include "src/krb4/messages.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  // One worker: compare engines, not thread counts.
  setenv("KERB_CRACK_THREADS", "1", 1);

  kcrypto::Prng prng(0x51ce);
  const krb4::Principal user = krb4::Principal::User("guard", "ATHENA.SIM");
  const kcrypto::DesKey key = kcrypto::StringToKey("Str0ng&Uncrackable!", user.Salt());
  krb4::ReplyBody4 body;
  body.session_key = prng.NextDesKey().bytes();
  body.sealed_ticket = prng.NextBytes(64);
  const kerb::Bytes sealed = krb4::Seal(key, body);
  // The stock dictionary (~210 words) fills less than one 256-lane slice;
  // replicate it so the bitsliced path runs mostly full chunks, as a real
  // harvest sweep (dictionary x many victims) does. Replication does not
  // change the scalar per-guess cost, and 40 copies stretches each timed
  // window past the millisecond scale where scheduler jitter dominates the
  // ratio.
  const std::vector<std::string>& base = kattack::CommonPasswordDictionary();
  std::vector<std::string> dictionary;
  dictionary.reserve(base.size() * 40);
  for (int copy = 0; copy < 40; ++copy) {
    dictionary.insert(dictionary.end(), base.begin(), base.end());
  }
  const std::string salt = user.Salt();

  constexpr int kRounds = 3;
  constexpr int kAttempts = 3;
  constexpr double kFloor = 3.5;
  const double n = static_cast<double>(dictionary.size());
  volatile bool sink = false;
  double speedup = 0.0;
  std::printf("dictionary=%zu candidates, best of %d rounds\n", dictionary.size(), kRounds);
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    // Best-of-N to shrug off scheduler noise on shared machines.
    double scalar_best = 1e9;
    double sliced_best = 1e9;
    for (int round = 0; round < kRounds; ++round) {
      auto start = Clock::now();
      for (const std::string& candidate : dictionary) {
        const kcrypto::DesKey guess = kcrypto::StringToKey(candidate, salt);
        sink = sink ^ krb4::Unseal4(guess, sealed).ok();
      }
      scalar_best = std::min(scalar_best, SecondsSince(start));

      start = Clock::now();
      if (kattack::CrackSealedReply(sealed, user, dictionary).has_value()) {
        std::fprintf(stderr, "FAIL: strong password was 'cracked' — sweep is broken\n");
        return 1;
      }
      sliced_best = std::min(sliced_best, SecondsSince(start));
    }

    const double scalar_rate = n / scalar_best;
    const double sliced_rate = n / sliced_best;
    speedup = sliced_rate / scalar_rate;
    std::printf("attempt %d/%d: scalar %.0f guesses/sec, bitsliced %.0f guesses/sec, "
                "speedup %.2fx (floor: %.1fx)\n",
                attempt, kAttempts, scalar_rate, sliced_rate, speedup, kFloor);
    if (speedup >= kFloor) {
      std::printf("PASS\n");
      return 0;
    }
  }
  std::fprintf(stderr, "FAIL: bitsliced sweep below the %.1fx floor on all %d attempts "
               "(last: %.2fx)\n", kFloor, kAttempts, speedup);
  return 1;
}
