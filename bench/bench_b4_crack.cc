// B4 — password-guessing rates and expected yield.
//
// "An intruder who has recorded many such login dialogs has good odds of
// finding several new passwords." This bench measures the attacker's inner
// loop (string-to-key + trial decryption) and tabulates the yield against
// the weak-password fraction.

#include "bench/bench_util.h"
#include "src/attacks/harvest.h"
#include "src/attacks/passwords.h"
#include "src/crypto/str2key.h"
#include "src/krb4/messages.h"

namespace {

void PrintExperimentReport() {
  kbench::Header("B4", "dictionary attack yield vs weak-password fraction");
  std::printf("  %-12s %-10s %-10s %-10s %-14s\n", "weak frac", "users", "weak", "cracked",
              "guesses");
  for (double weak : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    kattack::HarvestScenario scenario;
    scenario.population = 40;
    scenario.weak_fraction = weak;
    auto r = kattack::RunEavesdropCrackV4(scenario);
    std::printf("  %-12.2f %-10d %-10d %-10d %-14llu\n", weak, r.population, r.weak_users,
                r.cracked, static_cast<unsigned long long>(r.guess_attempts));
  }
  kbench::Line("  Every dictionary password falls; no strong password does.");
}

void BM_StringToKey(benchmark::State& state) {
  // The attacker's unit of work.
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kcrypto::StringToKey("candidate" + std::to_string(i++), "ATHENA.SIMalice"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StringToKey);

void BM_GuessConfirmation(benchmark::State& state) {
  // string-to-key + trial unseal of a recorded AS reply.
  kcrypto::Prng prng(1);
  krb4::Principal alice = krb4::Principal::User("alice", "ATHENA.SIM");
  kcrypto::DesKey real_key = kcrypto::StringToKey("the-real-password", alice.Salt());
  krb4::ReplyBody4 body;
  body.session_key = prng.NextDesKey().bytes();
  body.sealed_ticket = prng.NextBytes(64);
  kerb::Bytes sealed = krb4::Seal(real_key, body);

  int i = 0;
  for (auto _ : state) {
    kcrypto::DesKey guess =
        kcrypto::StringToKey("wrong" + std::to_string(i++), alice.Salt());
    benchmark::DoNotOptimize(krb4::Unseal4(guess, sealed));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel("guesses/sec is items_per_second");
}
BENCHMARK(BM_GuessConfirmation);

void BM_ParallelCrackSweep(benchmark::State& state) {
  // Worst case for the attacker: the password is strong, so the sweep runs
  // the whole dictionary through the worker pool every iteration.
  // items/sec == guesses/sec through the parallel harness.
  kcrypto::Prng prng(3);
  krb4::Principal user = krb4::Principal::User("user9", "ATHENA.SIM");
  kcrypto::DesKey key = kcrypto::StringToKey("Tr0ub4dor&3", user.Salt());
  krb4::ReplyBody4 body;
  body.session_key = prng.NextDesKey().bytes();
  body.sealed_ticket = prng.NextBytes(64);
  kerb::Bytes sealed = krb4::Seal(key, body);
  const auto& dictionary = kattack::CommonPasswordDictionary();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kattack::CrackSealedReply(sealed, user, dictionary));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dictionary.size()));
  state.SetLabel(std::to_string(kattack::CrackWorkerThreads()) + " worker thread(s)");
}
BENCHMARK(BM_ParallelCrackSweep)->Unit(benchmark::kMicrosecond);

void BM_FullDictionaryPerUser(benchmark::State& state) {
  kcrypto::Prng prng(2);
  krb4::Principal user = krb4::Principal::User("user7", "ATHENA.SIM");
  kcrypto::DesKey key = kcrypto::StringToKey("tigger", user.Salt());  // weak
  krb4::ReplyBody4 body;
  body.session_key = prng.NextDesKey().bytes();
  body.sealed_ticket = prng.NextBytes(64);
  kerb::Bytes sealed = krb4::Seal(key, body);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kattack::CrackSealedReply(sealed, user, kattack::CommonPasswordDictionary()));
  }
}
BENCHMARK(BM_FullDictionaryPerUser)->Unit(benchmark::kMicrosecond);

}  // namespace

KERB_BENCH_MAIN()
