// B8 — multi-session key exposure (§Exposure of Session Keys).
//
// "The term session key is a misnomer … This limits the exposure to
// cryptanalysis of the multi-session key contained in the ticket."
// Measured: how many ciphertext blocks accumulate under ONE key across N
// sessions with the ticket's multi-session key, versus negotiated true
// session keys (each key sees only its own session's traffic).

#include "bench/bench_util.h"
#include "src/attacks/testbed5.h"

namespace {

using kattack::Testbed5;
using kattack::Testbed5Config;

struct Exposure {
  size_t max_blocks_under_one_key = 0;
  size_t keys_used = 0;
};

Exposure MeasureExposure(bool negotiate_subkeys, int sessions, int messages_per_session) {
  Testbed5Config config;
  config.server_options.negotiate_subkey = negotiate_subkeys;
  config.client_options.send_subkey = negotiate_subkeys;
  Testbed5 bed(config);
  (void)bed.alice().Login(Testbed5::kAlicePassword);

  std::map<uint64_t, size_t> blocks_per_key;
  kcrypto::Prng prng(1);
  for (int s = 0; s < sessions; ++s) {
    auto call = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(), true);
    if (!call.ok()) {
      continue;
    }
    // Session traffic sealed under the channel key.
    krb5::EncLayerConfig enc;
    for (int m = 0; m < messages_per_session; ++m) {
      krb5::PrivMessage5 msg;
      msg.data = prng.NextBytes(128);
      kerb::Bytes sealed = krb5::Seal(call.value().channel_key, msg, enc, prng);
      blocks_per_key[call.value().channel_key.AsU64()] += sealed.size() / 8;
    }
  }
  Exposure exposure;
  exposure.keys_used = blocks_per_key.size();
  for (const auto& [key, blocks] : blocks_per_key) {
    exposure.max_blocks_under_one_key = std::max(exposure.max_blocks_under_one_key, blocks);
  }
  return exposure;
}

void PrintExperimentReport() {
  kbench::Header("B8", "ciphertext accumulated under one key across sessions");
  std::printf("  %-34s %-10s %-26s\n", "configuration (20 sessions x 50 msgs)", "keys",
              "max blocks under one key");
  Exposure multi = MeasureExposure(false, 20, 50);
  std::printf("  %-34s %-10zu %-26zu\n", "multi-session key (Draft 3)", multi.keys_used,
              multi.max_blocks_under_one_key);
  Exposure negotiated = MeasureExposure(true, 20, 50);
  std::printf("  %-34s %-10zu %-26zu\n", "negotiated true session keys",
              negotiated.keys_used, negotiated.max_blocks_under_one_key);
  kbench::Line("  Recommendation (e) divides the cryptanalytic target by the session"
               " count and 'precludes attacks which substitute messages from one session"
               " in another' (E11).");
}

void BM_SubkeyNegotiationOverhead(benchmark::State& state) {
  bool negotiate = state.range(0) != 0;
  Testbed5Config config;
  config.server_options.negotiate_subkey = negotiate;
  config.client_options.send_subkey = negotiate;
  Testbed5 bed(config);
  (void)bed.alice().Login(Testbed5::kAlicePassword);
  (void)bed.alice().GetServiceTicket(bed.mail_principal());
  for (auto _ : state) {
    auto r = bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(), true);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(negotiate ? "with subkey negotiation" : "multi-session key only");
}
BENCHMARK(BM_SubkeyNegotiationOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

KERB_BENCH_MAIN()
