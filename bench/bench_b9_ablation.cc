// B9 — encryption-layer ablation: what each Draft 3 mechanism buys.
//
// The paper insists these mechanisms "belong in a separate encryption
// layer" with requirements stated explicitly. This bench removes them one
// at a time and measures what breaks:
//   * no confounder  → identical plaintexts produce identical ciphertexts
//     (a traffic-analysis leak);
//   * CRC-32 checksum → random noise detected, adversaries not (E9);
//   * no checksum at all (Draft 2 style) → truncations pass (E7).

#include "bench/bench_util.h"
#include "src/crypto/crc32.h"
#include "src/krb5/enclayer.h"
#include "src/krb5/messages.h"

namespace {

using krb5::EncLayerConfig;

kenc::TlvMessage Sample() {
  kenc::TlvMessage msg(krb5::kMsgPriv);
  msg.SetString(krb5::tag::kAppData, "transfer $100 to account 7");
  return msg;
}

void PrintExperimentReport() {
  kbench::Header("B9", "encryption-layer ablation");
  kcrypto::Prng prng(1);
  kcrypto::DesKey key = prng.NextDesKey();

  // Ablate the confounder.
  {
    EncLayerConfig config{kcrypto::ChecksumType::kMd4Des, /*use_confounder=*/false};
    kerb::Bytes a = krb5::Seal(key, Sample(), config, prng);
    kerb::Bytes b = krb5::Seal(key, Sample(), config, prng);
    kbench::ResultRow("no confounder: equal plaintexts visible on the wire", a == b,
                      "ciphertexts identical — repeat traffic leaks");
    EncLayerConfig with{kcrypto::ChecksumType::kMd4Des, true};
    kerb::Bytes c = krb5::Seal(key, Sample(), with, prng);
    kerb::Bytes d = krb5::Seal(key, Sample(), with, prng);
    kbench::ResultRow("with confounder", c == d);
  }

  // Ablate checksum strength: blind flips vs compensated rewrites.
  {
    EncLayerConfig crc{kcrypto::ChecksumType::kCrc32, true};
    kerb::Bytes sealed = krb5::Seal(key, Sample(), crc, prng);
    int blind_accepted = 0;
    for (size_t i = 0; i < sealed.size(); ++i) {
      kerb::Bytes tampered = sealed;
      tampered[i] ^= 0x01;
      if (krb5::Unseal(key, krb5::kMsgPriv, tampered, crc).ok()) {
        ++blind_accepted;
      }
    }
    kbench::ResultRow("CRC-32 vs blind bit flips", blind_accepted > 0,
                      std::to_string(blind_accepted) + " of " +
                          std::to_string(sealed.size()) + " mutations accepted");
    kbench::Line("  ...but CRC-32 vs a COMPENSATING adversary falls (E9): four chosen"
                 " bytes steer it to any value.");
  }

  // Ablate the checksum entirely (the Draft 2 shape). A NAIVE truncation
  // trips over the padding; but an attacker who can choose part of the
  // plaintext aligns a fake pad + trailer and the prefix sails through —
  // that full construction is bench_e07_prefix.
  {
    krb5::Draft2Priv msg;
    msg.data = kerb::ToBytes("no integrity protection at all");
    kerb::Bytes sealed = krb5::Draft2PrivSeal(key, msg);
    kerb::Bytes truncated(sealed.begin(), sealed.end() - 8);
    bool truncation_accepted = krb5::Draft2PrivUnseal(key, truncated).ok();
    kbench::ResultRow("no checksum (Draft 2): naive truncation", truncation_accepted,
                      "padding luck; the chosen-plaintext version succeeds (E7)");
  }
}

void BM_SealWithConfounder(benchmark::State& state) {
  kcrypto::Prng prng(2);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config{kcrypto::ChecksumType::kMd4Des, state.range(0) != 0};
  kenc::TlvMessage msg = Sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(krb5::Seal(key, msg, config, prng));
  }
  state.SetLabel(state.range(0) ? "with confounder" : "without confounder");
}
BENCHMARK(BM_SealWithConfounder)->Arg(0)->Arg(1);

void BM_SealByChecksumType(benchmark::State& state) {
  kcrypto::Prng prng(3);
  kcrypto::DesKey key = prng.NextDesKey();
  EncLayerConfig config{static_cast<kcrypto::ChecksumType>(state.range(0)), true};
  kenc::TlvMessage msg = Sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(krb5::Seal(key, msg, config, prng));
  }
  state.SetLabel(kcrypto::ChecksumTypeName(config.checksum));
}
BENCHMARK(BM_SealByChecksumType)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

KERB_BENCH_MAIN()
