// B1 — DES modes of operation: cost and propagation behaviour.
//
// The paper contrasts V4's nonstandard PCBC with standard CBC and notes the
// propagation property that makes PCBC splice-able (E8). This bench gives
// the throughput of each mode on the same core, plus the property summary.

#include "bench/bench_util.h"
#include "src/crypto/modes.h"
#include "src/crypto/prng.h"

namespace {

using kcrypto::DesKey;
using kcrypto::Prng;

void PrintExperimentReport() {
  kbench::Header("B1", "DES modes: ECB vs CBC vs PCBC");
  Prng prng(1);
  DesKey key = prng.NextDesKey();
  kerb::Bytes pt = prng.NextBytes(64);
  kcrypto::DesBlock iv = kcrypto::U64ToBlock(prng.NextU64());

  // Propagation after a single corrupted ciphertext block (block 1 of 8).
  auto garbled_blocks = [&](kerb::Bytes ct, auto decrypt) {
    ct[8] ^= 0x01;
    kerb::Bytes out = decrypt(ct);
    int garbled = 0;
    for (int b = 0; b < 8; ++b) {
      if (!std::equal(out.begin() + 8 * b, out.begin() + 8 * b + 8, pt.begin() + 8 * b)) {
        ++garbled;
      }
    }
    return garbled;
  };
  int cbc = garbled_blocks(EncryptCbc(key, iv, pt),
                           [&](const kerb::Bytes& c) { return DecryptCbc(key, iv, c); });
  int pcbc = garbled_blocks(EncryptPcbc(key, iv, pt),
                            [&](const kerb::Bytes& c) { return DecryptPcbc(key, iv, c); });
  kbench::Line("  plaintext blocks garbled by one flipped ciphertext block (of 8):");
  kbench::Line("    CBC : " + std::to_string(cbc) + "  (self-healing after 2 blocks)");
  kbench::Line("    PCBC: " + std::to_string(pcbc) + "  (propagates to the end)");
  kbench::Line("  ...yet swapping two adjacent PCBC blocks garbles ONLY those two —");
  kbench::Line("  the message-stream-modification flaw (see bench_e08_pcbc).");
}

void BM_DesEcb(benchmark::State& state) {
  Prng prng(2);
  DesKey key = prng.NextDesKey();
  kerb::Bytes pt = prng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncryptEcb(key, pt));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DesEcb)->Arg(64)->Arg(1024)->Arg(8192);

void BM_DesCbc(benchmark::State& state) {
  Prng prng(3);
  DesKey key = prng.NextDesKey();
  kerb::Bytes pt = prng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncryptCbc(key, kcrypto::kZeroIv, pt));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DesCbc)->Arg(64)->Arg(1024)->Arg(8192);

void BM_DesPcbc(benchmark::State& state) {
  Prng prng(4);
  DesKey key = prng.NextDesKey();
  kerb::Bytes pt = prng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncryptPcbc(key, kcrypto::kZeroIv, pt));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DesPcbc)->Arg(64)->Arg(1024)->Arg(8192);

void BM_DesCbcDecrypt(benchmark::State& state) {
  Prng prng(5);
  DesKey key = prng.NextDesKey();
  kerb::Bytes ct = EncryptCbc(key, kcrypto::kZeroIv,
                              prng.NextBytes(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecryptCbc(key, kcrypto::kZeroIv, ct));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DesCbcDecrypt)->Arg(1024);

// The seal stage of a V5 AS reply: a 21-block ticket and a 10-block enc-part
// under two keys, as the KDC encrypts them (the lockstep pair) and as two
// serial CBC chains. The ratio of the two rows is the pair's gain.
constexpr size_t kTicketBlocks = 21;
constexpr size_t kPartBlocks = 10;

void BM_DesCbcSealPair(benchmark::State& state) {
  Prng prng(7);
  DesKey ticket_key = prng.NextDesKey();
  DesKey part_key = prng.NextDesKey();
  kerb::Bytes ticket = prng.NextBytes(8 * kTicketBlocks);
  kerb::Bytes part = prng.NextBytes(8 * kPartBlocks);
  for (auto _ : state) {
    kcrypto::EncryptCbcPairInPlace(ticket_key, ticket.data(), ticket.size(), part_key,
                                   part.data(), part.size());
    benchmark::DoNotOptimize(ticket.data());
    benchmark::DoNotOptimize(part.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ticket.size() + part.size()));
}
BENCHMARK(BM_DesCbcSealPair);

void BM_DesCbcSealSerial(benchmark::State& state) {
  Prng prng(7);
  DesKey ticket_key = prng.NextDesKey();
  DesKey part_key = prng.NextDesKey();
  kerb::Bytes ticket = prng.NextBytes(8 * kTicketBlocks);
  kerb::Bytes part = prng.NextBytes(8 * kPartBlocks);
  for (auto _ : state) {
    kcrypto::EncryptCbcInPlace(ticket_key, kcrypto::kZeroIv, ticket.data(), ticket.size());
    kcrypto::EncryptCbcInPlace(part_key, kcrypto::kZeroIv, part.data(), part.size());
    benchmark::DoNotOptimize(ticket.data());
    benchmark::DoNotOptimize(part.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ticket.size() + part.size()));
}
BENCHMARK(BM_DesCbcSealSerial);

// The seal stage of a V4 AS reply: a 15-block ticket nested at byte 20 of a
// 20-block reply, as the KDC seals it (both PCBC chains in lockstep) and as
// two serial chains, the ticket's and then the reply's. The ratio of the two
// rows is the nested pass's gain.
constexpr size_t kV4TicketBlocks = 15;
constexpr size_t kV4ReplyBlocks = 20;
constexpr size_t kV4TicketOffset = 20;

void BM_DesPcbcReplyNested(benchmark::State& state) {
  Prng prng(8);
  DesKey ticket_key = prng.NextDesKey();
  DesKey reply_key = prng.NextDesKey();
  kerb::Bytes reply = prng.NextBytes(8 * kV4ReplyBlocks);
  for (auto _ : state) {
    kcrypto::EncryptPcbcNestedInPlace(ticket_key, kV4TicketOffset, 8 * kV4TicketBlocks,
                                      reply_key, reply.data(), reply.size());
    benchmark::DoNotOptimize(reply.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(8 * (kV4TicketBlocks + kV4ReplyBlocks)));
}
BENCHMARK(BM_DesPcbcReplyNested);

void BM_DesPcbcReplySerial(benchmark::State& state) {
  Prng prng(8);
  DesKey ticket_key = prng.NextDesKey();
  DesKey reply_key = prng.NextDesKey();
  kerb::Bytes reply = prng.NextBytes(8 * kV4ReplyBlocks);
  for (auto _ : state) {
    kcrypto::EncryptPcbcInPlace(ticket_key, kcrypto::kZeroIv, reply.data() + kV4TicketOffset,
                                8 * kV4TicketBlocks);
    kcrypto::EncryptPcbcInPlace(reply_key, kcrypto::kZeroIv, reply.data(), reply.size());
    benchmark::DoNotOptimize(reply.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(8 * (kV4TicketBlocks + kV4ReplyBlocks)));
}
BENCHMARK(BM_DesPcbcReplySerial);

void BM_DesKeySchedule(benchmark::State& state) {
  Prng prng(6);
  uint64_t raw = prng.NextU64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DesKey(raw));
    ++raw;
  }
}
BENCHMARK(BM_DesKeySchedule);

}  // namespace

KERB_BENCH_MAIN()
