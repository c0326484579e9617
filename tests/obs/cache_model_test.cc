// Property-based tests: the concurrent caches against naive reference
// models.
//
// ShardedReplayCache is checked for exact agreement with a plain ordered
// set over in-window presentations (the only inputs it is specified for —
// upstream freshness checks reject out-of-window timestamps first). The
// security property is asymmetric: a false *positive* (honest request
// rejected) is an availability bug, a false *negative* (replay admitted)
// breaks the paper's "cache all live authenticators" defense, so the replay
// side is additionally re-verified wholesale after the random walk.
//
// KdcReplyCache is direct-mapped and allowed to evict, so the model check
// is one-sided: a miss is always acceptable, but a hit must return exactly
// the reply the model stored for that (source, request) pair within the
// freshness window — never another client's reply, never a stale one.
//
// KdcUnsealMemo is direct-mapped too, and checked the same one-sided way:
// a hit returns exactly the ticket and session key last stored for that
// (key bytes, ciphertext), scheduled from that ticket's session key, never
// another pair's; a collision only evicts, so a pair hits from its put
// until its slot is put again; a ciphertext too long to keep never hits.
// It runs at the V5 TGT memo's size, 1,024 slots.
//
// PrincipalStore is checked for exact agreement with a plain ordered map
// across a mixed walk of registrations, whole-record (ring) upserts, and
// erases. Erase is the structurally interesting op: linear probing cannot
// leave holes, so removal backward-shifts the rest of the probe cluster —
// a small principal pool keeps the clusters dense and the shift path hot.

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/krb4/kdccore.h"
#include "src/krb4/principal_store.h"
#include "src/sim/clock.h"
#include "src/sim/replaycache.h"

namespace {

using ReplayEntry = std::tuple<ksim::Time, std::string, uint32_t>;

TEST(CacheModelTest, ShardedReplayCacheMatchesNaiveModelExactly) {
  constexpr int kOps = 20000;
  const ksim::Duration window = ksim::kMinute;
  kcrypto::Prng prng(0x5eed'cafe);
  ksim::ShardedReplayCache cache;
  std::set<ReplayEntry> model;
  ksim::Time now = 10 * ksim::kMinute;

  for (int i = 0; i < kOps; ++i) {
    if (prng.NextBelow(8) == 0) {
      now += static_cast<ksim::Time>(prng.NextBelow(static_cast<uint64_t>(window / 4)));
    }
    std::string identity =
        std::string("client").append(std::to_string(prng.NextBelow(32))) + "@mail";
    uint32_t addr = 0x0a000000u + static_cast<uint32_t>(prng.NextBelow(4));
    // In-window timestamps only: stamp ∈ (now - window, now].
    ksim::Time stamp =
        now - static_cast<ksim::Time>(prng.NextBelow(static_cast<uint64_t>(window)));

    bool admitted = cache.CheckAndInsert(identity, addr, stamp, now, window);
    std::erase_if(model, [&](const ReplayEntry& e) { return std::get<0>(e) < now - window; });
    bool expected = model.emplace(stamp, identity, addr).second;
    ASSERT_EQ(admitted, expected)
        << "op " << i << ": cache and model disagree for (" << identity << ", " << addr
        << ", " << stamp << ") at now=" << now;
  }

  // No false-negative replay admission, wholesale: every tuple the model
  // still holds live is a replay and must be refused.
  for (const ReplayEntry& e : model) {
    EXPECT_FALSE(cache.CheckAndInsert(std::get<1>(e), std::get<2>(e), std::get<0>(e), now,
                                      window))
        << "live tuple re-admitted: (" << std::get<1>(e) << ", " << std::get<2>(e) << ", "
        << std::get<0>(e) << ")";
  }
}

TEST(CacheModelTest, ShardedReplayCacheNeverAdmitsConcurrentDuplicates) {
  // Sequential re-presentation at varying `now` values inside the window:
  // once admitted, a tuple stays a replay for as long as it is live.
  const ksim::Duration window = ksim::kMinute;
  ksim::ShardedReplayCache cache;
  const std::string identity = "alice@mail";
  const ksim::Time stamp = 5 * ksim::kMinute;
  ASSERT_TRUE(cache.CheckAndInsert(identity, 1, stamp, stamp, window));
  for (ksim::Time now = stamp; now <= stamp + window; now += window / 16) {
    EXPECT_FALSE(cache.CheckAndInsert(identity, 1, stamp, now, window)) << "now=" << now;
  }
}

struct ReplyKey {
  uint32_t host;
  uint16_t port;
  kerb::Bytes request;
  bool operator<(const ReplyKey& o) const {
    return std::tie(host, port, request) < std::tie(o.host, o.port, o.request);
  }
};

struct ReplyValue {
  kerb::Bytes reply;
  ksim::Time stored_at = 0;
};

TEST(CacheModelTest, KdcReplyCacheHitsAlwaysMatchTheModel) {
  constexpr int kOps = 20000;
  const ksim::Duration window = 30 * ksim::kSecond;
  kcrypto::Prng prng(0x4b5e'99d1);
  krb4::KdcReplyCache cache;
  std::map<ReplyKey, ReplyValue> model;
  ksim::Time now = 0;

  // A small pool of distinct requests and sources maximises collisions in
  // the direct-mapped table — the interesting regime.
  std::vector<kerb::Bytes> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back(prng.NextBytes(16 + prng.NextBelow(48)));
  }

  uint64_t hits = 0;
  for (int i = 0; i < kOps; ++i) {
    if (prng.NextBelow(4) == 0) {
      now += static_cast<ksim::Time>(prng.NextBelow(static_cast<uint64_t>(window / 2)));
    }
    ksim::NetAddress src{0x0a000100u + static_cast<uint32_t>(prng.NextBelow(4)),
                         static_cast<uint16_t>(1000 + prng.NextBelow(3))};
    const kerb::Bytes& request = requests[prng.NextBelow(requests.size())];
    ReplyKey key{src.host, src.port, request};

    const size_t slot = krb4::KdcReplyCache::Slot(src, request);
    const kerb::Bytes* got = cache.Get(slot, src, request, now, window);
    if (got != nullptr) {
      ++hits;
      auto it = model.find(key);
      ASSERT_NE(it, model.end()) << "op " << i << ": hit for a never-stored request";
      ASSERT_LE(now - it->second.stored_at, window)
          << "op " << i << ": hit served a stale reply";
      ASSERT_EQ(*got, it->second.reply) << "op " << i << ": hit served the wrong reply";
    }

    if (got == nullptr) {
      // Miss path: the server mints a fresh reply and remembers it.
      kerb::Bytes reply = prng.NextBytes(32 + prng.NextBelow(64));
      cache.Put(slot, src, request, reply, now);
      model[key] = ReplyValue{reply, now};
    }
  }
  // The pools are small, so the walk must actually exercise the hit path.
  EXPECT_GT(hits, 0u);
}

TEST(CacheModelTest, KdcUnsealMemoHitsAlwaysMatchTheModel) {
  using Memo = krb4::KdcUnsealMemo<krb4::Ticket4, decltype(krb4::KdcContext::tgts5)::kSlots>;
  constexpr int kOps = 40000;
  kcrypto::Prng prng(0x3e30'0f1c);
  Memo memo;
  using MemoKey = std::pair<kcrypto::DesBlock, kerb::Bytes>;
  std::map<MemoKey, krb4::Ticket4> model;

  // More ciphertexts than slots, a few of them too long to keep, each
  // presented under one of two keys: collisions are the common case.
  std::vector<kerb::Bytes> sealed;
  for (size_t i = 0; i < 2 * Memo::kSlots; ++i) {
    const size_t size = i % 64 == 0 ? Memo::kMaxSealed + 8 : 8 * (1 + prng.NextBelow(24));
    sealed.push_back(prng.NextBytes(size));
  }
  const kcrypto::DesBlock keys[2] = {prng.NextDesKeyBytes(), prng.NextDesKeyBytes()};

  uint64_t hits = 0;
  for (int i = 0; i < kOps; ++i) {
    const kerb::Bytes& blob = sealed[prng.NextBelow(sealed.size())];
    const kcrypto::DesBlock& key = keys[prng.NextBelow(2)];
    const size_t slot = Memo::Slot(blob);
    const krb4::UnsealedTicket<krb4::Ticket4>* got = memo.Get(slot, key, blob);
    if (got != nullptr) {
      ++hits;
      ASSERT_LE(blob.size(), Memo::kMaxSealed) << "op " << i << ": hit for an unkept ciphertext";
      auto it = model.find(MemoKey{key, blob});
      ASSERT_NE(it, model.end()) << "op " << i << ": hit for a never-stored pair";
      ASSERT_EQ(got->ticket.client, it->second.client) << "op " << i << ": wrong ticket";
      ASSERT_EQ(got->ticket.issued_at, it->second.issued_at) << "op " << i << ": wrong ticket";
      ASSERT_EQ(got->ticket.session_key, it->second.session_key) << "op " << i;
      // The schedule is that of the ticket's session key, not a stale one.
      const kcrypto::DesKey want(it->second.session_key);
      ASSERT_EQ(got->session_key.bytes(), want.bytes()) << "op " << i;
      ASSERT_EQ(got->session_key.EncryptBlock(uint64_t{0x0123456789abcdef}),
                want.EncryptBlock(uint64_t{0x0123456789abcdef}))
          << "op " << i;
      continue;
    }
    // Miss path: a fresh unseal.
    krb4::Ticket4 ticket;
    ticket.client = krb4::Principal::User("u" + std::to_string(prng.NextBelow(100000)), "SIM");
    ticket.issued_at = i;
    ticket.session_key = prng.NextDesKeyBytes();
    model[MemoKey{key, blob}] = ticket;
    const krb4::UnsealedTicket<krb4::Ticket4>* put = memo.Put(slot, key, blob, ticket);
    ASSERT_EQ(put->ticket.client, ticket.client) << "op " << i;
    ASSERT_EQ(put->session_key.EncryptBlock(static_cast<uint64_t>(i)),
              kcrypto::DesKey(ticket.session_key).EncryptBlock(static_cast<uint64_t>(i)))
        << "op " << i;
    // Only a later put into the same slot evicts it.
    ASSERT_EQ(memo.Get(slot, key, blob) != nullptr, blob.size() <= Memo::kMaxSealed)
        << "op " << i;
  }
  // The pools are small enough that the walk exercises the hit path.
  EXPECT_GT(hits, 0u);
}

bool SameEntry(const krb4::PrincipalEntry& a, const krb4::PrincipalEntry& b) {
  if (a.kind != b.kind || a.max_life != b.max_life || a.max_renew != b.max_renew ||
      a.keys.size() != b.keys.size()) {
    return false;
  }
  for (size_t i = 0; i < a.keys.size(); ++i) {
    if (a.keys[i].kvno != b.keys[i].kvno || a.keys[i].not_after != b.keys[i].not_after ||
        !(a.keys[i].key == b.keys[i].key)) {
      return false;
    }
  }
  return true;
}

TEST(CacheModelTest, PrincipalStoreMatchesNaiveModelWithEraseInTheMix) {
  constexpr int kOps = 20000;
  kcrypto::Prng prng(0xe4a5'e001);
  krb4::PrincipalStore store;
  std::map<krb4::Principal, krb4::PrincipalEntry> model;

  // A small pool keeps the open-addressing table's probe clusters dense, so
  // Erase's backward shift constantly rearranges live entries.
  std::vector<krb4::Principal> pool;
  for (int i = 0; i < 48; ++i) {
    pool.push_back(krb4::Principal{std::string("p").append(std::to_string(i)),
                                   i % 3 == 0 ? "svc" : "", "ATHENA.SIM"});
  }

  auto check_one = [&](const krb4::Principal& p, int op) {
    krb4::PrincipalEntry got;
    const bool found = store.LookupEntry(p, &got);
    auto it = model.find(p);
    ASSERT_EQ(found, it != model.end()) << "op " << op << ": presence disagrees for "
                                        << p.ToString();
    if (found) {
      ASSERT_TRUE(SameEntry(got, it->second))
          << "op " << op << ": record disagrees for " << p.ToString();
    }
    // The narrow lookup must agree with the wide one: current key and kind.
    kcrypto::DesKey key;
    krb4::PrincipalKind kind;
    ASSERT_EQ(store.Lookup(p, &key, &kind), found) << "op " << op;
    if (found) {
      ASSERT_TRUE(key.bytes() == it->second.keys.front().key) << "op " << op;
      ASSERT_EQ(kind, it->second.kind) << "op " << op;
    }
  };

  for (int i = 0; i < kOps; ++i) {
    const krb4::Principal& p = pool[prng.NextBelow(pool.size())];
    switch (prng.NextBelow(6)) {
      case 0: {  // registration: fresh single-version ring at kvno 1
        const kcrypto::DesKey key = prng.NextDesKey();
        const krb4::PrincipalKind kind = prng.NextBelow(2) == 0
                                             ? krb4::PrincipalKind::kUser
                                             : krb4::PrincipalKind::kService;
        store.Upsert(p, key, kind);
        krb4::PrincipalEntry e;
        e.kind = kind;
        e.keys.push_back(krb4::KeyVersion{1, key.bytes(), 0});
        model[p] = e;
        break;
      }
      case 1: {  // rotation-style whole-record upsert, ring of 1..kRingCap
        krb4::PrincipalEntry e;
        e.kind = prng.NextBelow(2) == 0 ? krb4::PrincipalKind::kUser
                                        : krb4::PrincipalKind::kService;
        e.max_life = static_cast<ksim::Duration>(prng.NextBelow(8)) * ksim::kHour;
        e.max_renew = static_cast<ksim::Duration>(prng.NextBelow(8)) * ksim::kHour;
        const uint32_t top =
            2 + static_cast<uint32_t>(prng.NextBelow(30));
        const size_t depth = 1 + prng.NextBelow(krb4::PrincipalEntry::kRingCap);
        for (size_t v = 0; v < depth && v < top; ++v) {
          e.keys.push_back(krb4::KeyVersion{
              top - static_cast<uint32_t>(v), prng.NextDesKeyBytes(),
              v == 0 ? 0 : static_cast<ksim::Time>(prng.NextBelow(1000)) * ksim::kMinute});
        }
        ASSERT_TRUE(store.UpsertEntry(p, e)) << "op " << i;
        model[p] = e;
        break;
      }
      case 2: {  // an empty ring is rejected and must change nothing
        ASSERT_FALSE(store.UpsertEntry(p, krb4::PrincipalEntry{})) << "op " << i;
        break;
      }
      case 3:
      case 4: {  // erase: agreement on the return AND on the survivors
        ASSERT_EQ(store.Erase(p), model.erase(p) == 1) << "op " << i << " " << p.ToString();
        break;
      }
      default:
        check_one(p, i);
        break;
    }
    // Spot-check an unrelated principal each op: erase's backward shift
    // must never lose or duplicate a neighbour in the same probe cluster.
    check_one(pool[prng.NextBelow(pool.size())], i);
  }

  // Wholesale sweep: every pool principal agrees in both directions.
  for (const krb4::Principal& p : pool) {
    check_one(p, kOps);
  }
}

}  // namespace
