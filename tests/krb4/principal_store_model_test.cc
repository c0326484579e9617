// The compact principal store against a std::map model.
//
// A seeded random walk over two realms registers principals, upserts whole
// records, rotates keys until rings hit kRingCap, erases, reserves, and
// copies and moves the database. After every step every read API must agree
// with the model — point lookups, kvno and kind, size, the sorted principal
// list, a ForEach that visits each entry exactly once — and the snapshot
// image must equal the one encoded from the model's entries in principal
// order. The pool mixes names that share their first eight bytes (the
// snapshot sort's prefix key) and names that differ only in instance or
// realm, so every tie-break of the sort is exercised.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/krb4/database.h"
#include "src/krb4/kdcstore.h"
#include "src/store/snapshot.h"

namespace {

using krb4::KdcDatabase;
using krb4::KeyVersion;
using krb4::Principal;
using krb4::PrincipalEntry;
using krb4::PrincipalKind;
using Model = std::map<Principal, PrincipalEntry>;

constexpr char kRealmA[] = "ATHENA.MIT.EDU";
constexpr char kRealmB[] = "LCS.MIT.EDU";

std::vector<Principal> Pool() {
  std::vector<Principal> pool;
  for (const char* realm : {kRealmA, kRealmB}) {
    for (int i = 0; i < 40; ++i) {
      pool.push_back(Principal::User(std::string("u").append(std::to_string(i)), realm));
    }
    for (int i = 0; i < 12; ++i) {
      // Equal first eight bytes; some differ only by length.
      pool.push_back(Principal::User("longname" + std::string(i % 4, 'x') + std::to_string(i / 4),
                                     realm));
      pool.push_back(Principal::Service("rcmd", "host" + std::to_string(i), realm));
    }
    pool.push_back(Principal::User("", realm));
    pool.push_back(Principal::Service("", "admin", realm));
    pool.push_back(Principal::User(std::string("nul\0byte", 8), realm));
    pool.push_back(krb4::TgsPrincipal(realm));
  }
  pool.push_back(Principal::Service("krbtgt", kRealmB, kRealmA));
  return pool;
}

bool SameEntry(const PrincipalEntry& a, const PrincipalEntry& b) {
  if (a.kind != b.kind || a.max_life != b.max_life || a.max_renew != b.max_renew ||
      a.keys.size() != b.keys.size()) {
    return false;
  }
  for (size_t i = 0; i < a.keys.size(); ++i) {
    if (a.keys[i].kvno != b.keys[i].kvno || a.keys[i].key != b.keys[i].key ||
        a.keys[i].not_after != b.keys[i].not_after) {
      return false;
    }
  }
  return true;
}

void ExpectAgrees(const KdcDatabase& db, const Model& model, const std::vector<Principal>& pool,
                  const std::string& where) {
  const krb4::PrincipalStore& store = db.store();
  ASSERT_EQ(store.size(), model.size()) << where;
  ASSERT_EQ(db.size(), model.size()) << where;

  std::vector<Principal> names;
  for (const auto& [principal, entry] : model) {
    names.push_back(principal);
  }
  ASSERT_EQ(store.Principals(), names) << where;

  std::map<Principal, int> visits;
  store.ForEach([&](const Principal& principal, const PrincipalEntry& entry) {
    auto it = model.find(principal);
    ASSERT_NE(it, model.end()) << where << ": ForEach visited " << principal.ToString();
    EXPECT_TRUE(SameEntry(entry, it->second)) << where << ": " << principal.ToString();
    ++visits[principal];
  });
  ASSERT_EQ(visits.size(), model.size()) << where;
  for (const auto& [principal, count] : visits) {
    EXPECT_EQ(count, 1) << where << ": " << principal.ToString();
  }

  for (const Principal& p : pool) {
    const auto it = model.find(p);
    const bool present = it != model.end();
    const std::string what = where + ": " + p.ToString();
    PrincipalEntry got;
    ASSERT_EQ(store.LookupEntry(p, &got), present) << what;
    kcrypto::DesKey key;
    PrincipalKind kind = PrincipalKind::kUser;
    ASSERT_EQ(store.Lookup(p, &key, &kind), present) << what;
    ASSERT_EQ(store.Contains(p), present) << what;
    ASSERT_EQ(db.Lookup(p).ok(), present) << what;
    ASSERT_EQ(db.LookupEntry(p).ok(), present) << what;
    EXPECT_EQ(db.Kvno(p), present ? it->second.kvno() : 0u) << what;
    EXPECT_EQ(db.Kind(p), present ? it->second.kind : PrincipalKind::kService) << what;
    if (present) {
      EXPECT_TRUE(SameEntry(got, it->second)) << what;
      EXPECT_TRUE(SameEntry(db.LookupEntry(p).value(), it->second)) << what;
      EXPECT_EQ(key.bytes(), it->second.keys.front().key) << what;
      EXPECT_EQ(kind, it->second.kind) << what;
      // The scheduled key encrypts as one built from the stored bytes.
      EXPECT_EQ(db.Lookup(p).value().EncryptBlock(0x0123456789abcdefull),
                kcrypto::DesKey(it->second.keys.front().key).EncryptBlock(0x0123456789abcdefull))
          << what;
    }
  }

  kstore::Snapshot want;
  want.lsn = 7;
  for (const auto& [principal, entry] : model) {
    want.Add(krb4::EncodePrincipalEntry(principal, entry));
  }
  EXPECT_EQ(kstore::EncodeSnapshot(krb4::SnapshotDatabase(db, 7)), kstore::EncodeSnapshot(want))
      << where;
}

// KdcDatabase::RotateKey's ring rule, restated: the new key on top, the
// outgoing one kept until retain_until, expired versions dropped, at most
// kRingCap versions.
void ModelRotate(PrincipalEntry& entry, const kcrypto::DesBlock& key, ksim::Time now,
                 ksim::Time retain_until) {
  entry.keys.front().not_after = retain_until;
  std::vector<KeyVersion> ring = {KeyVersion{entry.keys.front().kvno + 1, key, 0}};
  for (const KeyVersion& kv : entry.keys) {
    if (kv.not_after == 0 || now > kv.not_after) {
      continue;
    }
    if (ring.size() >= PrincipalEntry::kRingCap) {
      break;
    }
    ring.push_back(kv);
  }
  entry.keys = ring;
}

TEST(PrincipalStoreModelTest, EveryReadAgreesWithAMapModel) {
  const std::vector<Principal> pool = Pool();
  kcrypto::Prng prng(0x5707e);
  KdcDatabase db;
  Model model;
  ksim::Time now = ksim::kHour;
  size_t rotations_at_cap = 0;

  for (int step = 0; step < 4000; ++step) {
    const Principal& p = pool[prng.NextBelow(pool.size())];
    const std::string where = "step " + std::to_string(step);
    now += static_cast<ksim::Time>(prng.NextBelow(10)) * ksim::kMinute;
    switch (prng.NextBelow(10)) {
      case 0:
      case 1: {  // registration: a fresh ring at kvno 1
        const kcrypto::DesBlock key = prng.NextDesKeyBytes();
        const PrincipalKind kind =
            prng.NextBelow(2) == 0 ? PrincipalKind::kUser : PrincipalKind::kService;
        db.ApplyUpsert(p, key, kind);
        PrincipalEntry& entry = model[p];
        entry = PrincipalEntry{};
        entry.kind = kind;
        entry.keys.push_back(KeyVersion{1, key, 0});
        break;
      }
      case 2: {  // whole-record upsert, ring deeper than kRingCap allowed
        PrincipalEntry entry;
        entry.kind = prng.NextBelow(2) == 0 ? PrincipalKind::kUser : PrincipalKind::kService;
        entry.max_life = static_cast<ksim::Duration>(prng.NextBelow(9)) * ksim::kHour;
        entry.max_renew = static_cast<ksim::Duration>(prng.NextBelow(9)) * ksim::kHour;
        const size_t depth = prng.NextBelow(PrincipalEntry::kRingCap + 3);
        const auto top = static_cast<uint32_t>(depth + prng.NextBelow(20));
        for (size_t v = 0; v < depth; ++v) {
          entry.keys.push_back(KeyVersion{
              top - static_cast<uint32_t>(v), prng.NextDesKeyBytes(),
              v == 0 ? 0 : now + static_cast<ksim::Time>(prng.NextBelow(120)) * ksim::kMinute});
        }
        ASSERT_EQ(db.ApplyEntry(p, entry), depth > 0) << where;
        if (depth > 0) {
          model[p] = entry;
        }
        break;
      }
      case 3:
      case 4:
      case 5: {  // rotation: the ring fills to kRingCap and stays there
        const kcrypto::DesKey key = prng.NextDesKey();
        const ksim::Time retain_until =
            prng.NextBelow(8) == 0
                ? 0
                : now + static_cast<ksim::Time>(prng.NextBelow(4)) * ksim::kHour;
        auto kvno = db.RotateKey(p, key, now, retain_until);
        auto it = model.find(p);
        ASSERT_EQ(kvno.ok(), it != model.end()) << where;
        if (it != model.end()) {
          rotations_at_cap += it->second.keys.size() == PrincipalEntry::kRingCap ? 1 : 0;
          ModelRotate(it->second, key.bytes(), now, retain_until);
          EXPECT_EQ(kvno.value(), it->second.kvno()) << where;
        }
        break;
      }
      case 6:
      case 7: {
        ASSERT_EQ(db.Remove(p), model.erase(p) == 1) << where;
        break;
      }
      case 8: {
        db.Reserve(prng.NextBelow(4000));
        break;
      }
      default: {  // a copy is independent; a move carries everything over
        KdcDatabase copy(db);
        ExpectAgrees(copy, model, pool, where + " (copy)");
        copy.ApplyUpsert(p, prng.NextDesKeyBytes(), PrincipalKind::kUser);
        copy.Remove(pool[prng.NextBelow(pool.size())]);
        KdcDatabase moved(std::move(db));
        db = std::move(moved);
        break;
      }
    }
    ExpectAgrees(db, model, pool, where);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(model.size(), 0u);
  EXPECT_GT(rotations_at_cap, 0u) << "no rotation ran into kRingCap";
}

}  // namespace
