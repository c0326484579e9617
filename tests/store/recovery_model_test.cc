// Recovery-equivalence property test: snapshot + replayed WAL prefix must
// reconstruct exactly the in-memory database state at the recovered LSN.
//
// A random walk of journaled mutations (upserts, deletes, compactions) on
// a KdcDatabase backed by a faulty simulated disk, punctuated by crashes.
// After each crash + recovery the test rebuilds a database from the
// recovered durable state (base snapshot load + record replay) and
// independently rebuilds the model database by applying the logical
// operation history up to the recovered LSN. The two must agree principal
// for principal, key for key — the same model-vs-implementation discipline
// as tests/obs/cache_model_test.cc, pointed at the storage engine.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/krb4/database.h"
#include "src/krb4/kdcstore.h"
#include "src/store/kstore.h"

namespace {

using krb4::KdcDatabase;
using krb4::Principal;
using krb4::PrincipalKind;

struct LoggedOp {
  uint8_t op;
  Principal principal;
  kcrypto::DesKey key;
  PrincipalKind kind = PrincipalKind::kUser;
  // Key rotations ride the same WAL upsert records but are logically
  // distinct: the model must re-derive the ring (kvno bump, drain deadline
  // on the outgoing version, cap pruning) rather than overwrite it.
  bool rotate = false;
  ksim::Time now = 0;
  ksim::Time retain_until = 0;
};

// Applies history[0..upto) to a fresh database holding `initial`.
KdcDatabase ModelAt(const KdcDatabase& initial, const std::vector<LoggedOp>& history,
                    size_t upto) {
  KdcDatabase model = initial;  // copies entries only, never the journal
  for (size_t i = 0; i < upto; ++i) {
    const LoggedOp& op = history[i];
    if (op.rotate) {
      EXPECT_TRUE(model.RotateKey(op.principal, op.key, op.now, op.retain_until).ok());
    } else if (op.op == kstore::kWalOpUpsert) {
      model.ApplyUpsert(op.principal, op.key, op.kind);
    } else {
      model.Remove(op.principal);
    }
  }
  return model;
}

void ExpectSameDatabase(KdcDatabase& got, KdcDatabase& want, const char* what) {
  auto got_principals = got.Principals();
  auto want_principals = want.Principals();
  ASSERT_EQ(got_principals, want_principals) << what << ": entry sets differ";
  for (const Principal& principal : want_principals) {
    auto got_entry = got.LookupEntry(principal);
    auto want_entry = want.LookupEntry(principal);
    ASSERT_TRUE(got_entry.ok() && want_entry.ok());
    EXPECT_EQ(static_cast<int>(got_entry.value().kind),
              static_cast<int>(want_entry.value().kind))
        << what << ": kind differs for " << principal.ToString();
    EXPECT_EQ(got_entry.value().max_life, want_entry.value().max_life)
        << what << ": max_life differs for " << principal.ToString();
    EXPECT_EQ(got_entry.value().max_renew, want_entry.value().max_renew)
        << what << ": max_renew differs for " << principal.ToString();
    // The whole ring, version for version: a recovery that restored only
    // the current key would break every in-flight old-kvno ticket.
    ASSERT_EQ(got_entry.value().keys.size(), want_entry.value().keys.size())
        << what << ": ring depth differs for " << principal.ToString();
    for (size_t v = 0; v < want_entry.value().keys.size(); ++v) {
      EXPECT_EQ(got_entry.value().keys[v].kvno, want_entry.value().keys[v].kvno)
          << what << ": kvno[" << v << "] differs for " << principal.ToString();
      EXPECT_EQ(got_entry.value().keys[v].not_after, want_entry.value().keys[v].not_after)
          << what << ": not_after[" << v << "] differs for " << principal.ToString();
      EXPECT_EQ(got_entry.value().keys[v].key, want_entry.value().keys[v].key)
          << what << ": key[" << v << "] differs for " << principal.ToString();
    }
  }
}

TEST(RecoveryModelTest, SnapshotPlusWalPrefixEqualsModel) {
  kcrypto::Prng prng(0x57012e'01);
  kstore::KStoreOptions options;
  options.dev_faults = kstore::DevFaultPlan{/*lost_flush=*/0.25, /*torn_tail=*/0.5};

  // Pre-journal population — captured by the base snapshot at LSN 0.
  KdcDatabase db;
  for (int i = 0; i < 6; ++i) {
    db.AddUser(Principal::User("seed" + std::to_string(i), "R"), "pw" + std::to_string(i));
  }
  const KdcDatabase initial = db;

  kstore::KStore store(kcrypto::Prng(0xd15c), options, krb4::SnapshotDatabase(db, 0));
  db.AttachJournal(&store);

  std::vector<LoggedOp> history;  // history[i] holds the op journaled at LSN i+1
  int crashes = 0;
  int compactions = 0;
  int rotations = 0;
  ksim::Time now = 0;  // virtual clock for rotation drain deadlines

  auto random_principal = [&] {
    return Principal::User(std::string("u").append(std::to_string(prng.NextBelow(10))), "R");
  };

  for (int step = 0; step < 600; ++step) {
    now += static_cast<ksim::Time>(prng.NextBelow(60)) * ksim::kSecond;
    const uint64_t dice = prng.NextBelow(100);
    if (dice < 45) {
      LoggedOp op{kstore::kWalOpUpsert, random_principal(), prng.NextDesKey(),
                  prng.NextBelow(2) == 0 ? PrincipalKind::kUser : PrincipalKind::kService};
      db.ApplyUpsert(op.principal, op.key, op.kind);
      history.push_back(std::move(op));
    } else if (dice < 60) {
      // Rotation: one journaled upsert of the whole ring — kvno bump, drain
      // deadline on the outgoing version, cap pruning.
      LoggedOp op{kstore::kWalOpUpsert, random_principal(), prng.NextDesKey(),
                  PrincipalKind::kUser, /*rotate=*/true, now, now + 8 * ksim::kHour};
      if (db.Has(op.principal)) {
        ASSERT_TRUE(db.RotateKey(op.principal, op.key, op.now, op.retain_until).ok());
        history.push_back(std::move(op));
        ++rotations;
      }
    } else if (dice < 75) {
      Principal victim = random_principal();
      if (db.Has(victim)) {
        db.Remove(victim);
        history.push_back(LoggedOp{kstore::kWalOpDelete, std::move(victim), {}, {}});
      }
    } else if (dice < 85) {
      store.Compact(krb4::SnapshotDatabase(db, store.last_lsn()));
      ++compactions;
    } else {
      store.Crash();
      auto recovered = store.Recover();
      ASSERT_TRUE(recovered.ok()) << "step " << step << ": " << recovered.error().ToString();
      const uint64_t last = recovered.value().last_lsn;
      ASSERT_LE(last, history.size()) << "recovered past everything ever journaled";

      // Rebuild from durable state: base snapshot, then record replay.
      KdcDatabase rebuilt;
      ASSERT_TRUE(krb4::LoadSnapshotEntries(rebuilt, recovered.value().base).ok());
      for (const kstore::WalRecord& record : recovered.value().records) {
        ASSERT_TRUE(krb4::ApplyStoreRecord(rebuilt, record.op, record.payload).ok());
      }

      KdcDatabase model = ModelAt(initial, history, static_cast<size_t>(last));
      ExpectSameDatabase(rebuilt, model, "recovery");
      if (HasFatalFailure()) {
        return;
      }

      // "Restart": adopt the recovered state as the live database (the
      // copy assignment keeps the journal attachment) and forget the ops
      // the disk lost — they were never acknowledged as durable.
      db = rebuilt;
      history.resize(static_cast<size_t>(last));
      ++crashes;
    }
  }
  // The walk must actually have exercised the interesting transitions.
  EXPECT_GT(crashes, 10);
  EXPECT_GT(compactions, 10);
  EXPECT_GT(rotations, 10);
  EXPECT_GT(store.device().flushes_lost(), 0u);
  EXPECT_GT(store.device().tails_torn(), 0u);
}

TEST(RecoveryModelTest, HonestDiskLosesNothing) {
  // With no device faults every acknowledged op survives any crash point.
  kcrypto::Prng prng(0xbeef);
  KdcDatabase db;
  db.AddUser(Principal::User("root", "R"), "toor");
  const KdcDatabase initial = db;
  kstore::KStore store(kcrypto::Prng(3), {}, krb4::SnapshotDatabase(db, 0));
  db.AttachJournal(&store);

  std::vector<LoggedOp> history;
  for (int i = 0; i < 100; ++i) {
    LoggedOp op{kstore::kWalOpUpsert,
                Principal::User(std::string("u").append(std::to_string(i % 7)), "R"),
                prng.NextDesKey(), PrincipalKind::kUser};
    db.ApplyUpsert(op.principal, op.key, op.kind);
    history.push_back(std::move(op));
    if (i % 17 == 0) {
      store.Crash();
      auto recovered = store.Recover();
      ASSERT_TRUE(recovered.ok());
      ASSERT_EQ(recovered.value().last_lsn, history.size())
          << "an honest disk must lose no acknowledged append";
      ASSERT_EQ(recovered.value().discarded_bytes, 0u);
      KdcDatabase rebuilt;
      ASSERT_TRUE(krb4::LoadSnapshotEntries(rebuilt, recovered.value().base).ok());
      for (const kstore::WalRecord& record : recovered.value().records) {
        ASSERT_TRUE(krb4::ApplyStoreRecord(rebuilt, record.op, record.payload).ok());
      }
      KdcDatabase model = ModelAt(initial, history, history.size());
      ExpectSameDatabase(rebuilt, model, "honest-disk recovery");
    }
  }
}

}  // namespace
