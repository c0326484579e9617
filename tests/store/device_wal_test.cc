// The simulated device, the WAL codec, and the KStore engine — durability
// semantics under honest operation, injected storage faults, and crashes.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/store/blockdev.h"
#include "src/store/kstore.h"
#include "src/store/snapshot.h"
#include "src/store/wal.h"

namespace {

kerb::Bytes B(std::string_view s) { return kerb::ToBytes(s); }

// --- SimDevice --------------------------------------------------------------

TEST(SimDeviceTest, AppendIsVolatileUntilFlushed) {
  kstore::SimDevice dev;
  dev.Append("f", B("hello"));
  EXPECT_EQ(dev.size("f"), 5u);
  EXPECT_EQ(dev.durable_size("f"), 0u);
  dev.Crash();
  EXPECT_EQ(dev.size("f"), 0u) << "unflushed tail must not survive power loss";

  dev.Append("f", B("hello"));
  dev.Flush("f");
  EXPECT_EQ(dev.durable_size("f"), 5u);
  dev.Crash();
  EXPECT_EQ(dev.ReadAll("f"), B("hello"));
}

TEST(SimDeviceTest, WriteAtomicIsAllOrNothing) {
  kstore::SimDevice dev;
  dev.Append("f", B("old"));
  dev.Flush("f");

  // Staged but not flushed: readers see the new content, a crash reverts.
  dev.WriteAtomic("f", B("replacement"));
  EXPECT_EQ(dev.ReadAll("f"), B("replacement"));
  dev.Crash();
  EXPECT_EQ(dev.ReadAll("f"), B("old")) << "unflushed rename must revert wholesale";

  dev.WriteAtomic("f", B("replacement"));
  dev.Flush("f");
  dev.Crash();
  EXPECT_EQ(dev.ReadAll("f"), B("replacement"));
}

TEST(SimDeviceTest, LostFlushLeavesBytesVolatile) {
  kstore::SimDevice dev(kcrypto::Prng(7), kstore::DevFaultPlan{/*lost_flush=*/1.0, 0});
  dev.Append("f", B("doomed"));
  dev.Flush("f");
  EXPECT_EQ(dev.flushes_lost(), 1u);
  EXPECT_EQ(dev.durable_size("f"), 0u) << "a lost flush hardened nothing";
  dev.Crash();
  EXPECT_EQ(dev.size("f"), 0u);
}

TEST(SimDeviceTest, TornTailPersistsAPrefix) {
  kstore::SimDevice dev(kcrypto::Prng(7), kstore::DevFaultPlan{0, /*torn_tail=*/1.0});
  const kerb::Bytes tail = B("0123456789abcdef");
  dev.Append("f", tail);
  dev.Crash();
  EXPECT_EQ(dev.tails_torn(), 1u);
  const kerb::Bytes after = dev.ReadAll("f");
  ASSERT_LT(after.size(), tail.size());
  EXPECT_TRUE(std::equal(after.begin(), after.end(), tail.begin()))
      << "a torn write may keep only a prefix of the tail";
}

TEST(SimDeviceTest, OpDigestIsDeterministicAndHistorySensitive) {
  auto run = [](bool extra) {
    kstore::SimDevice dev(kcrypto::Prng(99), kstore::DevFaultPlan{0.5, 0.5});
    dev.Append("wal", B("abc"));
    dev.Flush("wal");
    dev.WriteAtomic("snap", B("s1"));
    dev.Flush("snap");
    if (extra) {
      dev.Append("wal", B("d"));
    }
    dev.Crash();
    return dev.op_digest();
  };
  EXPECT_EQ(run(false), run(false)) << "same seed + same ops must replay identically";
  EXPECT_NE(run(false), run(true));
}

// --- WAL framing ------------------------------------------------------------

TEST(WalTest, FrameRoundTrips) {
  kstore::WalRecord record{42, kstore::kWalOpUpsert, B("payload-bytes")};
  kerb::Bytes frame = kstore::EncodeWalFrame(record);
  kenc::Reader r(frame);
  auto parsed = kstore::ParseWalFrame(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(parsed.value().lsn, 42u);
  EXPECT_EQ(parsed.value().op, kstore::kWalOpUpsert);
  EXPECT_EQ(parsed.value().payload, B("payload-bytes"));
}

TEST(WalTest, EveryTruncationAndBitFlipFailsClosed) {
  kerb::Bytes frame =
      kstore::EncodeWalFrame(kstore::WalRecord{7, kstore::kWalOpDelete, B("victim")});
  for (size_t len = 0; len < frame.size(); ++len) {
    kerb::Bytes cut(frame.begin(), frame.begin() + len);
    kenc::Reader r(cut);
    auto parsed = kstore::ParseWalFrame(r);
    ASSERT_FALSE(parsed.ok()) << "truncation to " << len;
    EXPECT_NE(parsed.error().code, kerb::ErrorCode::kInternal);
  }
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    kerb::Bytes flipped = frame;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    kenc::Reader r(flipped);
    auto parsed = kstore::ParseWalFrame(r);
    // A flip confined to the payload-length byte could in principle still
    // frame validly, but the CRC covers the whole body, so every flip that
    // parses must have been caught — i.e. none may parse.
    ASSERT_FALSE(parsed.ok() && r.AtEnd() && parsed.value().payload == B("victim") &&
                 parsed.value().lsn == 7)
        << "bit " << bit << " flip went unnoticed";
  }
}

TEST(WalTest, ScanToleratesTornTailOnly) {
  kerb::Bytes image;
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    kerb::Append(image,
                 kstore::EncodeWalFrame({lsn, kstore::kWalOpUpsert,
                                         B(std::string("r").append(std::to_string(lsn)))}));
  }
  const size_t intact = image.size();
  // A torn 4th frame: only half of it made the platter.
  kerb::Bytes torn = kstore::EncodeWalFrame({4, kstore::kWalOpUpsert, B("torn")});
  torn.resize(torn.size() / 2);
  kerb::Append(image, torn);

  auto scan = kstore::ScanWal(image);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().records.size(), 3u);
  EXPECT_EQ(scan.value().valid_bytes, intact);
  EXPECT_EQ(scan.value().discarded_bytes, torn.size());
}

TEST(WalTest, ScanRejectsInteriorLsnGap) {
  kerb::Bytes image;
  kerb::Append(image, kstore::EncodeWalFrame({1, kstore::kWalOpUpsert, B("a")}));
  kerb::Append(image, kstore::EncodeWalFrame({3, kstore::kWalOpUpsert, B("spliced")}));
  auto scan = kstore::ScanWal(image);
  ASSERT_FALSE(scan.ok()) << "a CRC-valid gap means splicing, not a crash";
  EXPECT_EQ(scan.error().code, kerb::ErrorCode::kBadFormat);
}

// --- Snapshot codec ---------------------------------------------------------

std::vector<kerb::Bytes> Entries(const kstore::Snapshot& snapshot) {
  std::vector<kerb::Bytes> out;
  snapshot.ForEachEntry(
      [&](kerb::BytesView entry) { out.emplace_back(entry.begin(), entry.end()); });
  return out;
}

TEST(SnapshotTest, RoundTripsAndFailsClosed) {
  const std::vector<kerb::Bytes> entries = {B("alpha"), B(""), B("gamma")};
  kstore::Snapshot snapshot;
  snapshot.lsn = 17;
  for (const kerb::Bytes& entry : entries) {
    snapshot.Add(entry);
  }
  kerb::Bytes image = kstore::EncodeSnapshot(snapshot);

  auto decoded = kstore::DecodeSnapshot(image);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().lsn, 17u);
  EXPECT_EQ(Entries(decoded.value()), entries);

  for (size_t len = 0; len < image.size(); ++len) {
    kerb::Bytes cut(image.begin(), image.begin() + len);
    auto bad = kstore::DecodeSnapshot(cut);
    ASSERT_FALSE(bad.ok()) << "truncation to " << len;
    EXPECT_EQ(bad.error().code, kerb::ErrorCode::kBadFormat);
  }
  for (size_t i = 0; i < image.size(); ++i) {
    kerb::Bytes flipped = image;
    flipped[i] ^= 0x40;
    EXPECT_FALSE(kstore::DecodeSnapshot(flipped).ok()) << "byte " << i;
  }
}

// --- KStore engine ----------------------------------------------------------

kstore::Snapshot EmptyBase() { return kstore::Snapshot{}; }

TEST(KStoreTest, AppendRecoverRoundTrip) {
  kstore::KStore store(kcrypto::Prng(1), {}, EmptyBase());
  EXPECT_EQ(store.Append(kstore::kWalOpUpsert, B("one")), 1u);
  EXPECT_EQ(store.Append(kstore::kWalOpDelete, B("two")), 2u);
  EXPECT_EQ(store.Append(kstore::kWalOpUpsert, B("three")), 3u);

  store.Crash();  // every append flushed, so nothing is lost
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().last_lsn, 3u);
  ASSERT_EQ(recovered.value().records.size(), 3u);
  EXPECT_EQ(recovered.value().records[1].op, kstore::kWalOpDelete);
  EXPECT_EQ(recovered.value().records[2].payload, B("three"));
  EXPECT_EQ(recovered.value().discarded_bytes, 0u);

  // Appends resume exactly after the recovered position.
  EXPECT_EQ(store.Append(kstore::kWalOpUpsert, B("four")), 4u);
}

TEST(KStoreTest, LostFlushesShortenTheRecoveredPrefixConsistently) {
  kstore::KStoreOptions options;
  options.dev_faults = kstore::DevFaultPlan{/*lost_flush=*/0.4, /*torn_tail=*/0.5};
  kstore::KStore store(kcrypto::Prng(0xabcdef), options, EmptyBase());
  constexpr uint64_t kAppends = 40;
  for (uint64_t i = 1; i <= kAppends; ++i) {
    store.Append(kstore::kWalOpUpsert, B("record-" + std::to_string(i)));
  }
  store.Crash();
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok()) << "faulty-disk recovery must still parse cleanly";
  const uint64_t last = recovered.value().last_lsn;
  EXPECT_LE(last, kAppends);
  // Whatever survived is an exact LSN-contiguous prefix with intact payloads.
  for (size_t i = 0; i < recovered.value().records.size(); ++i) {
    EXPECT_EQ(recovered.value().records[i].lsn, i + 1);
    EXPECT_EQ(recovered.value().records[i].payload,
              B("record-" + std::to_string(i + 1)));
  }
}

TEST(KStoreTest, CompactionBoundsDeltaHistory) {
  kstore::KStore store(kcrypto::Prng(1), {}, EmptyBase());
  store.Append(kstore::kWalOpUpsert, B("a"));
  store.Append(kstore::kWalOpUpsert, B("b"));

  std::span<const kstore::WalRecord> delta;
  ASSERT_TRUE(store.Delta(0, &delta));
  EXPECT_EQ(delta.size(), 2u);

  kstore::Snapshot snapshot;
  snapshot.lsn = store.last_lsn();
  snapshot.Add(B("a"));
  snapshot.Add(B("b"));
  store.Compact(snapshot);
  EXPECT_EQ(store.snapshot_lsn(), 2u);

  EXPECT_FALSE(store.Delta(0, &delta)) << "pre-snapshot history is compacted away";
  ASSERT_TRUE(store.Delta(2, &delta));
  EXPECT_TRUE(delta.empty());

  store.Append(kstore::kWalOpUpsert, B("c"));
  ASSERT_TRUE(store.Delta(2, &delta));
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].lsn, 3u);

  // Crash + recover lands on the snapshot plus the post-compaction suffix.
  store.Crash();
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().base.lsn, 2u);
  EXPECT_EQ(recovered.value().base.size(), 2u);
  ASSERT_EQ(recovered.value().records.size(), 1u);
  EXPECT_EQ(recovered.value().records[0].lsn, 3u);
}

// Delta finds the suffix by position in the in-memory log. At every
// from_lsn, from 0 to past the end, it must return exactly what a full scan
// of the records journaled since the last compaction returns — after
// appends and cluster marks, a compaction, and a crash and recovery.
TEST(KStoreTest, DeltaMatchesAFullScanAtEveryLsn) {
  kstore::KStore store(kcrypto::Prng(9), {}, EmptyBase());
  std::vector<kstore::WalRecord> journal;  // every record since the base
  auto append = [&](int i) {
    kstore::WalRecord record;
    record.op = i % 3 == 2 ? kstore::kWalOpClusterMark
                           : (i % 4 == 3 ? kstore::kWalOpDelete : kstore::kWalOpUpsert);
    record.payload = B(std::string("r").append(std::to_string(i)));
    record.lsn = store.Append(record.op, record.payload);
    journal.push_back(record);
  };
  auto check = [&](const std::string& stage) {
    for (uint64_t from = 0; from <= store.last_lsn() + 2; ++from) {
      std::vector<kstore::WalRecord> want;
      for (const kstore::WalRecord& record : journal) {
        if (record.lsn > from) {
          want.push_back(record);
        }
      }
      std::span<const kstore::WalRecord> got(journal);  // Delta empties what it is given
      const bool ok = store.Delta(from, &got);
      ASSERT_EQ(ok, from >= store.snapshot_lsn()) << stage << ", from " << from;
      if (!ok) {
        EXPECT_TRUE(got.empty()) << stage << ", from " << from;
        continue;
      }
      ASSERT_EQ(got.size(), want.size()) << stage << ", from " << from;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].lsn, want[i].lsn) << stage << ", from " << from;
        EXPECT_EQ(got[i].op, want[i].op) << stage << ", from " << from;
        EXPECT_EQ(got[i].payload, want[i].payload) << stage << ", from " << from;
      }
    }
  };

  int next = 0;
  for (; next < 7; ++next) {
    append(next);
  }
  check("appends");

  kstore::Snapshot snapshot;
  snapshot.lsn = store.last_lsn();
  store.Compact(snapshot);
  journal.clear();
  check("compacted");
  for (; next < 13; ++next) {
    append(next);
  }
  check("appends after compaction");

  store.Crash();
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().records.size(), journal.size());
  journal = recovered.value().records;
  check("recovered");
  for (; next < 17; ++next) {
    append(next);
  }
  check("appends after recovery");
}

TEST(KStoreTest, RecoveryIsIdempotent) {
  kstore::KStore store(kcrypto::Prng(5), {}, EmptyBase());
  for (int i = 0; i < 5; ++i) {
    store.Append(kstore::kWalOpUpsert, B(std::string("x").append(std::to_string(i))));
  }
  store.Crash();
  auto first = store.Recover();
  auto second = store.Recover();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().last_lsn, second.value().last_lsn);
  EXPECT_EQ(first.value().records.size(), second.value().records.size());
}

}  // namespace
