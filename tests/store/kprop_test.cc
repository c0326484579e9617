// Authenticated incremental propagation (kprop) tests.
//
// Three layers of coverage:
//   * sink-level — hand-built frames against a PropagationSink: replay,
//     reorder, splice, tamper, and wrong-key frames must all bounce off
//     the MAC/version checks (the paper's network adversary, pointed at
//     the database-propagation channel);
//   * replica-set level — Testbed4/Testbed5 with slave KDCs: registrations
//     reach slaves only through Propagate(), wholesale fallback after
//     compaction, interruption leaves a slave at a consistent prefix,
//     lost acks converge on retry;
//   * determinism — the full propagation event stream folds into the kobs
//     digest identically across reruns.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/str2key.h"
#include "src/krb4/kdcstore.h"
#include "src/obs/kobs.h"
#include "src/store/kprop.h"

namespace {

using kerb::ErrorCode;
using krb4::Principal;

kcrypto::DesKey PropKey() { return kcrypto::StringToKey("kprop-test", "R"); }

std::vector<kstore::WalRecord> Records(uint64_t from_lsn, int count) {
  std::vector<kstore::WalRecord> records;
  for (int i = 0; i < count; ++i) {
    records.push_back(kstore::WalRecord{from_lsn + 1 + static_cast<uint64_t>(i),
                                        kstore::kWalOpUpsert,
                                        kerb::ToBytes("payload" + std::to_string(i))});
  }
  return records;
}

ksim::Message Frame(kerb::Bytes payload) {
  ksim::Message msg;
  msg.src = {0x0a000058, kstore::kPropPort};
  msg.dst = {0x0a000059, kstore::kPropPort};
  msg.payload = std::move(payload);
  return msg;
}

// A sink whose applier counts every applied record, so the tests can tell
// "idempotently ignored" apart from "silently re-applied".
struct CountingSink {
  uint64_t applies = 0;
  uint64_t loads = 0;
  uint64_t loaded_lsn = 0;
  kstore::PropagationSink sink;

  explicit CountingSink(uint64_t applied_lsn = 0)
      : sink(PropKey(), applied_lsn,
             [this](uint8_t, kerb::BytesView) {
               ++applies;
               return kerb::Status::Ok();
             },
             [this](const kstore::Snapshot& snapshot) {
               ++loads;
               loaded_lsn = snapshot.lsn;
               return kerb::Status::Ok();
             }) {}
};

TEST(PropSinkTest, AppliesInOrderAndAcksTheNewLsn) {
  CountingSink s;
  auto reply = s.sink.Handle(Frame(kstore::EncodeDeltaFrame(PropKey(), 0, 3, Records(0, 3))));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(s.applies, 3u);
  EXPECT_EQ(s.sink.applied_lsn(), 3u);
  auto ack = kstore::ParseAckFrame(PropKey(), reply.value());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value(), 3u);
}

TEST(PropSinkTest, ReplayedFrameIsIdempotentlyReAcked) {
  CountingSink s;
  const kerb::Bytes frame = kstore::EncodeDeltaFrame(PropKey(), 0, 2, Records(0, 2));
  ASSERT_TRUE(s.sink.Handle(Frame(frame)).ok());
  EXPECT_EQ(s.applies, 2u);

  // The adversary replays the transfer. Nothing is re-applied; the slave
  // re-acks its position so a primary that lost the first ack converges.
  auto reply = s.sink.Handle(Frame(frame));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(s.applies, 2u);
  EXPECT_EQ(s.sink.applied_lsn(), 2u);
  auto ack = kstore::ParseAckFrame(PropKey(), reply.value());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value(), 2u);
}

TEST(PropSinkTest, ReorderedOldDeltaCannotRollBack) {
  CountingSink s;
  const kerb::Bytes first = kstore::EncodeDeltaFrame(PropKey(), 0, 2, Records(0, 2));
  const kerb::Bytes second = kstore::EncodeDeltaFrame(PropKey(), 2, 4, Records(2, 2));
  ASSERT_TRUE(s.sink.Handle(Frame(first)).ok());
  ASSERT_TRUE(s.sink.Handle(Frame(second)).ok());
  ASSERT_TRUE(s.sink.Handle(Frame(first)).ok());  // late re-delivery
  EXPECT_EQ(s.applies, 4u);
  EXPECT_EQ(s.sink.applied_lsn(), 4u);
}

TEST(PropSinkTest, OverlappingDeltaAppliesOnlyTheUnseenSuffix) {
  CountingSink s;
  // A delayed (0,2] frame lands first; the primary, whose ack for it was
  // lost, re-sends from its older cursor as (0,4]. The overlap frame is
  // authentic and contiguous, so the slave applies just the unseen (2,4]
  // suffix and acks 4 — the lost-ack race self-heals instead of wedging
  // propagation in a permanent reject loop.
  ASSERT_TRUE(s.sink.Handle(Frame(kstore::EncodeDeltaFrame(PropKey(), 0, 2, Records(0, 2)))).ok());
  EXPECT_EQ(s.applies, 2u);
  auto reply = s.sink.Handle(Frame(kstore::EncodeDeltaFrame(PropKey(), 0, 4, Records(0, 4))));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(s.applies, 4u);  // records 3 and 4 once, 1 and 2 never again
  EXPECT_EQ(s.sink.applied_lsn(), 4u);
  auto ack = kstore::ParseAckFrame(PropKey(), reply.value());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value(), 4u);
}

TEST(PropSinkTest, SplicedGapIsARejectedReplay) {
  CountingSink s;
  // The adversary suppresses (0,2] and forwards only (2,4] — an interior
  // splice. The slave must refuse rather than apply records out of order.
  auto reply = s.sink.Handle(Frame(kstore::EncodeDeltaFrame(PropKey(), 2, 4, Records(2, 2))));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kReplay);
  EXPECT_EQ(s.applies, 0u);
  EXPECT_EQ(s.sink.applied_lsn(), 0u);
}

TEST(PropSinkTest, TamperedAndForgedFramesFailTheMac) {
  CountingSink s;
  kerb::Bytes frame = kstore::EncodeDeltaFrame(PropKey(), 0, 1, Records(0, 1));
  for (size_t i = 0; i < frame.size(); ++i) {
    kerb::Bytes bent = frame;
    bent[i] ^= 0x40;
    auto reply = s.sink.Handle(Frame(bent));
    ASSERT_FALSE(reply.ok()) << "bit flip at byte " << i << " accepted";
    EXPECT_EQ(reply.error().code, ErrorCode::kIntegrity) << "byte " << i;
  }
  // A frame sealed under the wrong key is a forgery, not a protocol error.
  kcrypto::DesKey wrong = kcrypto::StringToKey("not-the-kprop-key", "R");
  auto reply = s.sink.Handle(Frame(kstore::EncodeDeltaFrame(wrong, 0, 1, Records(0, 1))));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kIntegrity);
  EXPECT_EQ(s.applies, 0u);
}

TEST(PropSinkTest, StaleWholesaleSnapshotCannotRollBack) {
  CountingSink s(/*applied_lsn=*/10);
  kstore::Snapshot old_snapshot;
  old_snapshot.lsn = 4;
  old_snapshot.Add(kerb::ToBytes("ancient"));
  auto reply = s.sink.Handle(
      Frame(kstore::EncodeWholesaleFrame(PropKey(), kstore::EncodeSnapshot(old_snapshot))));
  ASSERT_TRUE(reply.ok());  // acked, so the primary learns the real position
  EXPECT_EQ(s.loads, 0u);
  auto ack = kstore::ParseAckFrame(PropKey(), reply.value());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value(), 10u);

  kstore::Snapshot fresh = old_snapshot;
  fresh.lsn = 11;
  ASSERT_TRUE(
      s.sink.Handle(Frame(kstore::EncodeWholesaleFrame(PropKey(), kstore::EncodeSnapshot(fresh))))
          .ok());
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.loaded_lsn, 11u);
  EXPECT_EQ(s.sink.applied_lsn(), 11u);
}

// --- Replica-set level ------------------------------------------------------

TEST(PropReplicaTest, RegistrationsReachSlavesOnlyThroughPropagation) {
  kattack::TestbedConfig config;
  config.kdc_slaves = 2;
  kattack::Testbed4 tb(config);

  const Principal carol = Principal::User("carol", tb.realm);
  tb.kdc().database().AddUser(carol, "carols-password");
  EXPECT_TRUE(tb.kdc().database().Has(carol));
  EXPECT_FALSE(tb.kdc_replicas().slave(0).database().Has(carol));
  EXPECT_FALSE(tb.kdc_replicas().slave(1).database().Has(carol));

  tb.kdc_replicas().Propagate();

  const auto& report = tb.kdc_replicas().propagation()->last_report();
  EXPECT_TRUE(report.slaves_converged);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.records_shipped, 2u);  // one record to each of two slaves
  EXPECT_EQ(report.wholesale_transfers, 0u);
  for (int i = 0; i < 2; ++i) {
    auto& slave_db = tb.kdc_replicas().slave(i).database();
    ASSERT_TRUE(slave_db.Has(carol)) << "slave " << i;
    EXPECT_EQ(slave_db.Lookup(carol).value().bytes(),
              tb.kdc().database().Lookup(carol).value().bytes());
  }
}

TEST(PropReplicaTest, DeletionsPropagateToo) {
  kattack::TestbedConfig config;
  config.kdc_slaves = 1;
  kattack::Testbed4 tb(config);

  const Principal bob = tb.bob_principal();
  ASSERT_TRUE(tb.kdc().database().Remove(bob));
  ASSERT_TRUE(tb.kdc_replicas().slave(0).database().Has(bob));  // not yet shipped
  tb.kdc_replicas().Propagate();
  EXPECT_FALSE(tb.kdc_replicas().slave(0).database().Has(bob));
  EXPECT_EQ(tb.kdc_replicas().slave(0).database().size(), tb.kdc().database().size());
}

TEST(PropReplicaTest, CompactionForcesWholesaleAndConverges) {
  kattack::TestbedConfig config;
  config.kdc_slaves = 1;
  config.extra_users = 20;
  kattack::Testbed4 tb(config);
  auto* prop = tb.kdc_replicas().propagation();

  // The slave converges at LSN 1, then the primary registers another user
  // and compacts: the delta the slave needs is now behind the horizon.
  tb.kdc().database().AddUser(Principal::User("carol", tb.realm), "pw-carol");
  tb.kdc_replicas().Propagate();
  ASSERT_TRUE(prop->last_report().slaves_converged);

  tb.kdc().database().AddUser(Principal::User("dave", tb.realm), "pw-dave");
  prop->Compact();
  tb.kdc_replicas().Propagate();

  const auto& report = prop->last_report();
  EXPECT_TRUE(report.slaves_converged);
  EXPECT_EQ(report.wholesale_transfers, 1u);
  EXPECT_EQ(report.records_shipped, 0u);
  auto& slave_db = tb.kdc_replicas().slave(0).database();
  EXPECT_TRUE(slave_db.Has(Principal::User("dave", tb.realm)));
  EXPECT_EQ(slave_db.size(), tb.kdc().database().size());
  EXPECT_EQ(slave_db.Principals(), tb.kdc().database().Principals());
}

TEST(PropReplicaTest, DeltaIsStrictlySmallerThanWholesaleForSmallChanges) {
  kattack::TestbedConfig config;
  config.kdc_slaves = 1;
  config.extra_users = 30;
  kattack::Testbed4 tb(config);
  auto* prop = tb.kdc_replicas().propagation();

  // One-user delta...
  tb.kdc().database().AddUser(Principal::User("carol", tb.realm), "pw-carol");
  tb.kdc_replicas().Propagate();
  const uint64_t delta_bytes = prop->last_report().bytes_sent;
  ASSERT_TRUE(prop->last_report().slaves_converged);

  // ...versus a wholesale transfer of the (mostly unchanged) database.
  tb.kdc().database().AddUser(Principal::User("dave", tb.realm), "pw-dave");
  prop->Compact();
  tb.kdc_replicas().Propagate();
  const uint64_t wholesale_bytes = prop->last_report().wholesale_bytes;

  ASSERT_GT(delta_bytes, 0u);
  ASSERT_GT(wholesale_bytes, 0u);
  EXPECT_LT(delta_bytes * 10, wholesale_bytes)
      << "incremental propagation should beat wholesale by an order of "
         "magnitude on a 30-user database (delta="
      << delta_bytes << " wholesale=" << wholesale_bytes << ")";
}

TEST(PropReplicaTest, DroppedFramesLeavePrefixThenRetryConverges) {
  kattack::TestbedConfig config;
  config.kdc_slaves = 1;
  config.faults = ksim::FaultPlan{};
  kattack::Testbed4 tb(config);
  const uint32_t slave_host = kattack::Testbed4::kAsAddr.host + 1;
  auto& slave_db = tb.kdc_replicas().slave(0).database();

  std::vector<Principal> added;
  for (int i = 0; i < 10; ++i) {
    Principal p = Principal::User("prefix-user" + std::to_string(i), tb.realm);
    tb.kdc().database().AddUser(p, "pw" + std::to_string(i));
    added.push_back(p);
  }

  // Half the requests to the slave vanish: the cycle is interrupted at a
  // chunk boundary. Whatever happened, the slave must hold a PREFIX of the
  // registration history — never user k without every user before k.
  tb.world().faults()->plan().per_host[slave_host].drop_request = 0.5;
  tb.kdc_replicas().Propagate();
  size_t prefix = 0;
  while (prefix < added.size() && slave_db.Has(added[prefix])) {
    ++prefix;
  }
  for (size_t i = prefix; i < added.size(); ++i) {
    EXPECT_FALSE(slave_db.Has(added[i]))
        << "slave holds user " << i << " but is missing user " << prefix
        << " — not a prefix of the history";
  }
  EXPECT_LT(prefix, added.size()) << "with 50% request drop some frame should have failed";
  EXPECT_GT(tb.kdc_replicas().propagation()->last_report().failures, 0u);

  // Faults clear; the next cycle resumes from the acknowledged prefix.
  tb.world().faults()->plan().per_host[slave_host].drop_request = 0;
  tb.kdc_replicas().Propagate();
  EXPECT_TRUE(tb.kdc_replicas().propagation()->last_report().slaves_converged);
  for (const Principal& p : added) {
    EXPECT_TRUE(slave_db.Has(p));
  }
}

TEST(PropReplicaTest, LostAcksConvergeOnRetryWithoutDoubleApply) {
  kattack::TestbedConfig config;
  config.kdc_slaves = 1;
  config.faults = ksim::FaultPlan{};
  kattack::Testbed4 tb(config);
  const uint32_t slave_host = kattack::Testbed4::kAsAddr.host + 1;
  auto& slave_db = tb.kdc_replicas().slave(0).database();

  const Principal carol = Principal::User("carol", tb.realm);
  tb.kdc().database().AddUser(carol, "pw-carol");

  // The slave applies the delta but its ack never arrives: from the
  // primary's side the cycle failed.
  tb.world().faults()->plan().per_host[slave_host].drop_reply = 1.0;
  tb.kdc_replicas().Propagate();
  EXPECT_GT(tb.kdc_replicas().propagation()->last_report().failures, 0u);
  EXPECT_FALSE(tb.kdc_replicas().propagation()->last_report().slaves_converged);
  EXPECT_TRUE(slave_db.Has(carol));  // the delta itself did land

  // On retry the slave sees a stale re-send, re-acks idempotently, and the
  // primary catches up to reality.
  tb.world().faults()->plan().per_host[slave_host].drop_reply = 0;
  tb.kdc_replicas().Propagate();
  const auto& report = tb.kdc_replicas().propagation()->last_report();
  EXPECT_TRUE(report.slaves_converged);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(slave_db.Lookup(carol).value().bytes(),
            tb.kdc().database().Lookup(carol).value().bytes());
}

TEST(PropReplicaTest, Krb5ReplicaSetPropagatesTheSameWay) {
  kattack::Testbed5Config config;
  config.kdc_slaves = 2;
  kattack::Testbed5 tb(config);

  const Principal carol = Principal::User("carol", tb.realm);
  tb.kdc().database().AddUser(carol, "carols-password");
  EXPECT_FALSE(tb.kdc_replicas().slave(0).database().Has(carol));

  tb.kdc_replicas().Propagate();

  const auto& report = tb.kdc_replicas().propagation()->last_report();
  EXPECT_TRUE(report.slaves_converged);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(tb.kdc_replicas().slave(i).database().Has(carol)) << "slave " << i;
  }
}

TEST(PropReplicaTest, ZeroSlaveSetsBuildNoPropagationMachinery) {
  kattack::Testbed4 tb4;
  EXPECT_EQ(tb4.kdc_replicas().propagation(), nullptr);
  kattack::Testbed5 tb5;
  EXPECT_EQ(tb5.kdc_replicas().propagation(), nullptr);
}

// --- Frame memo -------------------------------------------------------------

// A primary feed over a bare KStore and network, and replicas whose sinks
// keep every payload they apply. The network tap keeps every frame sent.
struct FeedBed {
  struct Replica {
    uint32_t host = 0;
    uint64_t acked = 0;
    std::vector<std::string> applied;
    std::unique_ptr<kstore::PropagationSink> sink;
  };

  explicit FeedBed(kstore::DevFaultPlan plan = {})
      : store(kcrypto::Prng(0x5eed), kstore::KStoreOptions{plan}, kstore::Snapshot{}),
        feed(&net, &store, PropKey(), {0x0a000001, kstore::kPropPort}, /*records_per_frame=*/4) {
    net.SetAdversary(&tap);
  }

  Replica& AddReplica(uint32_t host) {
    auto replica = std::make_unique<Replica>();
    replica->host = host;
    Replica* r = replica.get();
    r->sink = std::make_unique<kstore::PropagationSink>(
        PropKey(), 0,
        [r](uint8_t, kerb::BytesView payload) {
          r->applied.push_back(kerb::ToString(payload));
          return kerb::Status::Ok();
        },
        [](const kstore::Snapshot&) { return kerb::Status::Ok(); });
    net.Bind({host, kstore::kPropPort},
             [r](const ksim::Message& msg) { return r->sink->Handle(msg); });
    replicas.push_back(std::move(replica));
    return *r;
  }

  void Append(const std::string& payload) {
    store.Append(kstore::kWalOpUpsert, kerb::ToBytes(payload));
  }

  // Catches `r` up; returns the delta frames it was sent.
  std::vector<kerb::Bytes> CatchUp(Replica& r, kstore::Propagator::CycleReport& report) {
    const size_t before = tap.exchanges().size();
    EXPECT_TRUE(feed.CatchUp(r.host, &r.acked, /*wholesale=*/false,
                             [](uint64_t) { return kstore::Snapshot{}; }, report));
    std::vector<kerb::Bytes> frames;
    for (size_t i = before; i < tap.exchanges().size(); ++i) {
      frames.push_back(tap.exchanges()[i].request.payload);
    }
    return frames;
  }

  ksim::SimClock clock;
  ksim::Network net{&clock};
  ksim::RecordingAdversary tap;
  kstore::KStore store;
  kstore::Propagator feed;
  std::vector<std::unique_ptr<Replica>> replicas;
};

TEST(PropFrameMemoTest, ReplicasAtOneWindowGetOneSealedFrame) {
  FeedBed bed;
  for (int i = 0; i < 3; ++i) {
    bed.Append("rec" + std::to_string(i));
  }
  kstore::Propagator::CycleReport report;
  std::vector<kerb::Bytes> first;
  for (uint32_t host = 10; host < 14; ++host) {
    std::vector<kerb::Bytes> frames = bed.CatchUp(bed.AddReplica(host), report);
    ASSERT_EQ(frames.size(), 1u);
    if (first.empty()) {
      first = frames;
    }
    EXPECT_EQ(frames, first) << "replica " << host << " got different bytes";
  }
  EXPECT_EQ(report.deltas_sealed, 1u) << "four replicas at (0, 3] need one seal";
  for (const auto& r : bed.replicas) {
    EXPECT_EQ(r->applied, (std::vector<std::string>{"rec0", "rec1", "rec2"}));
  }
}

TEST(PropFrameMemoTest, ADifferentWindowReseals) {
  FeedBed bed;
  FeedBed::Replica& a = bed.AddReplica(10);
  FeedBed::Replica& b = bed.AddReplica(11);
  bed.Append("rec0");
  kstore::Propagator::CycleReport report;
  bed.CatchUp(a, report);
  bed.Append("rec1");
  bed.Append("rec2");
  // b starts at 0: (0, 3]; a starts at 1: (1, 3]. Two windows, two seals.
  const std::vector<kerb::Bytes> to_b = bed.CatchUp(b, report);
  const std::vector<kerb::Bytes> to_a = bed.CatchUp(a, report);
  ASSERT_EQ(to_a.size(), 1u);
  ASSERT_EQ(to_b.size(), 1u);
  EXPECT_NE(to_a, to_b);
  EXPECT_EQ(report.deltas_sealed, 3u);
  EXPECT_EQ(a.applied, (std::vector<std::string>{"rec0", "rec1", "rec2"}));
  EXPECT_EQ(b.applied, (std::vector<std::string>{"rec0", "rec1", "rec2"}));
}

TEST(PropFrameMemoTest, CompactionReseals) {
  FeedBed bed;
  FeedBed::Replica& a = bed.AddReplica(10);
  FeedBed::Replica& b = bed.AddReplica(11);
  bed.Append("rec0");
  kstore::Propagator::CycleReport report;
  bed.CatchUp(a, report);
  bed.CatchUp(b, report);
  ASSERT_EQ(report.deltas_sealed, 1u);
  kstore::Snapshot snapshot;
  snapshot.lsn = bed.store.last_lsn();
  bed.store.Compact(snapshot);
  bed.Append("rec1");
  bed.CatchUp(a, report);
  bed.CatchUp(b, report);
  EXPECT_EQ(report.deltas_sealed, 2u);
  EXPECT_EQ(b.applied, (std::vector<std::string>{"rec0", "rec1"}));
}

// A crash loses the primary's unflushed record, and the recovered primary
// journals a different record under the same LSN. The replica still at the
// old position must get the new record: a frame memo kept across Recover
// would hand it the lost one.
TEST(PropFrameMemoTest, RecoveryThatReusesAnLsnReseals) {
  FeedBed bed;
  FeedBed::Replica& a = bed.AddReplica(10);
  FeedBed::Replica& b = bed.AddReplica(11);
  bed.Append("durable");
  kstore::Propagator::CycleReport report;
  bed.CatchUp(a, report);
  bed.CatchUp(b, report);

  bed.store.device().plan().lost_flush = 1.0;
  bed.Append("lost-in-crash");
  const std::vector<kerb::Bytes> to_a = bed.CatchUp(a, report);
  bed.store.Crash();
  bed.store.device().plan().lost_flush = 0;
  auto recovered = bed.store.Recover();
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered.value().last_lsn, 1u);
  bed.Append("journaled-after-recovery");
  ASSERT_EQ(bed.store.last_lsn(), 2u);

  const std::vector<kerb::Bytes> to_b = bed.CatchUp(b, report);
  EXPECT_NE(to_a, to_b) << "the window (1, 2] names a different record after recovery";
  EXPECT_EQ(report.deltas_sealed, 3u);
  EXPECT_EQ(a.applied, (std::vector<std::string>{"durable", "lost-in-crash"}));
  EXPECT_EQ(b.applied, (std::vector<std::string>{"durable", "journaled-after-recovery"}));
}

// --- Determinism ------------------------------------------------------------

TEST(PropObsTest, PropagationDigestIsRerunStable) {
  auto run = [] {
    kobs::ScopedTrace trace;
    kattack::TestbedConfig config;
    config.kdc_slaves = 2;
    config.extra_users = 5;
    kattack::Testbed4 tb(config);
    tb.kdc().database().AddUser(Principal::User("carol", tb.realm), "pw-carol");
    tb.kdc_replicas().Propagate();
    tb.kdc().database().Remove(Principal::User("carol", tb.realm));
    tb.kdc_replicas().propagation()->Compact();
    tb.kdc_replicas().Propagate();
    return trace->digest();
  };
  const uint64_t first = run();
  const uint64_t second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 0xcbf29ce484222325ull) << "trace saw no digest-stable events";
}

}  // namespace
