// Malformed-input robustness: truncated, bit-flipped, and garbage bytes
// against every decoder and live KDC/app-server network path.
//
// The contract under test is narrow but absolute: hostile bytes may be
// rejected with any honest protocol error (kBadFormat, kIntegrity,
// kAuthFailed, ...), but must never crash a handler and never surface
// kInternal — an invariant breach — no matter where they are cut or which
// bits are flipped. Run with KERB_SANITIZE=address for the memory-safety
// half of the claim; the assertions here cover the fail-closed half.

#include <gtest/gtest.h>

#include <vector>

#include "src/admin/kadmin.h"
#include "src/admin/messages.h"
#include "src/attacks/kdcload.h"
#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/cluster/router.h"
#include "src/cluster/wire.h"
#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/crypto/checksum.h"
#include "src/crypto/dh.h"
#include "src/crypto/prng.h"
#include "src/crypto/str2key.h"
#include "src/encoding/io.h"
#include "src/encoding/tlv.h"
#include "src/krb4/messages.h"
#include "src/krb4/kdcstore.h"
#include "src/store/kprop.h"
#include "src/store/snapshot.h"
#include "src/store/wal.h"

namespace {

using kattack::Testbed4;
using kattack::Testbed5;

// Any honest rejection is fine; kInternal is an invariant breach, and
// kTransport would mean the harness hit an unbound address.
void ExpectCleanFailure(kerb::ErrorCode code, const char* what) {
  EXPECT_NE(code, kerb::ErrorCode::kInternal) << what;
  EXPECT_NE(code, kerb::ErrorCode::kTransport) << what;
}

// Captures the live request bytes of one full V4 session (AS, TGS, AP) by
// recording alice's traffic.
std::vector<ksim::Message> CaptureSession4(Testbed4& bed) {
  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  EXPECT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  EXPECT_TRUE(
      bed.alice().CallService(Testbed4::kMailAddr, bed.mail_principal(), true).ok());
  bed.world().network().SetAdversary(nullptr);
  std::vector<ksim::Message> requests;
  for (const auto& exchange : recorder.exchanges()) {
    requests.push_back(exchange.request);
  }
  return requests;
}

std::vector<ksim::Message> CaptureSession5(Testbed5& bed) {
  ksim::RecordingAdversary recorder;
  bed.world().network().SetAdversary(&recorder);
  EXPECT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  EXPECT_TRUE(
      bed.alice().CallService(Testbed5::kMailAddr, bed.mail_principal(), true).ok());
  bed.world().network().SetAdversary(nullptr);
  std::vector<ksim::Message> requests;
  for (const auto& exchange : recorder.exchanges()) {
    requests.push_back(exchange.request);
  }
  return requests;
}

// Replays every strict prefix of each captured request to its original
// destination. A message cut anywhere must be refused cleanly.
template <typename Bed>
void TruncationSweep(Bed& bed, const std::vector<ksim::Message>& requests) {
  for (const auto& msg : requests) {
    for (size_t len = 0; len < msg.payload.size(); ++len) {
      kerb::Bytes cut(msg.payload.begin(), msg.payload.begin() + len);
      auto r = bed.world().network().Call(msg.src, msg.dst, cut);
      ASSERT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
      ExpectCleanFailure(r.error().code, "truncated request");
    }
  }
}

// Flips every bit of every captured request and replays it. Flips in
// plaintext header fields may legally still be served (V4 AS requests are
// unauthenticated — the paper's point); what is forbidden is a crash or an
// internal error.
template <typename Bed>
void BitFlipSweep(Bed& bed, const std::vector<ksim::Message>& requests) {
  for (const auto& msg : requests) {
    for (size_t bit = 0; bit < msg.payload.size() * 8; ++bit) {
      kerb::Bytes flipped = msg.payload;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      auto r = bed.world().network().Call(msg.src, msg.dst, flipped);
      if (!r.ok()) {
        ExpectCleanFailure(r.error().code, "bit-flipped request");
      }
    }
  }
}

// Pure noise at every service address: never accepted, never kInternal.
template <typename Bed>
void GarbageSweep(Bed& bed, const std::vector<ksim::NetAddress>& targets, uint64_t seed) {
  kcrypto::Prng prng(seed);
  constexpr ksim::NetAddress kEveAddr{0x0a000666, 31337};
  for (const auto& dst : targets) {
    for (int i = 0; i < 300; ++i) {
      kerb::Bytes garbage = prng.NextBytes(prng.NextBelow(160));
      auto r = bed.world().network().Call(kEveAddr, dst, garbage);
      ASSERT_FALSE(r.ok()) << "garbage accepted at " << dst.ToString();
      ExpectCleanFailure(r.error().code, "garbage request");
    }
  }
}

TEST(MalformedTest, V4TruncationsFailCleanly) {
  Testbed4 bed;
  TruncationSweep(bed, CaptureSession4(bed));
}

TEST(MalformedTest, V4BitFlipsFailCleanly) {
  Testbed4 bed;
  bed.world().clock().Advance(ksim::kSecond);  // replayed flips aren't "now"
  BitFlipSweep(bed, CaptureSession4(bed));
}

TEST(MalformedTest, V4GarbageFailsCleanly) {
  Testbed4 bed;
  GarbageSweep(bed, {Testbed4::kAsAddr, Testbed4::kTgsAddr, Testbed4::kMailAddr}, 11);
}

TEST(MalformedTest, V5TruncationsFailCleanly) {
  Testbed5 bed;
  TruncationSweep(bed, CaptureSession5(bed));
}

TEST(MalformedTest, V5BitFlipsFailCleanly) {
  Testbed5 bed;
  BitFlipSweep(bed, CaptureSession5(bed));
}

TEST(MalformedTest, V5GarbageFailsCleanly) {
  Testbed5 bed;
  GarbageSweep(bed, {Testbed5::kAsAddr, Testbed5::kTgsAddr, Testbed5::kMailAddr}, 12);
}

TEST(MalformedTest, V4DecodersRejectEveryTruncation) {
  // Decoder-level truncation sweep over a real AS request encoding: every
  // strict prefix must be a clean decode error for every V4 decoder.
  Testbed4 bed;
  auto requests = CaptureSession4(bed);
  ASSERT_FALSE(requests.empty());
  const kerb::Bytes& as_request = requests.front().payload;
  for (size_t len = 0; len < as_request.size(); ++len) {
    kerb::Bytes cut(as_request.begin(), as_request.begin() + len);
    (void)krb4::Unframe4(cut);
    (void)kenc::Decode<krb4::AsRequest4>(cut);
    (void)kenc::Decode<krb4::TgsRequest4>(cut);
    (void)kenc::Decode<krb4::ApRequest4>(cut);
    (void)kenc::Decode<krb4::Ticket4>(cut);
    (void)kenc::Decode<krb4::Authenticator4>(cut);
  }
  SUCCEED();  // no crash under the sanitizer is the assertion
}

// --- Degenerate DH group parameters and PK AS request sweeps ----------------

TEST(MalformedTest, DegenerateDhGroupParametersFailClosed) {
  // A hostile "DH group" with a zero, one, or even modulus must be refused
  // by every layer — BigInt::ModExp no longer asserts, it errors.
  for (uint64_t m : {0ull, 1ull, 2ull, 4096ull, 0xfffffffeull}) {
    auto r = kcrypto::BigInt::ModExp(kcrypto::BigInt(3), kcrypto::BigInt(7), kcrypto::BigInt(m));
    ASSERT_FALSE(r.ok()) << m;
    ExpectCleanFailure(r.error().code, "degenerate modulus modexp");
    EXPECT_EQ(kcrypto::ModExpCtx::Create(kcrypto::BigInt(m)).code(),
              kerb::ErrorCode::kBadFormat)
        << m;
    EXPECT_EQ(kcrypto::DhEngine::Create(kcrypto::BigInt(m), kcrypto::BigInt(2)), nullptr) << m;
    // A hand-built group with this modulus: validation refuses every public
    // value, so no exchange can proceed.
    kcrypto::DhGroup bad{kcrypto::BigInt(m), kcrypto::BigInt(2), nullptr};
    EXPECT_FALSE(kcrypto::ValidateDhPublic(bad, kcrypto::BigInt(3)).ok()) << m;
  }
}

TEST(MalformedTest, PkAsRequestSweepsFailCleanly) {
  // Truncations and bit flips over a valid PK AS request against a live
  // core with PK preauth enabled: any rejection is fine, a crash or
  // kInternal is not — and the DH public inside the frame is hostile input
  // by construction once the flip lands in it.
  kcrypto::Prng group_prng(0x97);
  kcrypto::DhGroup group = kcrypto::MakeToyGroup(group_prng, 48);
  ksim::SimClock clock;
  krb4::KdcDatabase db;
  krb4::Principal alice{"alice", "", "ATHENA.SIM"};
  db.AddUser(alice, "pw");
  kcrypto::Prng key_prng(0x5eed);
  db.AddServiceWithRandomKey(krb4::TgsPrincipal("ATHENA.SIM"), key_prng);
  krb4::KdcCore4 core(ksim::HostClock(&clock), "ATHENA.SIM", std::move(db),
                      krb4::KdcOptions{});
  core.EnablePkPreauth(group);
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};

  kcrypto::Prng client_prng(0x2);
  kcrypto::DhKeyPair pair = kcrypto::DhGenerate(group, client_prng);
  krb4::AsPkRequest4 req;
  req.client = alice;
  req.service_realm = "ATHENA.SIM";
  req.lifetime = ksim::kHour;
  req.client_pub = pair.public_key.ToBytes();
  kcrypto::DesKey user_key = kcrypto::StringToKey("pw", alice.Salt());
  kenc::Writer pa;
  pa.PutU64(0);  // timestamp: the sim clock sits at 0
  pa.PutLengthPrefixed(
      kcrypto::ComputeChecksum(kcrypto::ChecksumType::kMd4, req.client_pub));
  req.sealed_padata = krb4::Seal4(user_key, pa.Take());
  ksim::Message msg;
  msg.src = {0x0a000101, 1023};
  msg.payload = krb4::Frame4(krb4::MsgType::kAsPkRequest, req);
  ASSERT_TRUE(core.HandleAs(msg, ctx).ok());

  for (size_t len = 0; len < msg.payload.size(); ++len) {
    ksim::Message cut = msg;
    cut.payload.assign(msg.payload.begin(), msg.payload.begin() + len);
    auto r = core.HandleAs(cut, ctx);
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
    ExpectCleanFailure(r.error().code, "truncated PK AS request");
  }
  for (size_t bit = 0; bit < msg.payload.size() * 8; ++bit) {
    ksim::Message flipped = msg;
    flipped.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = core.HandleAs(flipped, ctx);
    if (!r.ok()) {
      ExpectCleanFailure(r.error().code, "bit-flipped PK AS request");
    }
  }
  (void)kenc::Decode<krb4::AsPkRequest4>(kerb::Bytes{});
  (void)kenc::Decode<krb4::AsPkReply4>(kerb::Bytes{});
}

// --- Durability-subsystem parsers (src/store) -------------------------------

TEST(MalformedTest, WalFrameSweepsFailCleanly) {
  kstore::WalRecord record{/*lsn=*/7, kstore::kWalOpUpsert, kcrypto::Prng(21).NextBytes(40)};
  const kerb::Bytes frame = kstore::EncodeWalFrame(record);

  auto parse = [](const kerb::Bytes& bytes) {
    kenc::Reader reader(bytes);
    return kstore::ParseWalFrame(reader);
  };
  for (size_t len = 0; len < frame.size(); ++len) {
    kerb::Bytes cut(frame.begin(), frame.begin() + len);
    auto r = parse(cut);
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
    ExpectCleanFailure(r.error().code, "truncated WAL frame");
  }
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    kerb::Bytes flipped = frame;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = parse(flipped);
    ASSERT_FALSE(r.ok()) << "bit flip " << bit << " accepted (CRC must catch it)";
    ExpectCleanFailure(r.error().code, "bit-flipped WAL frame");
  }
  kcrypto::Prng prng(22);
  for (int i = 0; i < 500; ++i) {
    auto r = parse(prng.NextBytes(prng.NextBelow(200)));
    if (!r.ok()) {
      ExpectCleanFailure(r.error().code, "garbage WAL frame");
    }
  }
  // ScanWal over every truncation of a multi-record log: a cut log is a
  // torn tail, so the scan must still succeed with a record PREFIX.
  kerb::Bytes log;
  for (uint64_t lsn = 1; lsn <= 4; ++lsn) {
    kerb::Append(log, kstore::EncodeWalFrame(
                          kstore::WalRecord{lsn, kstore::kWalOpDelete, prng.NextBytes(10)}));
  }
  for (size_t len = 0; len < log.size(); ++len) {
    kerb::Bytes cut(log.begin(), log.begin() + len);
    auto scan = kstore::ScanWal(cut);
    ASSERT_TRUE(scan.ok()) << "torn tail at " << len << " must not fail the scan";
    ASSERT_LE(scan.value().records.size(), 4u);
    for (size_t i = 0; i < scan.value().records.size(); ++i) {
      EXPECT_EQ(scan.value().records[i].lsn, i + 1);
    }
  }
}

TEST(MalformedTest, SnapshotImageSweepsFailCleanly) {
  kstore::Snapshot snapshot;
  snapshot.lsn = 9;
  kcrypto::Prng prng(23);
  for (int i = 0; i < 5; ++i) {
    snapshot.Add(prng.NextBytes(24));
  }
  const kerb::Bytes image = kstore::EncodeSnapshot(snapshot);

  for (size_t len = 0; len < image.size(); ++len) {
    kerb::Bytes cut(image.begin(), image.begin() + len);
    auto r = kstore::DecodeSnapshot(cut);
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
    ExpectCleanFailure(r.error().code, "truncated snapshot");
  }
  for (size_t bit = 0; bit < image.size() * 8; ++bit) {
    kerb::Bytes flipped = image;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = kstore::DecodeSnapshot(flipped);
    ASSERT_FALSE(r.ok()) << "bit flip " << bit << " accepted (CRC must catch it)";
    ExpectCleanFailure(r.error().code, "bit-flipped snapshot");
  }
}

// Hostile bytes against the slave-side propagation endpoint: every frame is
// MAC-checked before anything is parsed, so cuts, flips, garbage, and
// spliced LSN windows must all bounce without touching the database.
TEST(MalformedTest, PropagationSinkSweepsFailCleanly) {
  const kcrypto::DesKey key = kcrypto::StringToKey("kprop/fuzz", "FUZZ");
  int applies = 0;
  int loads = 0;
  kstore::PropagationSink sink(
      key, /*applied_lsn=*/0,
      [&](uint8_t, kerb::BytesView) {
        ++applies;
        return kerb::Status::Ok();
      },
      [&](const kstore::Snapshot&) {
        ++loads;
        return kerb::Status::Ok();
      });
  auto deliver = [&](kerb::Bytes payload) {
    ksim::Message msg;
    msg.src = {0x0a000058, kstore::kPropPort};
    msg.dst = {0x0a000059, kstore::kPropPort};
    msg.payload = std::move(payload);
    return sink.Handle(msg);
  };

  std::vector<kstore::WalRecord> records;
  kcrypto::Prng prng(24);
  for (int i = 0; i < 3; ++i) {
    records.push_back(kstore::WalRecord{static_cast<uint64_t>(i + 1),
                                        kstore::kWalOpUpsert, prng.NextBytes(32)});
  }
  const kerb::Bytes delta = kstore::EncodeDeltaFrame(key, 0, 3, records);

  for (size_t len = 0; len < delta.size(); ++len) {
    kerb::Bytes cut(delta.begin(), delta.begin() + len);
    auto r = deliver(cut);
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
    ExpectCleanFailure(r.error().code, "truncated prop frame");
  }
  for (size_t bit = 0; bit < delta.size() * 8; ++bit) {
    kerb::Bytes flipped = delta;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = deliver(flipped);
    ASSERT_FALSE(r.ok()) << "bit flip " << bit << " accepted (MAC must catch it)";
    ExpectCleanFailure(r.error().code, "bit-flipped prop frame");
  }
  for (int i = 0; i < 500; ++i) {
    auto r = deliver(prng.NextBytes(prng.NextBelow(200)));
    ASSERT_FALSE(r.ok()) << "garbage prop frame accepted";
    ExpectCleanFailure(r.error().code, "garbage prop frame");
  }
  // Correctly MAC'd but spliced: a gapped window is an honest kReplay, an
  // inconsistent (window, count) pair an honest kBadFormat — never internal.
  std::vector<kstore::WalRecord> gapped = records;
  for (auto& rec : gapped) {
    rec.lsn += 5;
  }
  auto r = deliver(kstore::EncodeDeltaFrame(key, 5, 8, gapped));
  ASSERT_FALSE(r.ok());
  ExpectCleanFailure(r.error().code, "gapped prop frame");
  EXPECT_EQ(applies, 0) << "a rejected frame mutated the database";
  EXPECT_EQ(loads, 0);

  // The untampered frame still applies afterwards — the sweeps above left
  // the sink's version state untouched.
  ASSERT_TRUE(deliver(delta).ok());
  EXPECT_EQ(applies, 3);
}

TEST(MalformedTest, V5DecoderRejectsEveryTruncation) {
  Testbed5 bed;
  auto requests = CaptureSession5(bed);
  ASSERT_FALSE(requests.empty());
  const kerb::Bytes& as_request = requests.front().payload;
  int accepted = 0;
  for (size_t len = 0; len < as_request.size(); ++len) {
    kerb::Bytes cut(as_request.begin(), as_request.begin() + len);
    if (kenc::TlvMessage::Decode(cut).ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 0) << "TLV length accounting admitted a truncated message";
}

// --- kadmin wire sweeps (PR 8) ---------------------------------------------

// A testbed with the admin plane up plus a logged-in operator, and one
// valid admin request frame built but not yet sent.
struct AdminFuzzBed {
  AdminFuzzBed() : bed([] {
    kattack::TestbedConfig config;
    config.enable_kadmin = true;
    return config;
  }()) {
    oper = bed.MakeClient(bed.oper_principal(), Testbed4::kOperAddr);
    EXPECT_TRUE(oper->Login(Testbed4::kOperPassword).ok());
    admin = bed.MakeAdminClient(*oper);
  }

  kerb::Bytes BuildChange(uint64_t nonce) {
    auto pw = std::string("fuzzer-Probe_1!");
    auto wire = admin->BuildRequest(
        kadmin::AdminOp::kChangePassword, bed.bob_principal(),
        kerb::BytesView(reinterpret_cast<const uint8_t*>(pw.data()), pw.size()), nonce);
    EXPECT_TRUE(wire.ok());
    return wire.value();
  }

  Testbed4 bed;
  std::unique_ptr<krb4::Client4> oper;
  std::unique_ptr<kadmin::AdminClient> admin;
};

TEST(MalformedTest, KadminTruncationsFailCleanly) {
  AdminFuzzBed t;
  const kerb::Bytes wire = t.BuildChange(1);
  const uint32_t kvno_before = t.bed.kdc().database().Kvno(t.bed.bob_principal());
  for (size_t len = 0; len < wire.size(); ++len) {
    kerb::Bytes cut(wire.begin(), wire.begin() + len);
    auto r = t.bed.world().network().Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, cut);
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
    ExpectCleanFailure(r.error().code, "truncated admin request");
  }
  EXPECT_EQ(t.bed.kdc().database().Kvno(t.bed.bob_principal()), kvno_before);
  EXPECT_EQ(t.bed.kadmin_server()->applied(), 0u);
}

TEST(MalformedTest, KadminBitFlipsNeverForgeOrDoubleApply) {
  AdminFuzzBed t;
  const kerb::Bytes wire = t.BuildChange(2);
  const uint32_t kvno_before = t.bed.kdc().database().Kvno(t.bed.bob_principal());
  // Almost every byte of an admin request is load-bearing (frame header,
  // length prefixes, three sealed blobs), but Seal4 carries no MAC — the
  // paper's V4 integrity complaint — so a flip is not guaranteed to be
  // refused. DES ignores key parity bits and Unseal4 never re-checks its
  // padding, so a flip in the ticket's final ciphertext block occasionally
  // rewrites nothing but a parity bit of the embedded session key: the
  // authenticator and the checksummed body then verify under a functionally
  // identical key, and the server is looking at a request semantically
  // equal to the one the operator sealed. What the sweep can and does pin
  // down: an accepted flip never carries an attacker-chosen mutation (the
  // payload that lands is bit-for-bit the operator's), the op applies at
  // most once across the whole sweep, and every refused flip fails cleanly.
  uint64_t accepted = 0;
  for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
    kerb::Bytes flipped = wire;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = t.bed.world().network().Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, flipped);
    if (r.ok()) {
      ++accepted;
      continue;
    }
    ExpectCleanFailure(r.error().code, "bit-flipped admin request");
  }
  if (accepted == 0) {
    EXPECT_EQ(t.bed.kdc().database().Kvno(t.bed.bob_principal()), kvno_before);
    EXPECT_EQ(t.bed.kadmin_server()->applied(), 0u);
  } else {
    // Exactly-once despite multiple equivalent frames: the nonce ack cache
    // absorbs every accepted duplicate after the first.
    EXPECT_EQ(t.bed.kdc().database().Kvno(t.bed.bob_principal()), kvno_before + 1);
    EXPECT_EQ(t.bed.kadmin_server()->applied(), 1u);
    EXPECT_TRUE(t.bed.bob().Login("fuzzer-Probe_1!").ok());
  }
}

TEST(MalformedTest, KadminGarbageFailsCleanly) {
  AdminFuzzBed t;
  GarbageSweep(t.bed, {Testbed4::kAdminAddr}, 0xad111);
  EXPECT_EQ(t.bed.kadmin_server()->applied(), 0u);
}

TEST(MalformedTest, KadminCrossSessionSpliceFailsCleanly) {
  AdminFuzzBed t;
  // bob runs his own self-service session: a second, different session key.
  EXPECT_TRUE(t.bed.bob().Login(Testbed4::kBobPassword).ok());
  auto bob_admin = t.bed.MakeAdminClient(t.bed.bob());
  auto bob_pw = std::string("bobs-Own_Pick_3!");
  auto bob_wire = bob_admin->BuildRequest(
      kadmin::AdminOp::kChangePassword, t.bed.bob_principal(),
      kerb::BytesView(reinterpret_cast<const uint8_t*>(bob_pw.data()), bob_pw.size()), 31);
  ASSERT_TRUE(bob_wire.ok());
  const kerb::Bytes oper_wire = t.BuildChange(32);

  auto oper_parts = krb4::Unframe4(oper_wire);
  auto bob_parts = krb4::Unframe4(bob_wire.value());
  ASSERT_TRUE(oper_parts.ok());
  ASSERT_TRUE(bob_parts.ok());
  auto oper_req = kenc::Decode<kadmin::AdminRequest>(oper_parts.value().second);
  auto bob_req = kenc::Decode<kadmin::AdminRequest>(bob_parts.value().second);
  ASSERT_TRUE(oper_req.ok());
  ASSERT_TRUE(bob_req.ok());

  // Every cross-session recombination of the three sealed blobs decrypts
  // to garbage somewhere (the session keys differ), so each must be
  // refused without crashing — and without mutating the database.
  const kadmin::AdminRequest& a = oper_req.value();
  const kadmin::AdminRequest& b = bob_req.value();
  kadmin::AdminRequest splices[] = {
      {a.sealed_ticket, a.sealed_auth, b.sealed_req},
      {a.sealed_ticket, b.sealed_auth, a.sealed_req},
      {a.sealed_ticket, b.sealed_auth, b.sealed_req},
      {b.sealed_ticket, a.sealed_auth, a.sealed_req},
      {b.sealed_ticket, a.sealed_auth, b.sealed_req},
      {b.sealed_ticket, b.sealed_auth, a.sealed_req},
  };
  for (const auto& spliced : splices) {
    auto r = t.bed.world().network().Call(Testbed4::kOperAddr, Testbed4::kAdminAddr,
                                          krb4::Frame4(krb4::MsgType::kAdminRequest, spliced));
    ASSERT_FALSE(r.ok()) << "cross-session splice accepted";
    ExpectCleanFailure(r.error().code, "spliced admin request");
  }
  EXPECT_EQ(t.bed.kadmin_server()->applied(), 0u);
  EXPECT_EQ(t.bed.kdc().database().Kvno(t.bed.bob_principal()), 1u);
}

TEST(MalformedTest, AdminBodyDecodersRejectTruncationAndFlips) {
  kadmin::AdminReqBody req;
  req.op = kadmin::AdminOp::kChangePassword;
  req.target = krb4::Principal{"bob", "", "ATHENA.SIM"};
  req.nonce = 0x1122334455667788ull;
  req.timestamp = 1234567;
  req.sender_addr = 0x0a000103;
  req.payload = {0x61, 0x62, 0x63, 0x64};
  const kerb::Bytes req_bytes = kadmin::EncodeChecked(req);

  kadmin::AdminReplyBody reply;
  reply.nonce_plus_one = req.nonce + 1;
  reply.timestamp = 1234568;
  reply.code = 0;
  reply.kvno = 2;
  reply.detail = {0x6f, 0x6b};
  const kerb::Bytes reply_bytes = kadmin::EncodeChecked(reply);

  ASSERT_TRUE(kadmin::DecodeChecked<kadmin::AdminReqBody>(req_bytes).ok());
  ASSERT_TRUE(kadmin::DecodeChecked<kadmin::AdminReplyBody>(reply_bytes).ok());
  for (size_t len = 0; len < req_bytes.size(); ++len) {
    kerb::Bytes cut(req_bytes.begin(), req_bytes.begin() + len);
    EXPECT_FALSE(kadmin::DecodeChecked<kadmin::AdminReqBody>(cut).ok()) << "req cut at " << len;
  }
  for (size_t len = 0; len < reply_bytes.size(); ++len) {
    kerb::Bytes cut(reply_bytes.begin(), reply_bytes.begin() + len);
    EXPECT_FALSE(kadmin::DecodeChecked<kadmin::AdminReplyBody>(cut).ok()) << "reply cut at " << len;
  }
  // The trailing MD4 checksum covers every plaintext field, so every
  // single-bit flip — including flips inside the checksum itself — dies.
  for (size_t bit = 0; bit < req_bytes.size() * 8; ++bit) {
    kerb::Bytes flipped = req_bytes;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(kadmin::DecodeChecked<kadmin::AdminReqBody>(flipped).ok()) << "req bit " << bit;
  }
  for (size_t bit = 0; bit < reply_bytes.size() * 8; ++bit) {
    kerb::Bytes flipped = reply_bytes;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(kadmin::DecodeChecked<kadmin::AdminReplyBody>(flipped).ok())
        << "reply bit " << bit;
  }
}

TEST(MalformedTest, RingRecordPayloadSweepsFailClosed) {
  // The kvno-ring WAL payload (EncodePrincipalEntry) is the atomicity unit
  // for rotation; a truncated or bit-damaged record must leave the target
  // database untouched.
  krb4::PrincipalEntry entry;
  entry.kind = krb4::PrincipalKind::kUser;
  entry.max_life = 8 * ksim::kHour;
  kcrypto::Prng prng(77);
  for (uint32_t kvno = 3; kvno >= 1; --kvno) {
    krb4::KeyVersion kv;
    kv.kvno = kvno;
    kv.key = prng.NextDesKeyBytes();
    kv.not_after = kvno == 3 ? 0 : 1000000 + kvno;
    entry.keys.push_back(kv);
  }
  const krb4::Principal who{"ring", "", "ATHENA.SIM"};
  const kerb::Bytes payload = krb4::EncodePrincipalEntry(who, entry);

  krb4::KdcDatabase db;
  ASSERT_TRUE(krb4::ApplyStoreRecord(db, kstore::kWalOpUpsert, payload).ok());
  ASSERT_EQ(db.Kvno(who), 3u);

  krb4::KdcDatabase scratch;
  for (size_t len = 0; len < payload.size(); ++len) {
    kerb::Bytes cut(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(krb4::ApplyStoreRecord(scratch, kstore::kWalOpUpsert, cut).ok())
        << "ring record cut at " << len;
    EXPECT_EQ(scratch.size(), 0u) << "partial apply at len " << len;
  }
  // Structural flips (kvno order, ring count, lengths) must be refused;
  // flips confined to key bytes or policy durations still decode — what
  // matters is that no flip half-applies or crashes.
  for (size_t bit = 0; bit < payload.size() * 8; ++bit) {
    kerb::Bytes flipped = payload;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    krb4::KdcDatabase per_flip;
    auto status = krb4::ApplyStoreRecord(per_flip, kstore::kWalOpUpsert, flipped);
    if (!status.ok()) {
      EXPECT_EQ(per_flip.size(), 0u) << "rejected flip " << bit << " left state";
      ExpectCleanFailure(status.code(), "flipped ring record");
    }
  }
}

// --- Cluster wire sweeps ----------------------------------------------------

kcluster::RingAnnounce SampleView() {
  kcluster::RingAnnounce view;
  view.epoch = 3;
  view.as_port = 88;
  view.tgs_port = 89;
  view.members = {{1, 0x0a000010}, {2, 0x0a000011}, {3, 0x0a000012}, {4, 0x0a000013}};
  return view;
}

TEST(MalformedTest, ClusterReferralBodySweepsFailClosed) {
  // Referral bodies are plaintext by design (see src/cluster/wire.h), so
  // the decoder and the client router are the whole defence: truncations
  // must be refused, and a bit-flipped body that still parses must only
  // ever change where the client *asks*, never crash or wedge the router.
  kcluster::ReferralBody body;
  body.view = SampleView();
  body.owner_node_id = 2;
  const kerb::Bytes encoded = kenc::Encode(body);
  ASSERT_TRUE(kcluster::DecodeReferralBody(encoded).ok());

  for (size_t len = 0; len < encoded.size(); ++len) {
    kerb::Bytes cut(encoded.begin(), encoded.begin() + len);
    auto r = kcluster::DecodeReferralBody(cut);
    ASSERT_FALSE(r.ok()) << "referral cut at " << len;
    ExpectCleanFailure(r.error().code, "truncated referral");
  }
  for (size_t bit = 0; bit < encoded.size() * 8; ++bit) {
    kerb::Bytes flipped = encoded;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto r = kcluster::DecodeReferralBody(flipped);
    if (!r.ok()) {
      ExpectCleanFailure(r.error().code, "flipped referral");
    }
    // The router must survive adopting (or rejecting) any flipped body.
    kcluster::ClientRouter router;
    (void)router.ApplyReferral(flipped);
  }
  // A member-count field inflated past the decoder ceiling fails closed
  // instead of allocating.
  kcluster::RingAnnounce huge = SampleView();
  kerb::Bytes inflated = kenc::Encode(kcluster::ReferralBody{huge, 1});
  // count lives after epoch(4) + seed(8) + vnodes(4) + 3 ports(6) = offset 22.
  inflated[22] = 0xff;
  inflated[23] = 0xff;
  inflated[24] = 0xff;
  inflated[25] = 0xff;
  EXPECT_FALSE(kcluster::DecodeReferralBody(inflated).ok());
}

TEST(MalformedTest, ClusterControlFrameSweepsFailClosed) {
  // Control frames are MAC'd under the cluster key: EVERY single-bit flip
  // and every truncation — including within the MAC trailer itself — must
  // be a clean rejection. Splices of two authentic frames likewise.
  const kcrypto::DesKey key = kcluster::ClusterKey("ATHENA.SIM");
  kcluster::LoadBody load;
  load.epoch = 3;
  kcrypto::Prng prng(0x10ad);
  for (int i = 0; i < 6; ++i) {
    krb4::PrincipalEntry entry;
    entry.kind = krb4::PrincipalKind::kUser;
    entry.keys.push_back({1, prng.NextDesKeyBytes(), 0});
    load.entries.push_back(krb4::EncodePrincipalEntry(
        krb4::Principal{"u" + std::to_string(i), "", "ATHENA.SIM"}, entry));
  }
  const std::vector<kerb::Bytes> frames = {
      kcluster::EncodeCtlFrame(key, kcluster::kCtlPing, kcluster::PingBody{7}),
      kcluster::EncodeCtlFrame(key, kcluster::kCtlPong, kcluster::PongBody{7, 3, 41}),
      kcluster::EncodeCtlFrame(key, kcluster::kCtlRing, SampleView()),
      kcluster::EncodeCtlFrame(key, kcluster::kCtlRingAck, kcluster::RingAckBody{7, 3}),
      kcluster::EncodeCtlFrame(key, kcluster::kCtlLoad, load),
      kcluster::EncodeCtlFrame(key, kcluster::kCtlLoadAck, kcluster::LoadAckBody{6}),
  };
  for (const kerb::Bytes& frame : frames) {
    ASSERT_TRUE(kstore::OpenFrame(key, kcluster::kClusterMagic, frame).ok());
    for (size_t len = 0; len < frame.size(); ++len) {
      kerb::Bytes cut(frame.begin(), frame.begin() + len);
      auto r = kstore::OpenFrame(key, kcluster::kClusterMagic, cut);
      ASSERT_FALSE(r.ok()) << "ctl frame cut at " << len;
      ExpectCleanFailure(r.error().code, "truncated ctl frame");
    }
    for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
      kerb::Bytes flipped = frame;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      auto r = kstore::OpenFrame(key, kcluster::kClusterMagic, flipped);
      ASSERT_FALSE(r.ok()) << "ctl frame bit " << bit << " accepted";
      ExpectCleanFailure(r.error().code, "flipped ctl frame");
    }
  }
  // Splice: head of the ring frame, tail of the load frame. Both halves are
  // authentic bytes; the MAC still refuses the combination.
  const kerb::Bytes& ring_frame = frames[2];
  const kerb::Bytes& load_frame = frames[4];
  kerb::Bytes spliced(ring_frame.begin(), ring_frame.begin() + ring_frame.size() / 2);
  spliced.insert(spliced.end(), load_frame.begin() + load_frame.size() / 2,
                 load_frame.end());
  EXPECT_FALSE(kstore::OpenFrame(key, kcluster::kClusterMagic, spliced).ok());
  // The right frame under the wrong realm's key is equally dead.
  EXPECT_FALSE(
      kstore::OpenFrame(kcluster::ClusterKey("OTHER.REALM"), kcluster::kClusterMagic, ring_frame)
          .ok());

  // A load body whose count field promises more entries than the ceiling
  // fails before allocation. Forge the body then re-MAC it so only the
  // count check can reject it. (The body decoder takes the opened body.)
  auto opened = kstore::OpenFrame(key, kcluster::kClusterMagic, load_frame);
  ASSERT_TRUE(opened.ok());
  kerb::Bytes body(opened.value().second.begin(), opened.value().second.end());
  body[4] = 0xff;  // count (after u32 epoch)
  body[5] = 0xff;
  body[6] = 0xff;
  body[7] = 0xff;
  auto r = kenc::Decode<kcluster::LoadBody>(body);
  ASSERT_FALSE(r.ok());
  ExpectCleanFailure(r.error().code, "inflated load count");
}

TEST(MalformedTest, ClusterLiveNodeSweepsFailClosed) {
  // Sweeps against LIVE node ports: the KDC port (referral-routing front
  // end), the control port, and the propagation port (wholesale/delta
  // catch-up handshake). Damaged frames must bounce cleanly off every one
  // of them, and the cluster must stay fully consistent afterwards.
  ksim::World world(0xfa2e);
  kcluster::PopulationConfig pc;
  pc.users = 300;
  pc.services = 4;
  kcluster::Population population(pc);
  kcluster::ClusterConfig cc;
  kcluster::ClusterController controller(&world, cc);
  population.Install(controller.logical_db());
  controller.Bootstrap({{1, 0x0a000010}, {2, 0x0a000011}});

  const ksim::NetAddress eve{0x0a000666, 31337};
  const uint32_t host = 0x0a000010;
  const kcrypto::DesKey ctl_key = kcluster::ClusterKey(cc.realm);
  const kcrypto::DesKey prop_key =
      kcrypto::StringToKey("kprop/" + cc.realm, cc.realm);

  // Authentic frames for each port, then damage them on the wire.
  kstore::Snapshot snap = krb4::SnapshotDatabase(controller.logical_db(), 99);
  const std::vector<std::pair<uint16_t, kerb::Bytes>> probes = {
      {cc.ctl_port, kcluster::EncodeCtlFrame(ctl_key, kcluster::kCtlRing, SampleView())},
      {cc.ctl_port,
       kcluster::EncodeCtlFrame(ctl_key, kcluster::kCtlLoad, kcluster::LoadBody{1, {}})},
      {cc.prop_port, kstore::EncodeWholesaleFrame(prop_key, kstore::EncodeSnapshot(snap))},
      {cc.prop_port, kstore::EncodeDeltaFrame(prop_key, 1, 0, {})},
  };
  kcrypto::Prng prng(0x5eed);
  for (const auto& [port, frame] : probes) {
    for (size_t len = 0; len < frame.size(); len += 7) {
      kerb::Bytes cut(frame.begin(), frame.begin() + len);
      auto r = world.network().Call(eve, {host, port}, cut);
      ASSERT_FALSE(r.ok()) << "port " << port << " accepted a truncation";
      EXPECT_NE(r.error().code, kerb::ErrorCode::kInternal);
    }
    for (int i = 0; i < 2000; ++i) {
      kerb::Bytes flipped = frame;
      const size_t bit = prng.NextBelow(flipped.size() * 8);
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      auto r = world.network().Call(eve, {host, port}, flipped);
      ASSERT_FALSE(r.ok()) << "port " << port << " accepted bit " << bit;
      EXPECT_NE(r.error().code, kerb::ErrorCode::kInternal);
    }
    for (int i = 0; i < 200; ++i) {
      auto r = world.network().Call(eve, {host, port},
                                    prng.NextBytes(prng.NextBelow(120)));
      ASSERT_FALSE(r.ok());
      EXPECT_NE(r.error().code, kerb::ErrorCode::kInternal);
    }
  }
  // None of it moved the cluster: slices still match the ring assignment,
  // and no node adopted the forged epoch-3 view.
  EXPECT_TRUE(controller.AllSlicesConsistent());
  EXPECT_EQ(controller.node(1)->view_epoch(), 1u);
  EXPECT_EQ(controller.node(1)->applied_lsn(), controller.store().last_lsn());
}

}  // namespace
