// Public-key preauthenticated AS exchange, V4 and V5 (the paper's
// "exponential key exchange" fix for offline password guessing, §6.3).
//
// Covers the full protocol loop — client DH pair, framed request with its
// proof-of-possession padata, KDC serving path, double unseal on the
// client — plus the fail-closed edges (degenerate publics, PK disabled,
// wrong password, missing/stale/unbound padata, the active key-substitution
// oracle) and the threaded bulk harness RunPkLoginLoad, which is both the
// kdcload throughput driver and an end-to-end correctness check: every
// counted login verified its reply.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/attacks/kdcload.h"
#include "src/crypto/checksum.h"
#include "src/crypto/dh.h"
#include "src/crypto/prng.h"
#include "src/crypto/str2key.h"
#include "src/encoding/io.h"
#include "src/krb4/kdccore.h"
#include "src/krb5/enclayer.h"
#include "src/krb5/kdccore.h"
#include "src/krb5/messages.h"
#include "src/sim/clock.h"

namespace {

using krb4::Principal;

constexpr const char* kRealm = "ATHENA.SIM";
constexpr const char* kPassword = "quantum-Leap_77";
constexpr ksim::NetAddress kClientAddr{0x0a000101, 1023};

Principal Alice() { return Principal{"alice", "", kRealm}; }

struct Bed4 {
  explicit Bed4(bool enable_pk = true) {
    krb4::KdcDatabase db;
    db.AddUser(Alice(), kPassword);
    kcrypto::Prng key_prng(0x5eed);
    tgs_key = db.AddServiceWithRandomKey(krb4::TgsPrincipal(kRealm), key_prng);
    user_key = kcrypto::StringToKey(kPassword, Alice().Salt());
    core.emplace(ksim::HostClock(&clock), kRealm, std::move(db), krb4::KdcOptions{});
    if (enable_pk) {
      core->EnablePkPreauth(kcrypto::OakleyGroup1());
    }
  }

  kattack::KdcHandler handler() {
    return [this](const ksim::Message& msg, krb4::KdcContext& ctx) {
      return core->HandleAs(msg, ctx);
    };
  }

  ksim::SimClock clock;
  std::optional<krb4::KdcCore4> core;
  kcrypto::DesKey tgs_key;
  kcrypto::DesKey user_key;
};

// The V4 proof-of-possession padata: {timestamp, md4(client_pub)}K.
kerb::Bytes MakePadata4(const kcrypto::DesKey& key, kerb::BytesView client_pub,
                        ksim::Time timestamp) {
  kenc::Writer pa;
  pa.PutU64(static_cast<uint64_t>(timestamp));
  pa.PutLengthPrefixed(kcrypto::ComputeChecksum(kcrypto::ChecksumType::kMd4, client_pub));
  return krb4::Seal4(key, pa.Take());
}

TEST(PkPreauth4Test, FullExchangeIssuesVerifiableTicket) {
  Bed4 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  auto body = kattack::DoPkLogin4(bed.handler(), Alice(), bed.user_key,
                                  kcrypto::OakleyGroup1(), bed.clock.Now(), ctx, client_prng,
                                  kClientAddr);
  ASSERT_TRUE(body.ok()) << body.error().detail;
  EXPECT_EQ(bed.core->pk_as_requests_served(), 1u);

  // The TGT inside the body must unseal with the TGS key and carry the
  // session key the body advertises.
  auto tgt = krb4::Unseal<krb4::Ticket4>(bed.tgs_key, body.value().sealed_ticket);
  ASSERT_TRUE(tgt.ok());
  EXPECT_EQ(tgt.value().client, Alice());
  EXPECT_EQ(tgt.value().session_key, body.value().session_key);
  EXPECT_EQ(tgt.value().client_addr, kClientAddr.host);
}

TEST(PkPreauth4Test, WrongPasswordIsRefusedByTheKdc) {
  // A requester who cannot seal the padata under K_c gets NO reply at all —
  // in particular, no {...}K_c ciphertext to grind offline.
  Bed4 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  kcrypto::DesKey wrong = kcrypto::StringToKey("not-the-password", Alice().Salt());
  auto body = kattack::DoPkLogin4(bed.handler(), Alice(), wrong, kcrypto::OakleyGroup1(),
                                  bed.clock.Now(), ctx, client_prng, kClientAddr);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.error().code, kerb::ErrorCode::kAuthFailed);
}

TEST(PkPreauth4Test, DisabledCoreRefusesPkRequests) {
  Bed4 bed(/*enable_pk=*/false);
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  auto body = kattack::DoPkLogin4(bed.handler(), Alice(), bed.user_key,
                                  kcrypto::OakleyGroup1(), bed.clock.Now(), ctx, client_prng,
                                  kClientAddr);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.error().code, kerb::ErrorCode::kUnsupported);
}

// Builds a well-formed V4 PK request by hand so individual fields can be
// perturbed.
krb4::AsPkRequest4 BaseRequest4(Bed4& bed, kcrypto::Prng& client_prng) {
  kcrypto::DhKeyPair pair = kcrypto::DhGenerate(kcrypto::OakleyGroup1(), client_prng);
  krb4::AsPkRequest4 req;
  req.client = Alice();
  req.service_realm = kRealm;
  req.lifetime = ksim::kHour;
  req.client_pub = pair.public_key.ToBytes();
  req.sealed_padata = MakePadata4(bed.user_key, req.client_pub, bed.clock.Now());
  return req;
}

kerb::Result<kerb::Bytes> Send4(Bed4& bed, krb4::KdcContext& ctx,
                                const krb4::AsPkRequest4& req) {
  ksim::Message msg;
  msg.src = kClientAddr;
  msg.payload = krb4::Frame4(krb4::MsgType::kAsPkRequest, req);
  return bed.core->HandleAs(msg, ctx);
}

TEST(PkPreauth4Test, ActiveAttackerWithOwnKeyGetsNoPasswordCiphertext) {
  // THE oracle the padata closes: an active attacker substitutes their own
  // ephemeral public (whose private key they hold) while replaying a
  // captured padata from a legitimate login. The md4 binding inside the
  // sealed padata no longer matches the public in the request, so the KDC
  // refuses — the attacker never receives a strippable double-sealed reply.
  Bed4 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  krb4::AsPkRequest4 req = BaseRequest4(bed, client_prng);  // victim's request
  kcrypto::Prng attacker_prng(0x666);
  kcrypto::DhKeyPair attacker_pair =
      kcrypto::DhGenerate(kcrypto::OakleyGroup1(), attacker_prng);
  req.client_pub = attacker_pair.public_key.ToBytes();  // substituted key
  auto reply = Send4(bed, ctx, req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, kerb::ErrorCode::kAuthFailed);
}

TEST(PkPreauth4Test, MissingPadataIsRefused) {
  Bed4 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  krb4::AsPkRequest4 req = BaseRequest4(bed, client_prng);
  req.sealed_padata.clear();
  auto reply = Send4(bed, ctx, req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, kerb::ErrorCode::kAuthFailed);
}

TEST(PkPreauth4Test, StalePadataIsRefused) {
  Bed4 bed;
  bed.clock.Set(2 * ksim::kHour);
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  krb4::AsPkRequest4 req = BaseRequest4(bed, client_prng);
  req.sealed_padata =
      MakePadata4(bed.user_key, req.client_pub, bed.clock.Now() - ksim::kHour);
  auto reply = Send4(bed, ctx, req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, kerb::ErrorCode::kAuthFailed);
}

TEST(PkPreauth4Test, DegenerateClientPublicsAreRejected) {
  Bed4 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  const kcrypto::DhGroup& group = kcrypto::OakleyGroup1();
  for (const kcrypto::BigInt& pub :
       {kcrypto::BigInt(0), kcrypto::BigInt(1), group.p.Sub(kcrypto::BigInt(1)), group.p,
        group.p.Add(kcrypto::BigInt(42))}) {
    krb4::AsPkRequest4 req;
    req.client = Alice();
    req.service_realm = kRealm;
    req.lifetime = ksim::kHour;
    req.client_pub = pub.ToBytes();
    ksim::Message msg;
    msg.src = kClientAddr;
    msg.payload = krb4::Frame4(krb4::MsgType::kAsPkRequest, req);
    auto reply = bed.core->HandleAs(msg, ctx);
    ASSERT_FALSE(reply.ok()) << pub.ToHex();
    EXPECT_EQ(reply.error().code, kerb::ErrorCode::kBadFormat) << pub.ToHex();
  }
}

TEST(PkPreauth4Test, OrdinaryAsRequestsStillServed) {
  // Enabling PK must not disturb the password path on the same core.
  Bed4 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  krb4::AsRequest4 req;
  req.client = Alice();
  req.service_realm = kRealm;
  req.lifetime = ksim::kHour;
  ksim::Message msg;
  msg.src = kClientAddr;
  msg.payload = krb4::Frame4(krb4::MsgType::kAsRequest, req);
  auto reply = bed.core->HandleAs(msg, ctx);
  ASSERT_TRUE(reply.ok());
  auto framed = krb4::Unframe4(reply.value());
  ASSERT_TRUE(framed.ok());
  EXPECT_EQ(framed.value().first, krb4::MsgType::kAsReply);
}

TEST(PkPreauth4Test, BulkThreadedLoginsAllVerify) {
  // The kdcload path: every worker runs complete verified exchanges against
  // the shared core. A toy group keeps thousands of logins fast; the DH
  // math is identical modulo size.
  kcrypto::Prng group_prng(0x97);
  kcrypto::DhGroup group = kcrypto::MakeToyGroup(group_prng, 62);
  Bed4 bed;
  bed.core->EnablePkPreauth(group);
  auto handler = bed.handler();
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    constexpr uint64_t kPerWorker = 128;
    auto result = kattack::RunPkLoginLoad(handler, Alice(), bed.user_key, group,
                                          bed.clock.Now(), threads, kPerWorker,
                                          0xfeed + threads);
    EXPECT_EQ(result.logins_failed, 0u) << "threads=" << threads;
    EXPECT_EQ(result.logins_ok, threads * kPerWorker) << "threads=" << threads;
  }
  EXPECT_GE(bed.core->pk_as_requests_served(), (1u + 2u + 4u + 8u) * 128u);
}

// --------------------------------------------------------------------------- V5

struct Bed5 {
  explicit Bed5(bool enable_pk = true) {
    krb4::KdcDatabase db;
    db.AddUser(Alice(), kPassword);
    kcrypto::Prng key_prng(0x5eed);
    tgs_key = db.AddServiceWithRandomKey(krb4::TgsPrincipal(kRealm), key_prng);
    user_key = kcrypto::StringToKey(kPassword, Alice().Salt());
    core.emplace(ksim::HostClock(&clock), kRealm, std::move(db), krb5::KdcPolicy5{});
    if (enable_pk) {
      core->EnablePkPreauth(kcrypto::OakleyGroup1());
    }
  }

  ksim::SimClock clock;
  std::optional<krb5::KdcCore5> core;
  kcrypto::DesKey tgs_key;
  kcrypto::DesKey user_key;
};

// The V5 proof-of-possession padata: a sealed Preauth5 carrying the
// request nonce, a timestamp, and the md4 binding of the DH public.
kerb::Bytes MakePadata5(Bed5& bed, const kcrypto::DesKey& key, uint64_t nonce,
                        kerb::BytesView client_pub, ksim::Time timestamp,
                        kcrypto::Prng& prng) {
  krb5::Preauth5 pa;
  pa.nonce = nonce;
  pa.timestamp = timestamp;
  pa.pub_checksum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kMd4, client_pub);
  return krb5::Seal(key, pa, bed.core->policy().enc, prng);
}

// One full V5 PK exchange; returns the decrypted EncAsRepPart5.
kerb::Result<krb5::EncAsRepPart5> DoPkLogin5(Bed5& bed, krb4::KdcContext& ctx,
                                             kcrypto::Prng& client_prng,
                                             const kcrypto::DesKey& user_key, uint64_t nonce) {
  const kcrypto::DhGroup& group = kcrypto::OakleyGroup1();
  kcrypto::DhKeyPair client_pair = kcrypto::DhGenerate(group, client_prng);

  krb5::AsPkRequest5 req;
  req.client = Alice();
  req.service_realm = kRealm;
  req.lifetime = ksim::kHour;
  req.nonce = nonce;
  req.client_pub = client_pair.public_key.ToBytes();
  req.padata = MakePadata5(bed, user_key, nonce, req.client_pub, bed.clock.Now(), client_prng);

  ksim::Message msg;
  msg.src = kClientAddr;
  msg.payload = kenc::Encode(req);
  auto reply = bed.core->HandleAs(msg, ctx);
  if (!reply.ok()) {
    return reply.error();
  }
  auto rep = kenc::Decode<krb5::AsPkReply5>(reply.value());
  if (!rep.ok()) {
    return rep.error();
  }
  kcrypto::BigInt server_pub = kcrypto::BigInt::FromBytes(rep.value().server_pub);
  if (auto valid = kcrypto::ValidateDhPublic(group, server_pub); !valid.ok()) {
    return valid.error();
  }
  kcrypto::DesKey dh_key = kcrypto::DhDeriveKey(
      kcrypto::DhSharedSecret(group, client_pair.private_key, server_pub));
  const krb5::EncLayerConfig& enc = bed.core->policy().enc;
  auto wrap = krb5::Unseal<krb5::PkEncWrap5>(dh_key, rep.value().sealed_wrap, enc);
  if (!wrap.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "DH layer decryption failed");
  }
  auto part =
      krb5::Unseal<krb5::EncAsRepPart5>(user_key, wrap.value().sealed_enc_part, enc);
  if (!part.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "password layer decryption failed");
  }
  return part;
}

TEST(PkPreauth5Test, FullExchangeEchoesNonceAndIssuesTicket) {
  Bed5 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  auto part = DoPkLogin5(bed, ctx, client_prng, bed.user_key, 0xabcdef1234ull);
  ASSERT_TRUE(part.ok()) << part.error().detail;
  EXPECT_EQ(part.value().nonce, 0xabcdef1234ull);
  EXPECT_EQ(bed.core->pk_as_requests_served(), 1u);
}

TEST(PkPreauth5Test, TicketBlobUnsealsWithTgsKey) {
  Bed5 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  const kcrypto::DhGroup& group = kcrypto::OakleyGroup1();
  kcrypto::DhKeyPair client_pair = kcrypto::DhGenerate(group, client_prng);
  krb5::AsPkRequest5 req;
  req.client = Alice();
  req.service_realm = kRealm;
  req.lifetime = ksim::kHour;
  req.nonce = 7;
  req.client_pub = client_pair.public_key.ToBytes();
  req.padata = MakePadata5(bed, bed.user_key, req.nonce, req.client_pub, bed.clock.Now(),
                           client_prng);
  ksim::Message msg;
  msg.src = kClientAddr;
  msg.payload = kenc::Encode(req);
  auto reply = bed.core->HandleAs(msg, ctx);
  ASSERT_TRUE(reply.ok());
  auto rep = kenc::Decode<krb5::AsPkReply5>(reply.value());
  ASSERT_TRUE(rep.ok());
  auto tgt = krb5::Unseal<krb5::Ticket5>(bed.tgs_key, rep.value().sealed_tgt,
                                         bed.core->policy().enc);
  ASSERT_TRUE(tgt.ok());
  EXPECT_EQ(tgt.value().client, Alice());
}

TEST(PkPreauth5Test, WrongPasswordIsRefusedByTheKdc) {
  // The padata seals under the wrong key, so the KDC refuses outright — no
  // password-keyed ciphertext ever reaches the requester.
  Bed5 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  kcrypto::DesKey wrong = kcrypto::StringToKey("not-the-password", Alice().Salt());
  auto part = DoPkLogin5(bed, ctx, client_prng, wrong, 9);
  ASSERT_FALSE(part.ok());
  EXPECT_EQ(part.error().code, kerb::ErrorCode::kAuthFailed);
}

// Builds a well-formed V5 PK request by hand so fields can be perturbed.
krb5::AsPkRequest5 BaseRequest5(Bed5& bed, kcrypto::Prng& client_prng, uint64_t nonce) {
  kcrypto::DhKeyPair pair = kcrypto::DhGenerate(kcrypto::OakleyGroup1(), client_prng);
  krb5::AsPkRequest5 req;
  req.client = Alice();
  req.service_realm = kRealm;
  req.lifetime = ksim::kHour;
  req.nonce = nonce;
  req.client_pub = pair.public_key.ToBytes();
  req.padata = MakePadata5(bed, bed.user_key, nonce, req.client_pub, bed.clock.Now(),
                           client_prng);
  return req;
}

kerb::Result<kerb::Bytes> Send5(Bed5& bed, krb4::KdcContext& ctx,
                                const krb5::AsPkRequest5& req) {
  ksim::Message msg;
  msg.src = kClientAddr;
  msg.payload = kenc::Encode(req);
  return bed.core->HandleAs(msg, ctx);
}

TEST(PkPreauth5Test, MissingPadataIsRefused) {
  Bed5 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  krb5::AsPkRequest5 req = BaseRequest5(bed, client_prng, 11);
  req.padata.reset();
  auto reply = Send5(bed, ctx, req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, kerb::ErrorCode::kAuthFailed);
}

TEST(PkPreauth5Test, ActiveAttackerWithOwnKeyGetsNoPasswordCiphertext) {
  // The review scenario: replay a captured padata but substitute an
  // attacker-held ephemeral public. The md4 binding sealed under K_c no
  // longer matches, so no strippable reply is issued.
  Bed5 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  krb5::AsPkRequest5 req = BaseRequest5(bed, client_prng, 12);
  kcrypto::Prng attacker_prng(0x666);
  req.client_pub =
      kcrypto::DhGenerate(kcrypto::OakleyGroup1(), attacker_prng).public_key.ToBytes();
  auto reply = Send5(bed, ctx, req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, kerb::ErrorCode::kAuthFailed);
}

TEST(PkPreauth5Test, PadataNonceMustMatchRequestNonce) {
  Bed5 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  krb5::AsPkRequest5 req = BaseRequest5(bed, client_prng, 13);
  req.nonce = 14;  // padata still proves nonce 13
  auto reply = Send5(bed, ctx, req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, kerb::ErrorCode::kAuthFailed);
}

TEST(PkPreauth5Test, StalePadataIsRefused) {
  Bed5 bed;
  bed.clock.Set(2 * ksim::kHour);
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  krb5::AsPkRequest5 req = BaseRequest5(bed, client_prng, 15);
  req.padata = MakePadata5(bed, bed.user_key, req.nonce, req.client_pub,
                           bed.clock.Now() - ksim::kHour, client_prng);
  auto reply = Send5(bed, ctx, req);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, kerb::ErrorCode::kAuthFailed);
}

TEST(PkPreauth5Test, DisabledCoreRefusesPkRequests) {
  Bed5 bed(/*enable_pk=*/false);
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  auto part = DoPkLogin5(bed, ctx, client_prng, bed.user_key, 1);
  ASSERT_FALSE(part.ok());
  EXPECT_EQ(part.error().code, kerb::ErrorCode::kUnsupported);
}

TEST(PkPreauth5Test, DegenerateClientPublicsAreRejected) {
  Bed5 bed;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  const kcrypto::DhGroup& group = kcrypto::OakleyGroup1();
  for (const kcrypto::BigInt& pub :
       {kcrypto::BigInt(0), kcrypto::BigInt(1), group.p.Sub(kcrypto::BigInt(1)), group.p}) {
    krb5::AsPkRequest5 req;
    req.client = Alice();
    req.service_realm = kRealm;
    req.lifetime = ksim::kHour;
    req.nonce = 3;
    req.client_pub = pub.ToBytes();
    ksim::Message msg;
    msg.src = kClientAddr;
    msg.payload = kenc::Encode(req);
    auto reply = bed.core->HandleAs(msg, ctx);
    ASSERT_FALSE(reply.ok()) << pub.ToHex();
    EXPECT_EQ(reply.error().code, kerb::ErrorCode::kBadFormat) << pub.ToHex();
  }
}

TEST(PkPreauth5Test, PkRequestsShareTheAsRateLimit) {
  Bed5 bed;
  bed.core->policy().as_rate_limit_per_minute = 3;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(DoPkLogin5(bed, ctx, client_prng, bed.user_key, 100 + i).ok()) << i;
  }
  auto part = DoPkLogin5(bed, ctx, client_prng, bed.user_key, 200);
  ASSERT_FALSE(part.ok());
  EXPECT_EQ(part.error().code, kerb::ErrorCode::kRateLimited);
}

TEST(PkPreauth5Test, ParallelPkServingAllVerify) {
  Bed5 bed;
  std::atomic<uint64_t> ok{0};
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&bed, &ok, t] {
      krb4::KdcContext ctx{kcrypto::Prng(0x100 + t)};
      kcrypto::Prng client_prng(0x200 + t);
      for (int i = 0; i < kPerThread; ++i) {
        if (DoPkLogin5(bed, ctx, client_prng, bed.user_key, t * 1000 + i).ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(bed.core->pk_as_requests_served(), kThreads * kPerThread);
}

}  // namespace
