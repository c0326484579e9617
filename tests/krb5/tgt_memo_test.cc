// The V5 KDC's TGT memo (KdcContext::tgts5, a krb4::KdcUnsealMemo of
// krb5::Ticket5). The AS and PK-AS paths put every TGT they mint as they seal
// it, and each entry must be exactly what Unseal<Ticket5> makes of the same
// bytes, so a session's TGS requests hit from the first one without any
// verdict changing. Also checked: a cross-realm TGT with transited realms,
// which the memo learns by unsealing; the kvno drain window after a krbtgt
// rotation, with and without a memo entry; and TGTs minted in one worker's
// context, served by another's.

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/checksum.h"
#include "src/crypto/dh.h"
#include "src/crypto/str2key.h"
#include "src/krb5/kdccore.h"
#include "src/obs/kobs.h"

namespace {

using krb4::Principal;
using krb5::Ticket5;

constexpr const char* kRealm = "MEMO.SIM";
constexpr const char* kPassword = "memo-password-1";
constexpr ksim::NetAddress kClientAddr{0x0a000042, 1023};

Principal Alice() { return Principal::User("alice", kRealm); }
Principal Mail() { return Principal::Service("mail", "mailhost", kRealm); }

// One realm's KdcCore5 over alice, a mail service and krbtgt.
struct Realm5 {
  Realm5() {
    krb4::KdcDatabase db;
    db.AddUser(Alice(), kPassword);
    kcrypto::Prng key_prng(0x5eed);
    db.AddServiceWithRandomKey(Mail(), key_prng);
    krbtgt = db.AddServiceWithRandomKey(krb4::TgsPrincipal(kRealm), key_prng);
    user_key = kcrypto::StringToKey(kPassword, Alice().Salt());
    core.emplace(ksim::HostClock(&clock), kRealm, std::move(db), krb5::KdcPolicy5{});
  }

  const krb5::EncLayerConfig& enc() { return core->policy().enc; }

  ksim::SimClock clock;
  kcrypto::DesKey krbtgt;
  kcrypto::DesKey user_key;
  std::optional<krb5::KdcCore5> core;
};

struct Tgt {
  kerb::Bytes sealed;
  kcrypto::DesKey session_key;
};

// One password AS exchange through `ctx`: alice's sealed TGT and its
// session key.
Tgt Login(Realm5& realm, krb4::KdcContext& ctx, uint32_t options = 0) {
  krb5::AsRequest5 req;
  req.client = Alice();
  req.service_realm = kRealm;
  req.lifetime = 8 * ksim::kHour;
  req.nonce = 0x10;
  req.options = options;
  ksim::Message msg;
  msg.src = kClientAddr;
  msg.payload = kenc::Encode(req);
  auto reply = realm.core->HandleAs(msg, ctx);
  EXPECT_TRUE(reply.ok());
  auto rep = kenc::Decode<krb5::AsReply5>(reply.value());
  EXPECT_TRUE(rep.ok());
  auto part = krb5::Unseal<krb5::EncAsRepPart5>(realm.user_key, rep.value().sealed_enc_part,
                                                realm.enc());
  EXPECT_TRUE(part.ok());
  return Tgt{rep.value().sealed_tgt, kcrypto::DesKey(part.value().tgs_session_key)};
}

// A TGS request for the mail service that presents `tgt` (of `tgt_realm`)
// from kClientAddr, with a fresh authenticator for `client`.
ksim::Message TgsRequest(const Tgt& tgt, const std::string& tgt_realm, const Principal& client,
                         ksim::Time now, kcrypto::Prng& prng) {
  krb5::TgsRequest5 req;
  req.service = Mail();
  req.lifetime = ksim::kHour;
  req.nonce = prng.NextU64();
  req.tgt_realm = tgt_realm;
  req.sealed_tgt = tgt.sealed;
  krb5::Authenticator5 auth;
  auth.client = client;
  auth.timestamp = now;
  auth.checksum_type = kcrypto::ChecksumType::kCrc32;
  auth.request_checksum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kCrc32,
                                                   req.ChecksumInput(), tgt.session_key);
  req.sealed_authenticator = krb5::Seal(tgt.session_key, auth, krb5::EncLayerConfig{}, prng);
  ksim::Message msg;
  msg.src = kClientAddr;
  msg.payload = kenc::Encode(req);
  msg.sent_at = now;
  return msg;
}

const krb4::UnsealedTicket<Ticket5>* MemoEntry(const krb4::KdcContext& ctx,
                                               const kcrypto::DesKey& key, kerb::BytesView sealed) {
  return ctx.tgts5.Get(ctx.tgts5.Slot(sealed), key.bytes(), sealed);
}

// The memo entry for `sealed` under `key` is exactly Unseal<Ticket5> of the
// same bytes, its session key scheduled from the ticket's.
void ExpectMemoMatchesUnseal(const krb4::KdcContext& ctx, const kcrypto::DesKey& key,
                             kerb::BytesView sealed, const krb5::EncLayerConfig& enc) {
  const krb4::UnsealedTicket<Ticket5>* entry = MemoEntry(ctx, key, sealed);
  ASSERT_NE(entry, nullptr);
  auto unsealed = krb5::Unseal<Ticket5>(key, sealed, enc);
  ASSERT_TRUE(unsealed.ok());
  const Ticket5& want = unsealed.value();
  // Every field is encoded, so equal encodings are equal tickets.
  EXPECT_EQ(kenc::Encode(entry->ticket), kenc::Encode(want));
  EXPECT_EQ(entry->ticket.client_addr, want.client_addr);
  EXPECT_EQ(entry->ticket.transited, want.transited);
  EXPECT_EQ(entry->session_key.bytes(), want.session_key);
}

TEST(TgtMemoTest, AsPutsTheTgtItMintsWithItsAddress) {
  Realm5 realm;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  const Tgt tgt = Login(realm, ctx);
  ExpectMemoMatchesUnseal(ctx, realm.krbtgt, tgt.sealed, realm.enc());
  EXPECT_EQ(MemoEntry(ctx, realm.krbtgt, tgt.sealed)->ticket.client_addr, kClientAddr.host);
  EXPECT_EQ(MemoEntry(ctx, realm.krbtgt, tgt.sealed)->session_key.bytes(),
            tgt.session_key.bytes());
}

TEST(TgtMemoTest, AsPutsAnAddresslessTgt) {
  Realm5 realm;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  const Tgt tgt = Login(realm, ctx, krb5::kOptOmitAddress);
  ExpectMemoMatchesUnseal(ctx, realm.krbtgt, tgt.sealed, realm.enc());
  EXPECT_FALSE(MemoEntry(ctx, realm.krbtgt, tgt.sealed)->ticket.client_addr.has_value());
}

TEST(TgtMemoTest, PkAsPutsTheTgtItMints) {
  Realm5 realm;
  kcrypto::Prng group_prng(0x97);
  const kcrypto::DhGroup group = kcrypto::MakeToyGroup(group_prng, 62);
  realm.core->EnablePkPreauth(group);
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng client_prng(0x2);

  krb5::AsPkRequest5 req;
  req.client = Alice();
  req.service_realm = kRealm;
  req.lifetime = ksim::kHour;
  req.nonce = 0x20;
  req.client_pub = kcrypto::DhGenerate(group, client_prng).public_key.ToBytes();
  krb5::Preauth5 proof;
  proof.nonce = req.nonce;
  proof.timestamp = realm.clock.Now();
  proof.pub_checksum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kMd4, req.client_pub);
  req.padata = krb5::Seal(realm.user_key, proof, realm.enc(), client_prng);
  ksim::Message msg;
  msg.src = kClientAddr;
  msg.payload = kenc::Encode(req);
  auto reply = realm.core->HandleAs(msg, ctx);
  ASSERT_TRUE(reply.ok()) << reply.error().detail;
  auto rep = kenc::Decode<krb5::AsPkReply5>(reply.value());
  ASSERT_TRUE(rep.ok());
  ExpectMemoMatchesUnseal(ctx, realm.krbtgt, rep.value().sealed_tgt, realm.enc());
  EXPECT_EQ(realm.core->pk_as_requests_served(), 1u);
}

TEST(TgtMemoTest, SessionTgsRequestsHitFromTheFirst) {
  Realm5 realm;
  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  kcrypto::Prng prng(0x3);
  const Tgt tgt = Login(realm, ctx);
  kobs::ScopedTrace trace;
  for (int i = 0; i < 3; ++i) {
    auto reply = realm.core->HandleTgs(
        TgsRequest(tgt, kRealm, Alice(), realm.clock.Now(), prng), ctx);
    ASSERT_TRUE(reply.ok()) << reply.error().detail;
  }
  EXPECT_EQ(trace->Count(kobs::Ev::kKdcUnsealMemoHit), 3u);
  EXPECT_EQ(trace->Count(kobs::Ev::kKdcUnsealMemoMiss), 0u);
  EXPECT_EQ(trace->Count(kobs::Ev::kUnsealOk), 3u);  // the authenticators only
}

// A TGT that crossed realms reaches its last hop sealed under the
// inter-realm key, with the realms it transited. The KDC never minted it,
// so the first request unseals it; the entry that leaves must still be
// exactly its unseal, and the second request hits.
TEST(TgtMemoTest, CrossRealmTgtWithTransitedRealmsMatchesItsUnseal) {
  Realm5 realm;
  kcrypto::Prng prng(0x4);
  const kcrypto::DesKey corp_key = prng.NextDesKey();
  realm.core->AddInterRealmKey("CORP", corp_key);

  const Principal far_alice = Principal::User("alice", "ENG.CORP");
  Ticket5 hop;
  hop.service = Principal{"krbtgt", kRealm, "CORP"};
  hop.client = far_alice;
  hop.flags = krb5::kFlagForwardable;
  hop.client_addr = kClientAddr.host;
  hop.issued_at = realm.clock.Now();
  hop.lifetime = 4 * ksim::kHour;
  hop.session_key = prng.NextDesKeyBytes();
  hop.transited = {"ENG.CORP", "OTHER.CORP"};
  const Tgt tgt{krb5::Seal(corp_key, hop, realm.enc(), prng), kcrypto::DesKey(hop.session_key)};

  krb4::KdcContext ctx{kcrypto::Prng(0x1)};
  EXPECT_EQ(MemoEntry(ctx, corp_key, tgt.sealed), nullptr);
  kobs::ScopedTrace trace;
  for (int i = 0; i < 2; ++i) {
    auto reply = realm.core->HandleTgs(
        TgsRequest(tgt, "CORP", far_alice, realm.clock.Now(), prng), ctx);
    ASSERT_TRUE(reply.ok()) << reply.error().detail;
  }
  EXPECT_EQ(trace->Count(kobs::Ev::kKdcUnsealMemoMiss), 1u);
  EXPECT_EQ(trace->Count(kobs::Ev::kKdcUnsealMemoHit), 1u);
  ExpectMemoMatchesUnseal(ctx, corp_key, tgt.sealed, realm.enc());
  EXPECT_EQ(MemoEntry(ctx, corp_key, tgt.sealed)->ticket.transited, hop.transited);
}

// A TGT minted under krbtgt kvno n keeps verifying after the krbtgt key
// rotates, until kvno n's not_after, and is refused after it — the same
// verdicts from the context that minted it (a memo hit under the old key)
// and from a fresh one (an unseal under the old key).
TEST(TgtMemoTest, MintedTgtDrainsWithItsKvno) {
  Realm5 realm;
  krb4::KdcContext minting{kcrypto::Prng(0x1)};
  kcrypto::Prng prng(0x5);
  const Tgt tgt = Login(realm, minting);
  const krb4::Principal krbtgt = krb4::TgsPrincipal(kRealm);
  ASSERT_EQ(realm.core->database().Kvno(krbtgt), 1u);

  const ksim::Time rotated_at = realm.clock.Now() + ksim::kHour;
  const ksim::Time drained_at = rotated_at + ksim::kHour;
  realm.clock.Set(rotated_at);
  auto kvno = realm.core->database().RotateKey(krbtgt, prng.NextDesKey(), rotated_at, drained_at);
  ASSERT_TRUE(kvno.ok());
  ASSERT_EQ(kvno.value(), 2u);
  ASSERT_NE(MemoEntry(minting, realm.krbtgt, tgt.sealed), nullptr);

  realm.clock.Set(drained_at);
  {
    krb4::KdcContext fresh{kcrypto::Prng(0x2)};
    kobs::ScopedTrace trace;
    for (krb4::KdcContext* ctx : {&minting, &fresh}) {
      auto reply = realm.core->HandleTgs(
          TgsRequest(tgt, kRealm, Alice(), realm.clock.Now(), prng), *ctx);
      EXPECT_TRUE(reply.ok()) << reply.error().detail;
    }
    EXPECT_EQ(trace->CountA(kobs::Ev::kKvnoOldKeyAccept, 1), 2u);
  }

  realm.clock.Set(drained_at + 1);
  krb4::KdcContext fresh{kcrypto::Prng(0x3)};
  for (krb4::KdcContext* ctx : {&minting, &fresh}) {
    auto reply = realm.core->HandleTgs(
        TgsRequest(tgt, kRealm, Alice(), realm.clock.Now(), prng), *ctx);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.error().code, kerb::ErrorCode::kAuthFailed);
  }
}

// Each worker mints a TGT in its own context; then, all at once, each
// serves a TGS request for the TGT its neighbour minted. Every one is a
// memo miss in the serving context, unsealed and accepted.
TEST(TgtMemoTest, TgtMintedInOneWorkerIsServedByAnother) {
  constexpr size_t kWorkers = 4;
  Realm5 realm;
  std::vector<krb4::KdcContext> contexts;
  for (size_t w = 0; w < kWorkers; ++w) {
    contexts.emplace_back(kcrypto::Prng(0x100 + w));
  }
  std::vector<Tgt> tgts(kWorkers);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] { tgts[w] = Login(realm, contexts[w]); });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  workers.clear();

  std::vector<ksim::Message> requests;
  kcrypto::Prng prng(0x6);
  for (size_t w = 0; w < kWorkers; ++w) {
    const Tgt& neighbour = tgts[(w + 1) % kWorkers];
    ASSERT_EQ(MemoEntry(contexts[w], realm.krbtgt, neighbour.sealed), nullptr);
    requests.push_back(TgsRequest(neighbour, kRealm, Alice(), realm.clock.Now(), prng));
  }
  std::vector<int> accepted(kWorkers, 0);
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      accepted[w] = realm.core->HandleTgs(requests[w], contexts[w]).ok() ? 1 : 0;
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(accepted[w], 1) << "worker " << w;
    ExpectMemoMatchesUnseal(contexts[w], realm.krbtgt, tgts[(w + 1) % kWorkers].sealed,
                            realm.enc());
    ExpectMemoMatchesUnseal(contexts[w], realm.krbtgt, tgts[w].sealed, realm.enc());
  }
  EXPECT_EQ(realm.core->tgs_requests_served(), kWorkers);
}

}  // namespace
