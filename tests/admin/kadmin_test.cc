// Unit coverage for the admin plane: the kadmin protocol end to end over
// the simulated network (policy, authorization, replay/interception
// hardening, exactly-once mutation) and the kvno lifecycle it drives
// (old-ticket drain windows, TGS key rotation with ring fallback,
// principal CRUD).

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/admin/kadmin.h"
#include "src/admin/messages.h"
#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/common/bytes.h"
#include "src/krb4/database.h"
#include "src/krb4/messages.h"
#include "src/krb4/principal.h"
#include "src/obs/kobs.h"

namespace {

using kattack::Testbed4;
using kattack::TestbedConfig;

kerb::BytesView StrView(std::string_view s) {
  return kerb::BytesView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

struct AdminBed {
  explicit AdminBed(TestbedConfig config = {}) : bed([&] {
    config.enable_kadmin = true;
    return config;
  }()) {
    oper = bed.MakeClient(bed.oper_principal(), Testbed4::kOperAddr);
    EXPECT_TRUE(oper->Login(Testbed4::kOperPassword).ok());
    admin = bed.MakeAdminClient(*oper);
  }

  Testbed4 bed;
  std::unique_ptr<krb4::Client4> oper;
  std::unique_ptr<kadmin::AdminClient> admin;
};

TEST(KadminTest, OperChangesBobPassword) {
  AdminBed t;
  krb4::KdcDatabase& db = t.bed.kdc().database();
  const krb4::Principal bob = t.bed.bob_principal();
  ASSERT_EQ(db.Kvno(bob), 1u);

  auto ack = t.admin->ChangePassword(bob, "brand-New_Secret1");
  ASSERT_TRUE(ack.ok()) << ack.error().detail;
  EXPECT_EQ(ack.value().kvno, 2u);
  EXPECT_EQ(db.Kvno(bob), 2u);

  // The old password is dead immediately; the new one logs in.
  EXPECT_FALSE(t.bed.bob().Login(Testbed4::kBobPassword).ok());
  EXPECT_TRUE(t.bed.bob().Login("brand-New_Secret1").ok());

  auto kvno = t.admin->GetKvno(bob);
  ASSERT_TRUE(kvno.ok());
  EXPECT_EQ(kvno.value().kvno, 2u);
}

TEST(KadminTest, SelfServicePasswordChange) {
  AdminBed t;
  ASSERT_TRUE(t.bed.bob().Login(Testbed4::kBobPassword).ok());
  auto self_admin = t.bed.MakeAdminClient(t.bed.bob());

  // bob may change his own password and read his own kvno...
  auto ack = self_admin->ChangePassword(t.bed.bob_principal(), "bespoke-Choice_22");
  ASSERT_TRUE(ack.ok()) << ack.error().detail;
  EXPECT_EQ(t.bed.kdc().database().Kvno(t.bed.bob_principal()), 2u);
  EXPECT_TRUE(self_admin->GetKvno(t.bed.bob_principal()).ok());

  // ...but nothing about anyone else, and no service-key operations.
  EXPECT_EQ(self_admin->ChangePassword(t.bed.alice_principal(), "hostile-Reset_1").code(),
            kerb::ErrorCode::kPolicy);
  EXPECT_EQ(self_admin->RotateKey(t.bed.mail_principal()).code(), kerb::ErrorCode::kPolicy);
  EXPECT_EQ(self_admin->GetKey(t.bed.mail_principal()).code(), kerb::ErrorCode::kPolicy);
  EXPECT_EQ(self_admin->DelPrincipal(t.bed.alice_principal()).code(),
            kerb::ErrorCode::kPolicy);
  EXPECT_EQ(t.bed.kdc().database().Kvno(t.bed.mail_principal()), 1u);
}

TEST(KadminTest, PasswordPolicyEnforced) {
  AdminBed t;
  const krb4::Principal bob = t.bed.bob_principal();
  EXPECT_EQ(t.admin->ChangePassword(bob, "short").code(), kerb::ErrorCode::kPolicy);
  EXPECT_EQ(t.admin->ChangePassword(bob, "contains-bob-here").code(),
            kerb::ErrorCode::kPolicy);
  EXPECT_EQ(t.bed.kdc().database().Kvno(bob), 1u);
  EXPECT_TRUE(t.bed.bob().Login(Testbed4::kBobPassword).ok());
}

TEST(KadminTest, ByteReplayServedFromCacheWithoutReapply) {
  AdminBed t;
  ksim::Network& net = t.bed.world().network();
  const krb4::Principal bob = t.bed.bob_principal();

  auto wire = t.admin->BuildRequest(kadmin::AdminOp::kChangePassword, bob,
                                    StrView("replayed-Pw_001!"), /*nonce=*/42);
  ASSERT_TRUE(wire.ok());
  auto r1 = net.Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, wire.value());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(t.bed.kadmin_server()->applied(), 1u);

  // The same bytes again: identical reply, no second apply.
  auto r2 = net.Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, wire.value());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
  EXPECT_EQ(t.bed.kadmin_server()->applied(), 1u);
  EXPECT_GE(t.bed.kadmin_server()->reply_cache_hits(), 1u);
  EXPECT_EQ(t.bed.kdc().database().Kvno(bob), 2u);
}

TEST(KadminTest, FreshAuthenticatorSameNonceHitsAckCache) {
  AdminBed t;
  ksim::Network& net = t.bed.world().network();
  const krb4::Principal bob = t.bed.bob_principal();

  auto w1 = t.admin->BuildRequest(kadmin::AdminOp::kChangePassword, bob,
                                  StrView("retry-Pw_77abc!"), /*nonce=*/7);
  ASSERT_TRUE(w1.ok());
  auto r1 = net.Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, w1.value());
  ASSERT_TRUE(r1.ok());

  // A client retransmission: fresh authenticator, same nonce, same body.
  // Different wire bytes, so the byte cache misses — the ack cache serves
  // the stored verdict and nothing applies twice.
  t.bed.world().clock().Advance(ksim::kSecond);
  auto w2 = t.admin->BuildRequest(kadmin::AdminOp::kChangePassword, bob,
                                  StrView("retry-Pw_77abc!"), /*nonce=*/7);
  ASSERT_TRUE(w2.ok());
  ASSERT_NE(w1.value(), w2.value());
  auto r2 = net.Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, w2.value());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
  EXPECT_EQ(t.bed.kadmin_server()->applied(), 1u);
  EXPECT_EQ(t.bed.kadmin_server()->ack_replays(), 1u);
  EXPECT_EQ(t.bed.kdc().database().Kvno(bob), 2u);

  // A splice — applied nonce, different body — earns the ORIGINAL verdict
  // bytes, and the spliced mutation never applies.
  t.bed.world().clock().Advance(ksim::kSecond);
  auto w3 = t.admin->BuildRequest(kadmin::AdminOp::kChangePassword, bob,
                                  StrView("spliced-Pw_666!"), /*nonce=*/7);
  ASSERT_TRUE(w3.ok());
  auto r3 = net.Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, w3.value());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r1.value(), r3.value());
  EXPECT_EQ(t.bed.kadmin_server()->applied(), 1u);
  EXPECT_EQ(t.bed.kdc().database().Kvno(bob), 2u);
  EXPECT_FALSE(t.bed.bob().Login("spliced-Pw_666!").ok());
  EXPECT_TRUE(t.bed.bob().Login("retry-Pw_77abc!").ok());
}

// An applied nonce's verdict is served up to stored + nonce_window and is
// gone one tick later. Expiry follows stored time, not arrival order: here
// the server clock steps back between two applies, so the later apply holds
// the older stored time and must expire first.
TEST(KadminTest, AckCacheExpiresAtTheNonceWindowInStoredTimeOrder) {
  AdminBed t;
  ksim::Network& net = t.bed.world().network();
  ksim::SimClock& clock = t.bed.world().clock();
  kadmin::KadminServer& server = *t.bed.kadmin_server();
  const ksim::Duration window = 10 * ksim::kSecond;
  server.policy().nonce_window = window;
  const krb4::Principal bob = t.bed.bob_principal();

  // One GetKvno under `nonce`, with a fresh authenticator: true when the
  // server applies it, false when its ack cache serves the stored verdict.
  auto applied = [&](uint64_t nonce) {
    auto wire = t.admin->BuildRequest(kadmin::AdminOp::kGetKvno, bob, {}, nonce);
    EXPECT_TRUE(wire.ok());
    const uint64_t applies = server.applied();
    const uint64_t replays = server.ack_replays();
    EXPECT_TRUE(net.Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, wire.value()).ok());
    EXPECT_EQ(server.applied() + server.ack_replays(), applies + replays + 1) << nonce;
    return server.applied() > applies;
  };

  const ksim::Time t0 = server.clock().Now();
  ASSERT_TRUE(applied(1));  // stored at t0
  server.clock().SetOffset(server.clock().offset() - 2 * window);
  ASSERT_TRUE(applied(2));  // stored at t0 - 2 * window

  clock.Advance(window);  // server time t0 - window
  EXPECT_FALSE(applied(2)) << "nonce 2 at stored + window";
  EXPECT_FALSE(applied(1));
  clock.Advance(ksim::kMicrosecond);
  EXPECT_TRUE(applied(2)) << "nonce 2 one tick past stored + window";
  EXPECT_FALSE(applied(1)) << "nonce 1 was stored later and is still held";

  clock.Advance(2 * window - ksim::kMicrosecond);  // server time t0 + window
  ASSERT_EQ(server.clock().Now(), t0 + window);
  EXPECT_FALSE(applied(1)) << "nonce 1 at stored + window";
  clock.Advance(ksim::kMicrosecond);
  EXPECT_TRUE(applied(1)) << "nonce 1 one tick past stored + window";
  EXPECT_EQ(server.denied(), 0u);
}

TEST(KadminTest, StaleReplayAndTamperAndInterceptRejected) {
  AdminBed t;
  ksim::Network& net = t.bed.world().network();
  const krb4::Principal bob = t.bed.bob_principal();

  auto wire = t.admin->BuildRequest(kadmin::AdminOp::kChangePassword, bob,
                                    StrView("window-Pw_31337"), /*nonce=*/9);
  ASSERT_TRUE(wire.ok());

  // Interception: eve re-originates the honest bytes from her own host.
  // The ticket and authenticator bind the operator's address, so the
  // request dies before the mutation, and the nonce stays unapplied.
  auto ri = net.Call(Testbed4::kEveAddr, Testbed4::kAdminAddr, wire.value());
  EXPECT_FALSE(ri.ok());
  EXPECT_EQ(ri.code(), kerb::ErrorCode::kAuthFailed);
  EXPECT_EQ(t.bed.kdc().database().Kvno(bob), 1u);

  // Tampering: any flipped bit in the frame fails closed.
  kerb::Bytes bent = wire.value();
  bent.back() ^= 0x01;
  auto rt = net.Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, bent);
  EXPECT_FALSE(rt.ok());
  EXPECT_EQ(t.bed.kdc().database().Kvno(bob), 1u);

  // Stale replay: past the skew window the authenticator is dead even
  // though the bytes are honest.
  t.bed.world().clock().Advance(6 * ksim::kMinute);
  auto rs = net.Call(Testbed4::kOperAddr, Testbed4::kAdminAddr, wire.value());
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(t.bed.kdc().database().Kvno(bob), 1u);
}

TEST(KadminTest, OldTicketDrainsAcrossRotationThenExpires) {
  AdminBed t;
  krb4::KdcDatabase& db = t.bed.kdc().database();
  const krb4::Principal mail = t.bed.mail_principal();
  ksim::SimClock& clock = t.bed.world().clock();

  ASSERT_TRUE(t.bed.alice().Login(Testbed4::kAlicePassword).ok());
  ASSERT_TRUE(t.bed.alice().GetServiceTicket(mail).ok());

  // Rotate the mail key over the admin channel; the server installs the
  // new key out of band and grants the outgoing one a short drain window.
  auto ack = t.admin->RotateKey(mail);
  ASSERT_TRUE(ack.ok()) << ack.error().detail;
  EXPECT_EQ(ack.value().kvno, 2u);
  auto entry = db.LookupEntry(mail);
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ(entry.value().keys.size(), 2u);
  const ksim::Time drain_until = clock.Now() + 10 * ksim::kMinute;
  t.bed.mail_server().Rekey(kcrypto::DesKey(entry.value().keys.front().key), drain_until);

  // Inside the drain window the old ticket keeps working, via the
  // server's retained old key.
  auto r1 = t.bed.alice().CallService(Testbed4::kMailAddr, mail, /*want_mutual=*/true);
  ASSERT_TRUE(r1.ok()) << r1.error().detail;
  EXPECT_EQ(kerb::ToString(r1.value()), "You have 3 messages.");
  EXPECT_GE(t.bed.mail_server().old_key_accepts(), 1u);

  // New tickets are sealed under the new kvno and work too.
  auto fresh = t.bed.MakeClient(t.bed.bob_principal(), Testbed4::kBobAddr);
  ASSERT_TRUE(fresh->Login(Testbed4::kBobPassword).ok());
  auto r2 = fresh->CallService(Testbed4::kMailAddr, mail, /*want_mutual=*/true);
  ASSERT_TRUE(r2.ok()) << r2.error().detail;

  // Past the drain window the old seal is dead — fail closed, not open.
  clock.Advance(11 * ksim::kMinute);
  auto r3 = t.bed.alice().CallService(Testbed4::kMailAddr, mail, /*want_mutual=*/true);
  EXPECT_FALSE(r3.ok());
}

// A raw admin request presenting `creds` (any ticket and its session key)
// from `client` at `addr`, with a fresh authenticator at `now`.
kerb::Bytes RawAdminRequest(const krb4::ServiceCredentials& creds, const krb4::Principal& client,
                            uint32_t addr, const krb4::Principal& target, uint64_t nonce,
                            ksim::Time now) {
  krb4::Authenticator4 auth;
  auth.client = client;
  auth.client_addr = addr;
  auth.timestamp = now;
  kadmin::AdminReqBody body;
  body.op = kadmin::AdminOp::kGetKvno;
  body.target = target;
  body.nonce = nonce;
  body.timestamp = now;
  body.sender_addr = addr;
  kadmin::AdminRequest req;
  req.sealed_ticket = creds.sealed_ticket;
  req.sealed_auth = krb4::Seal(creds.session_key, auth);
  req.sealed_req = krb4::Seal4(creds.session_key, kadmin::EncodeChecked(body));
  return krb4::Frame4(krb4::MsgType::kAdminRequest, req);
}

// The server memoises the changepw ticket's unseal, but a memo hit only
// saves the decrypt: the ticket's service, its expiry and the address
// binding are checked on every request. Each denial below comes after a
// hit, which shows as no kUnsealOk for the ticket.
TEST(KadminTest, UnsealMemoHitStillChecksServiceExpiryAndAddress) {
  kobs::ScopedTrace trace;
  AdminBed t;
  ksim::Network& net = t.bed.world().network();
  kadmin::KadminServer& server = *t.bed.kadmin_server();
  const krb4::Principal bob = t.bed.bob_principal();
  const krb4::Principal oper = t.bed.oper_principal();
  const uint32_t oper_host = Testbed4::kOperAddr.host;
  ASSERT_TRUE(t.admin->GetKvno(bob).ok());  // memoises the operator's ticket
  auto unseals_during = [&](const ksim::NetAddress& from, const kerb::Bytes& wire) {
    const uint64_t before = trace->Count(kobs::Ev::kUnsealOk);
    auto reply = net.Call(from, Testbed4::kAdminAddr, wire);
    EXPECT_FALSE(reply.ok());
    return std::make_pair(reply.ok() ? kerb::ErrorCode::kInternal : reply.code(),
                          trace->Count(kobs::Ev::kUnsealOk) - before);
  };

  // Wrong address: eve re-sends a fresh honest request from her own host.
  // The ticket comes from the memo; the authenticator is the one unseal.
  auto honest = t.admin->BuildRequest(kadmin::AdminOp::kGetKvno, bob, {}, /*nonce=*/21);
  ASSERT_TRUE(honest.ok());
  EXPECT_EQ(unseals_during(Testbed4::kEveAddr, honest.value()),
            std::make_pair(kerb::ErrorCode::kAuthFailed, uint64_t{1}));

  // Another service: a ticket sealed under the changepw key that names the
  // mail service. The first presentation unseals and memoises it, the
  // second is a memo hit; both are refused before the authenticator.
  auto changepw = t.bed.kdc().database().LookupEntry(kadmin::AdminPrincipal(t.bed.realm));
  ASSERT_TRUE(changepw.ok());
  krb4::Ticket4 forged;
  forged.service = t.bed.mail_principal();
  forged.client = oper;
  forged.client_addr = oper_host;
  forged.issued_at = server.clock().Now();
  forged.lifetime = ksim::kHour;
  forged.session_key = kcrypto::Prng(0xf00d).NextDesKey().bytes();
  krb4::ServiceCredentials forged_creds;
  forged_creds.session_key = kcrypto::DesKey(forged.session_key);
  forged_creds.sealed_ticket =
      krb4::Seal(kcrypto::DesKey(changepw.value().keys.front().key), forged);
  const ksim::Time now = server.clock().Now();
  EXPECT_EQ(unseals_during(Testbed4::kOperAddr,
                           RawAdminRequest(forged_creds, oper, oper_host, bob, 22, now)),
            std::make_pair(kerb::ErrorCode::kAuthFailed, uint64_t{1}));
  EXPECT_EQ(unseals_during(Testbed4::kOperAddr,
                           RawAdminRequest(forged_creds, oper, oper_host, bob, 23, now)),
            std::make_pair(kerb::ErrorCode::kAuthFailed, uint64_t{0}));

  // Expired: the operator's own memoised ticket, presented with a fresh
  // authenticator after its lifetime.
  const krb4::ServiceCredentials own =
      t.oper->credentials().at(kadmin::AdminPrincipal(t.bed.realm));
  t.bed.world().clock().Advance(9 * ksim::kHour);
  EXPECT_EQ(unseals_during(Testbed4::kOperAddr,
                           RawAdminRequest(own, oper, oper_host, bob, 24,
                                           server.clock().Now())),
            std::make_pair(kerb::ErrorCode::kExpired, uint64_t{0}));
  EXPECT_EQ(server.applied(), 1u);
}

// The memo is keyed by the key that opened the ticket, and the drain window
// is checked before the memo is consulted: a ticket under the old changepw
// kvno keeps working while that key drains and is refused once it closes,
// although the memo still holds its decoded ticket.
TEST(KadminTest, OldChangepwKvnoTicketDrainsThenIsRefusedDespiteTheMemo) {
  AdminBed t;
  kadmin::KadminServer& server = *t.bed.kadmin_server();
  server.policy().old_key_retain = 10 * ksim::kMinute;
  ksim::SimClock& clock = t.bed.world().clock();
  const krb4::Principal bob = t.bed.bob_principal();
  ASSERT_TRUE(t.admin->GetKvno(bob).ok());  // memoises the ticket under kvno 1

  auto rotated = t.admin->RotateKey(kadmin::AdminPrincipal(t.bed.realm));
  ASSERT_TRUE(rotated.ok()) << rotated.error().detail;
  EXPECT_EQ(rotated.value().kvno, 2u);

  clock.Advance(5 * ksim::kMinute);
  auto draining = t.admin->GetKvno(bob);
  EXPECT_TRUE(draining.ok()) << draining.error().detail;

  clock.Advance(6 * ksim::kMinute);
  auto drained = t.admin->GetKvno(bob);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), kerb::ErrorCode::kAuthFailed);
  EXPECT_EQ(server.applied(), 3u);
}

TEST(KadminTest, TgsKeyRotationHonorsOutstandingTgtV4) {
  AdminBed t;
  krb4::KdcDatabase& db = t.bed.kdc().database();
  ksim::SimClock& clock = t.bed.world().clock();

  // alice's TGT is sealed under the TGS key at kvno 1.
  ASSERT_TRUE(t.bed.alice().Login(Testbed4::kAlicePassword).ok());

  kcrypto::Prng prng(db.Kvno(t.bed.mail_principal()) + 98765);
  auto rotated = db.RotateKey(krb4::TgsPrincipal(t.bed.realm), prng.NextDesKey(),
                              clock.Now(), clock.Now() + 8 * ksim::kHour);
  ASSERT_TRUE(rotated.ok());
  EXPECT_EQ(rotated.value(), 2u);

  // The outstanding TGT still buys service tickets (ring fallback in the
  // TGS path), and a fresh login rides the new key.
  EXPECT_TRUE(t.bed.alice().GetServiceTicket(t.bed.file_principal()).ok());
  auto r = t.bed.alice().CallService(Testbed4::kMailAddr, t.bed.mail_principal(),
                                     /*want_mutual=*/true);
  ASSERT_TRUE(r.ok()) << r.error().detail;
  t.bed.alice().Logout();
  EXPECT_TRUE(t.bed.alice().Login(Testbed4::kAlicePassword).ok());
  EXPECT_TRUE(t.bed.alice().GetServiceTicket(t.bed.mail_principal()).ok());
}

TEST(KadminTest, TgsKeyRotationHonorsOutstandingTgtV5) {
  kattack::Testbed5 bed;
  krb4::KdcDatabase& db = bed.kdc().database();
  ksim::SimClock& clock = bed.world().clock();

  ASSERT_TRUE(bed.alice().Login(kattack::Testbed5::kAlicePassword).ok());

  kcrypto::Prng prng(24680);
  auto rotated = db.RotateKey(krb4::TgsPrincipal(bed.realm), prng.NextDesKey(),
                              clock.Now(), clock.Now() + 8 * ksim::kHour);
  ASSERT_TRUE(rotated.ok());

  EXPECT_TRUE(bed.alice().GetServiceTicket(bed.mail_principal()).ok());
  auto r = bed.alice().CallService(kattack::Testbed5::kMailAddr, bed.mail_principal(),
                                   /*want_mutual=*/true);
  ASSERT_TRUE(r.ok()) << r.error().detail;
  bed.alice().Logout();
  EXPECT_TRUE(bed.alice().Login(kattack::Testbed5::kAlicePassword).ok());
}

TEST(KadminTest, PrincipalCrudAndProtection) {
  AdminBed t;
  krb4::KdcDatabase& db = t.bed.kdc().database();
  const krb4::Principal carol{"carol", "", t.bed.realm};
  const krb4::Principal print{"print", "athena", t.bed.realm};

  auto add = t.admin->AddUser(carol, "initial-Entry_9!");
  ASSERT_TRUE(add.ok()) << add.error().detail;
  EXPECT_EQ(add.value().kvno, 1u);
  auto carol_client = t.bed.MakeClient(carol, ksim::NetAddress{0x0a000120, 1023});
  EXPECT_TRUE(carol_client->Login("initial-Entry_9!").ok());

  // Duplicates and weak bootstrap passwords are refused.
  EXPECT_EQ(t.admin->AddUser(carol, "second-Entry_10!").code(), kerb::ErrorCode::kPolicy);
  EXPECT_EQ(t.admin->AddUser(krb4::Principal{"dave", "", t.bed.realm}, "pw").code(),
            kerb::ErrorCode::kPolicy);

  auto svc = t.admin->AddService(print);
  ASSERT_TRUE(svc.ok()) << svc.error().detail;
  EXPECT_EQ(db.Kind(print), krb4::PrincipalKind::kService);
  ASSERT_TRUE(t.bed.alice().Login(Testbed4::kAlicePassword).ok());
  EXPECT_TRUE(t.bed.alice().GetServiceTicket(print).ok());

  // Deletion works, is idempotently NOT re-deletable, and the realm's
  // load-bearing principals are protected.
  ASSERT_TRUE(t.admin->DelPrincipal(carol).ok());
  carol_client->Logout();
  EXPECT_FALSE(carol_client->Login("initial-Entry_9!").ok());
  EXPECT_EQ(t.admin->DelPrincipal(carol).code(), kerb::ErrorCode::kNotFound);
  EXPECT_EQ(t.admin->DelPrincipal(krb4::TgsPrincipal(t.bed.realm)).code(),
            kerb::ErrorCode::kPolicy);
  EXPECT_EQ(t.admin->DelPrincipal(kadmin::AdminPrincipal(t.bed.realm)).code(),
            kerb::ErrorCode::kPolicy);
  EXPECT_TRUE(db.Has(krb4::TgsPrincipal(t.bed.realm)));
}

TEST(KadminTest, GetKeyMatchesDatabase) {
  AdminBed t;
  const krb4::Principal mail = t.bed.mail_principal();
  auto got = t.admin->GetKey(mail);
  ASSERT_TRUE(got.ok()) << got.error().detail;
  auto entry = t.bed.kdc().database().LookupEntry(mail);
  ASSERT_TRUE(entry.ok());
  const kcrypto::DesBlock& key_bytes = entry.value().keys.front().key;
  ASSERT_EQ(got.value().detail.size(), key_bytes.size());
  EXPECT_TRUE(std::equal(key_bytes.begin(), key_bytes.end(), got.value().detail.begin()));
  EXPECT_EQ(got.value().kvno, 1u);
}

TEST(KadminTest, ExactlyOnceAcrossLossyRetries) {
  TestbedConfig config;
  config.seed = 97531;
  ksim::FaultPlan plan;
  plan.link.drop_request = 0.2;
  plan.link.drop_reply = 0.2;
  plan.link.duplicate_request = 0.3;
  plan.link.delay = ksim::kMillisecond;
  plan.link.delay_jitter = 5 * ksim::kMillisecond;
  config.faults = plan;
  ksim::RetryPolicy retry;
  retry.max_attempts = 8;
  config.client_retry = retry;
  AdminBed t(config);

  const krb4::Principal bob = t.bed.bob_principal();
  auto ack = t.admin->ChangePassword(bob, "lossy-Network_1!");
  // Whatever the network did, the mutation applied at most once, and the
  // ack (when it arrived) reported the truth.
  EXPECT_LE(t.bed.kadmin_server()->applied(), 1u);
  if (ack.ok()) {
    EXPECT_EQ(t.bed.kdc().database().Kvno(bob), 2u);
    EXPECT_EQ(t.bed.kadmin_server()->applied(), 1u);
  } else {
    EXPECT_TRUE(kerb::IsRetryable(ack.error().code)) << ack.error().detail;
  }
}

}  // namespace
