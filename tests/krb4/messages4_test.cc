#include "src/krb4/messages.h"

#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/obs/kobs.h"

namespace krb4 {
namespace {

kcrypto::Prng MakePrng() { return kcrypto::Prng(77); }

Principal Alice() { return Principal::User("alice", "ATHENA.SIM"); }
Principal Rlogin() { return Principal::Service("rlogin", "myhost", "ATHENA.SIM"); }

TEST(PrincipalTest, ToStringForms) {
  EXPECT_EQ(Alice().ToString(), "alice@ATHENA.SIM");
  EXPECT_EQ(Rlogin().ToString(), "rlogin.myhost@ATHENA.SIM");
  EXPECT_EQ(TgsPrincipal("R").ToString(), "krbtgt.R@R");
}

TEST(PrincipalTest, EncodeDecodeRoundTrip) {
  kenc::Writer w;
  kenc::Put(w, Rlogin());
  kenc::Reader r(w.Peek());
  Principal decoded;
  ASSERT_TRUE(kenc::Get(r, decoded));
  EXPECT_TRUE(decoded == Rlogin());
}

TEST(Seal4Test, RoundTrip) {
  auto prng = MakePrng();
  kcrypto::DesKey key = prng.NextDesKey();
  kerb::Bytes plain = kerb::ToBytes("some protocol body");
  kerb::Bytes sealed = Seal4(key, plain);
  EXPECT_EQ(sealed.size() % 8, 0u);
  auto unsealed = Unseal4(key, sealed);
  ASSERT_TRUE(unsealed.ok());
  EXPECT_EQ(unsealed.value(), plain);
}

TEST(Seal4Test, WrongKeyDetected) {
  auto prng = MakePrng();
  kcrypto::DesKey key = prng.NextDesKey();
  kcrypto::DesKey other = prng.NextDesKey();
  kerb::Bytes sealed = Seal4(key, kerb::ToBytes("payload"));
  auto unsealed = Unseal4(other, sealed);
  EXPECT_FALSE(unsealed.ok());
  EXPECT_EQ(unsealed.error().code, kerb::ErrorCode::kIntegrity);
}

TEST(Seal4Test, WrongKeyIsDetectable_ThePasswordGuessingPredicate) {
  // This detectability is a double-edged sword: it is exactly what lets an
  // offline attacker confirm a password guess (experiment E4).
  auto prng = MakePrng();
  kcrypto::DesKey real_key = prng.NextDesKey();
  kerb::Bytes sealed = Seal4(real_key, kerb::ToBytes("AS reply body"));
  int hits = 0;
  for (int i = 0; i < 64; ++i) {
    kcrypto::DesKey guess = prng.NextDesKey();
    if (Unseal4(guess, sealed).ok()) {
      ++hits;
    }
  }
  EXPECT_EQ(hits, 0);                       // wrong guesses rejected...
  EXPECT_TRUE(Unseal4(real_key, sealed).ok());  // ...right key confirmed
}

TEST(Ticket4Test, EncodeDecodeRoundTrip) {
  auto prng = MakePrng();
  Ticket4 t;
  t.service = Rlogin();
  t.client = Alice();
  t.client_addr = 0x0a000101;
  t.issued_at = 1000 * ksim::kSecond;
  t.lifetime = 8 * ksim::kHour;
  t.session_key = prng.NextDesKey().bytes();

  auto decoded = kenc::Decode<Ticket4>(kenc::Encode(t));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().service == t.service);
  EXPECT_TRUE(decoded.value().client == t.client);
  EXPECT_EQ(decoded.value().client_addr, t.client_addr);
  EXPECT_EQ(decoded.value().issued_at, t.issued_at);
  EXPECT_EQ(decoded.value().lifetime, t.lifetime);
  EXPECT_EQ(decoded.value().session_key, t.session_key);
}

TEST(Ticket4Test, SealUnsealWithServiceKey) {
  auto prng = MakePrng();
  kcrypto::DesKey service_key = prng.NextDesKey();
  Ticket4 t;
  t.service = Rlogin();
  t.client = Alice();
  t.session_key = prng.NextDesKey().bytes();
  kerb::Bytes sealed = Seal(service_key, t);
  auto opened = Unseal<Ticket4>(service_key, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().session_key, t.session_key);
  EXPECT_FALSE(Unseal<Ticket4>(prng.NextDesKey(), sealed).ok());
}

TEST(Ticket4Test, Expiry) {
  Ticket4 t;
  t.issued_at = 100 * ksim::kSecond;
  t.lifetime = 10 * ksim::kSecond;
  EXPECT_FALSE(t.Expired(105 * ksim::kSecond));
  EXPECT_FALSE(t.Expired(110 * ksim::kSecond));
  EXPECT_TRUE(t.Expired(111 * ksim::kSecond));
}

TEST(Authenticator4Test, SealUnsealRoundTrip) {
  auto prng = MakePrng();
  kcrypto::DesKey session = prng.NextDesKey();
  Authenticator4 a;
  a.client = Alice();
  a.client_addr = 42;
  a.timestamp = 555 * ksim::kSecond;
  auto opened = Unseal<Authenticator4>(session, Seal(session, a));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().client == a.client);
  EXPECT_EQ(opened.value().timestamp, a.timestamp);
}

TEST(Authenticator4Test, NotConfusableWithTicket) {
  // Structural check: a sealed authenticator must not unseal-and-parse as a
  // ticket under the same key.
  auto prng = MakePrng();
  kcrypto::DesKey key = prng.NextDesKey();
  Authenticator4 a;
  a.client = Alice();
  a.timestamp = 1;
  kerb::Bytes sealed = Seal(key, a);
  auto unsealed = Unseal4(key, sealed);
  ASSERT_TRUE(unsealed.ok());
  EXPECT_FALSE(kenc::Decode<Ticket4>(unsealed.value()).ok());
}

TEST(AsExchangeTest, RequestAndReplyRoundTrip) {
  auto prng = MakePrng();
  AsRequest4 req;
  req.client = Alice();
  req.service_realm = "ATHENA.SIM";
  req.lifetime = ksim::kHour;
  auto decoded_req = kenc::Decode<AsRequest4>(kenc::Encode(req));
  ASSERT_TRUE(decoded_req.ok());
  EXPECT_TRUE(decoded_req.value().client == Alice());
  EXPECT_EQ(decoded_req.value().lifetime, ksim::kHour);

  ReplyBody4 body;
  body.session_key = prng.NextDesKey().bytes();
  body.sealed_ticket = prng.NextBytes(40);
  body.issued_at = 9;
  body.lifetime = 10;
  auto decoded_body = kenc::Decode<ReplyBody4>(kenc::Encode(body));
  ASSERT_TRUE(decoded_body.ok());
  EXPECT_EQ(decoded_body.value().session_key, body.session_key);
  EXPECT_EQ(decoded_body.value().sealed_ticket, body.sealed_ticket);
}

TEST(TgsExchangeTest, RequestAndReplyRoundTrip) {
  auto prng = MakePrng();
  TgsRequest4 req;
  req.service = Rlogin();
  req.sealed_tgt = prng.NextBytes(48);
  req.sealed_auth = prng.NextBytes(24);
  req.lifetime = 2 * ksim::kHour;
  auto decoded = kenc::Decode<TgsRequest4>(kenc::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sealed_tgt, req.sealed_tgt);
  EXPECT_EQ(decoded.value().sealed_auth, req.sealed_auth);

  ReplyBody4 body;
  body.session_key = prng.NextDesKey().bytes();
  body.sealed_ticket = prng.NextBytes(56);
  auto decoded_body = kenc::Decode<ReplyBody4>(kenc::Encode(body));
  ASSERT_TRUE(decoded_body.ok());
  EXPECT_EQ(decoded_body.value().sealed_ticket, body.sealed_ticket);
}

TEST(ApExchangeTest, RequestRoundTripWithAppData) {
  auto prng = MakePrng();
  ApRequest4 req;
  req.sealed_ticket = prng.NextBytes(48);
  req.sealed_auth = prng.NextBytes(24);
  req.want_mutual = true;
  req.app_data = kerb::ToBytes("DELETE /archive");
  auto decoded = kenc::Decode<ApRequest4>(kenc::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().want_mutual);
  EXPECT_EQ(decoded.value().app_data, req.app_data);
}

TEST(ApExchangeTest, MutualReplyVerifies) {
  auto prng = MakePrng();
  kcrypto::DesKey session = prng.NextDesKey();
  ksim::Time auth_time = 777 * ksim::kSecond;
  kerb::Bytes reply = MakeApReply4(session, auth_time);
  EXPECT_TRUE(VerifyApReply4(session, reply, auth_time).ok());
  // Wrong time or wrong key fails.
  EXPECT_FALSE(VerifyApReply4(session, reply, auth_time + 1).ok());
  EXPECT_FALSE(VerifyApReply4(prng.NextDesKey(), reply, auth_time).ok());
}

TEST(V4LifetimeTest, UnitRoundTripAndSaturation) {
  EXPECT_EQ(LifetimeToV4Units(0), 0);
  EXPECT_EQ(LifetimeToV4Units(1), 1);  // rounds up to one unit
  EXPECT_EQ(LifetimeToV4Units(5 * ksim::kMinute), 1);
  EXPECT_EQ(LifetimeToV4Units(5 * ksim::kMinute + 1), 2);
  EXPECT_EQ(LifetimeToV4Units(8 * ksim::kHour), 96);
  EXPECT_EQ(LifetimeToV4Units(kV4MaxLifetime), 255);
  // The one-byte cap: nothing representable beyond 21h15m.
  EXPECT_EQ(LifetimeToV4Units(100 * ksim::kHour), 255);
  EXPECT_EQ(V4UnitsToLifetime(255), 21 * ksim::kHour + 15 * ksim::kMinute);
  for (int units = 0; units <= 255; ++units) {
    EXPECT_EQ(LifetimeToV4Units(V4UnitsToLifetime(static_cast<uint8_t>(units))), units);
  }
}

// The KDC's one-pass reply equals sealing the ticket, then the reply body
// that carries it, appended after whatever the buffer held: for principals
// of many lengths (so the ticket and the reply end at every offset within a
// block) and random keys. It emits the same two kSeal events.
TEST(SealedReply4Test, MatchesSealingTheTicketThenTheBody) {
  kcrypto::Prng prng(78);
  auto name = [&prng](size_t max_len) {
    std::string s(prng.NextBelow(max_len + 1), 'a');
    for (char& c : s) {
      c = static_cast<char>('a' + prng.NextBelow(26));
    }
    return s;
  };
  for (int round = 0; round < 200; ++round) {
    Ticket4 ticket;
    ticket.service = Principal{name(12), name(12), name(24)};
    ticket.client = Principal{name(16), name(8), name(24)};
    ticket.client_addr = static_cast<uint32_t>(prng.NextU64());
    ticket.issued_at = static_cast<ksim::Time>(prng.NextBelow(1ull << 40));
    ticket.lifetime = static_cast<ksim::Duration>(prng.NextBelow(1ull << 30));
    ticket.session_key = prng.NextDesKey().bytes();
    const kcrypto::DesKey ticket_key = prng.NextDesKey();
    const kcrypto::DesKey reply_key = prng.NextDesKey();
    const kerb::Bytes prefix = prng.NextBytes(prng.NextBelow(10));

    ReplyBody4 body;
    body.session_key = ticket.session_key;
    body.sealed_ticket = Seal(ticket_key, ticket);
    body.issued_at = ticket.issued_at;
    body.lifetime = ticket.lifetime;
    kerb::Bytes want = prefix;
    kerb::Append(want, Seal(reply_key, body));

    kerb::Bytes got = prefix;
    kobs::ScopedTrace trace;
    AppendSealedReply4(ticket, ticket_key, reply_key, got);
    ASSERT_EQ(got, want) << "round " << round;
    EXPECT_EQ(trace->Count(kobs::Ev::kSeal), 2u);
    EXPECT_EQ(trace->CountA(kobs::Ev::kSeal, body.sealed_ticket.size()), 1u);
    EXPECT_EQ(trace->CountA(kobs::Ev::kSeal, want.size() - prefix.size()), 1u);
  }
}

TEST(FramingTest, RoundTripAndVersionCheck) {
  kerb::Bytes body = kerb::ToBytes("body");
  kerb::Bytes framed = Frame4(MsgType::kApRequest, body);
  auto unframed = Unframe4(framed);
  ASSERT_TRUE(unframed.ok());
  EXPECT_EQ(unframed.value().first, MsgType::kApRequest);
  EXPECT_EQ(kerb::Bytes(unframed.value().second.begin(), unframed.value().second.end()), body);

  framed[0] = 5;  // wrong protocol version
  EXPECT_FALSE(Unframe4(framed).ok());
}

}  // namespace
}  // namespace krb4
