// Error-path coverage for the V4 KDC and application server.

#include <gtest/gtest.h>

#include "src/attacks/testbed.h"

namespace krb4 {
namespace {

using kattack::Testbed4;

TEST(ErrorPaths4Test, GarbageToEveryPort) {
  Testbed4 bed;
  kcrypto::Prng prng(1);
  for (const auto& addr :
       {Testbed4::kAsAddr, Testbed4::kTgsAddr, Testbed4::kMailAddr, Testbed4::kFileAddr}) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_FALSE(
          bed.world().network().Call(Testbed4::kEveAddr, addr, prng.NextBytes(80)).ok());
    }
  }
}

TEST(ErrorPaths4Test, WrongMessageTypeToAsPort) {
  Testbed4 bed;
  // A well-formed TGS request delivered to the AS port.
  TgsRequest4 req;
  req.service = bed.mail_principal();
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kAsAddr,
                                          Frame4(MsgType::kTgsRequest, req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kBadFormat);
}

TEST(ErrorPaths4Test, TgsRejectsAuthenticatorClientMismatch) {
  // A valid TGT for alice presented with an authenticator claiming bob —
  // only possible for someone who knows the TGT session key, but the check
  // must exist regardless.
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  const auto& creds = *bed.alice().tgs_credentials();

  Authenticator4 auth;
  auth.client = bed.bob_principal();  // mismatch
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now();

  TgsRequest4 req;
  req.service = bed.mail_principal();
  req.sealed_tgt = creds.sealed_tgt;
  req.sealed_auth = Seal(creds.session_key, auth);
  req.lifetime = ksim::kHour;
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kTgsAddr,
                                          Frame4(MsgType::kTgsRequest, req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths4Test, TgsRejectsStaleAuthenticator) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  const auto& creds = *bed.alice().tgs_credentials();
  Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now() - ksim::kHour;  // stale
  TgsRequest4 req;
  req.service = bed.mail_principal();
  req.sealed_tgt = creds.sealed_tgt;
  req.sealed_auth = Seal(creds.session_key, auth);
  req.lifetime = ksim::kHour;
  auto reply = bed.world().network().Call(Testbed4::kAliceAddr, Testbed4::kTgsAddr,
                                          Frame4(MsgType::kTgsRequest, req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kSkew);
}

TEST(ErrorPaths4Test, TgsRejectsWrongSourceAddress) {
  Testbed4 bed;
  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  const auto& creds = *bed.alice().tgs_credentials();
  Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now();
  TgsRequest4 req;
  req.service = bed.mail_principal();
  req.sealed_tgt = creds.sealed_tgt;
  req.sealed_auth = Seal(creds.session_key, auth);
  req.lifetime = ksim::kHour;
  // Honest delivery from eve's own host: the address binding fires.
  auto reply = bed.world().network().Call(Testbed4::kEveAddr, Testbed4::kTgsAddr,
                                          Frame4(MsgType::kTgsRequest, req));
  EXPECT_EQ(reply.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths4Test, ServerRejectsTicketSealedWithWrongKey) {
  Testbed4 bed;
  kcrypto::Prng prng(2);
  Ticket4 forged;
  forged.service = bed.mail_principal();
  forged.client = bed.alice_principal();
  forged.client_addr = Testbed4::kAliceAddr.host;
  forged.issued_at = bed.world().clock().Now();
  forged.lifetime = ksim::kHour;
  forged.session_key = prng.NextDesKey().bytes();

  kcrypto::DesKey session(forged.session_key);
  Authenticator4 auth;
  auth.client = bed.alice_principal();
  auth.client_addr = Testbed4::kAliceAddr.host;
  auth.timestamp = bed.world().clock().Now();

  ApRequest4 req;
  req.sealed_ticket = Seal(prng.NextDesKey(), forged);  // not the mail key
  req.sealed_auth = Seal(session, auth);
  auto verdict = bed.mail_server().VerifyApRequest(req, Testbed4::kAliceAddr.host);
  EXPECT_EQ(verdict.code(), kerb::ErrorCode::kAuthFailed);
}

TEST(ErrorPaths4Test, ForgedTicketWithRealKeyWouldWork_KerckhoffsBaseline) {
  // Sanity check of the threat model: the ONLY thing protecting tickets is
  // the service key. An adversary holding it forges freely — "Kerberos is
  // secure if and only if ... these client and server keys are secret."
  Testbed4 bed;
  kcrypto::Prng prng(3);
  Ticket4 forged;
  forged.service = bed.mail_principal();
  forged.client = krb4::Principal::User("made-up-user", bed.realm);
  forged.client_addr = Testbed4::kEveAddr.host;
  forged.issued_at = bed.world().clock().Now();
  forged.lifetime = ksim::kHour;
  forged.session_key = prng.NextDesKey().bytes();

  kcrypto::DesKey session(forged.session_key);
  Authenticator4 auth;
  auth.client = forged.client;
  auth.client_addr = Testbed4::kEveAddr.host;
  auth.timestamp = bed.world().clock().Now();

  ApRequest4 req;
  req.sealed_ticket = Seal(bed.mail_key(), forged);  // the compromised key
  req.sealed_auth = Seal(session, auth);
  auto verdict = bed.mail_server().VerifyApRequest(req, Testbed4::kEveAddr.host);
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value().client.name, "made-up-user");
}

}  // namespace
}  // namespace krb4
