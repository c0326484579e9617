// Pins the exact bytes of KDC replies produced by deterministic simulated
// exchanges. The KdcCore refactor (PR 2) must leave the single-threaded sim
// path bit-identical: every AS and TGS reply, V4 and V5, bare and
// preauthenticated, is digested here and compared against values captured
// from the pre-refactor handlers.
//
// If a legitimate protocol change ever invalidates these digests, re-run
// with --gtest_also_run_disabled_tests=0 and read the failure message — it
// prints the new digest to pin.

#include <gtest/gtest.h>

#include "src/attacks/kdcload.h"
#include "src/attacks/testbed.h"
#include "src/attacks/testbed5.h"
#include "src/common/hex.h"
#include "src/crypto/dh.h"
#include "src/crypto/md4.h"
#include "src/crypto/str2key.h"

namespace {

using kattack::Testbed4;
using kattack::Testbed5;
using kattack::Testbed5Config;

// Digest of every KDC reply seen on the wire, in order, length-prefixed so
// reply boundaries are part of the digest.
class KdcReplyDigest : public ksim::Adversary {
 public:
  bool OnReply(const ksim::Message& request, kerb::Bytes& reply) override {
    if (request.dst.port == 88 || request.dst.port == 750) {
      Add(reply);
    }
    return false;
  }

  void Add(kerb::BytesView reply) {
    uint8_t len[4] = {static_cast<uint8_t>(reply.size() >> 24),
                      static_cast<uint8_t>(reply.size() >> 16),
                      static_cast<uint8_t>(reply.size() >> 8),
                      static_cast<uint8_t>(reply.size())};
    state_.Update(kerb::BytesView(len, 4));
    state_.Update(reply);
    ++replies_;
  }

  std::string HexDigest() {
    auto d = state_.Final();
    return kerb::HexEncode(kerb::BytesView(d.data(), d.size()));
  }
  int replies() const { return replies_; }

 private:
  kcrypto::Md4State state_;
  int replies_ = 0;
};

TEST(KdcCaptureTest, V4RepliesByteIdentical) {
  Testbed4 bed;
  KdcReplyDigest digest;
  bed.world().network().SetAdversary(&digest);

  ASSERT_TRUE(bed.alice().Login(Testbed4::kAlicePassword).ok());
  ASSERT_TRUE(bed.alice().GetServiceTicket(bed.mail_principal()).ok());
  ASSERT_TRUE(bed.alice().GetServiceTicket(bed.file_principal()).ok());
  bed.world().clock().Advance(ksim::kMinute);
  ASSERT_TRUE(bed.bob().Login(Testbed4::kBobPassword).ok());
  ASSERT_TRUE(bed.bob().GetServiceTicket(bed.backup_principal()).ok());

  EXPECT_EQ(digest.replies(), 5);
  EXPECT_EQ(digest.HexDigest(), "1f8eec6c922a90f285b8964dc044517e") << "V4 KDC replies changed";
}

// The PK-preauthenticated V4 AS reply, {{body}K_c}K_dh behind the KDC's DH
// public: alice and, a minute later, bob log in through the core's AS
// handler, and DoPkLogin4 opens each reply end to end.
TEST(KdcCaptureTest, V4PkPreauthRepliesByteIdentical) {
  Testbed4 bed;
  const kcrypto::DhGroup group = kcrypto::OakleyGroup1();
  bed.kdc().EnablePkPreauth(group);
  KdcReplyDigest digest;
  kattack::KdcHandler handler = [&](const ksim::Message& msg, krb4::KdcContext& ctx) {
    auto reply = bed.kdc().HandleAs(msg, ctx);
    if (reply.ok()) {
      digest.Add(reply.value());
    }
    return reply;
  };
  krb4::KdcContext ctx{kcrypto::Prng(0x9c4)};
  kcrypto::Prng client_prng(0x9c5);
  auto login = [&](const krb4::Principal& user, const char* password,
                   const ksim::NetAddress& src) {
    const kcrypto::DesKey key = kcrypto::StringToKey(password, user.Salt());
    return kattack::DoPkLogin4(handler, user, key, group, bed.world().clock().Now(), ctx,
                               client_prng, src)
        .ok();
  };

  ASSERT_TRUE(login(bed.alice_principal(), Testbed4::kAlicePassword, Testbed4::kAliceAddr));
  bed.world().clock().Advance(ksim::kMinute);
  ASSERT_TRUE(login(bed.bob_principal(), Testbed4::kBobPassword, Testbed4::kBobAddr));

  EXPECT_EQ(digest.replies(), 2);
  EXPECT_EQ(digest.HexDigest(), "a9b5feb0bb639e3e4a21568fc711b43c") << "V4 PK KDC replies changed";
}

TEST(KdcCaptureTest, V5RepliesByteIdentical) {
  Testbed5 bed;
  KdcReplyDigest digest;
  bed.world().network().SetAdversary(&digest);

  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  krb5::TgsRequest5 req;
  req.service = bed.mail_principal();
  req.lifetime = ksim::kHour;
  ASSERT_TRUE(bed.alice().RawTgsRequest(bed.realm, req).ok());
  bed.world().clock().Advance(ksim::kMinute);
  ASSERT_TRUE(bed.bob().Login(Testbed5::kBobPassword).ok());

  EXPECT_EQ(digest.replies(), 3);
  EXPECT_EQ(digest.HexDigest(), "3fcbac0036409b5c1a460d4e2a3ea391") << "V5 KDC replies changed";
}

TEST(KdcCaptureTest, V5PreauthRepliesByteIdentical) {
  Testbed5Config config;
  config.kdc_policy.require_preauth = true;
  config.client_options.use_preauth = true;
  Testbed5 bed(config);
  KdcReplyDigest digest;
  bed.world().network().SetAdversary(&digest);

  ASSERT_TRUE(bed.alice().Login(Testbed5::kAlicePassword).ok());
  krb5::TgsRequest5 req;
  req.service = bed.file_principal();
  req.lifetime = ksim::kHour;
  ASSERT_TRUE(bed.alice().RawTgsRequest(bed.realm, req).ok());

  EXPECT_EQ(digest.replies(), 2);
  EXPECT_EQ(digest.HexDigest(), "2ca7de0797c407d141af5429e963705d") << "V5 preauth KDC replies changed";
}

}  // namespace
