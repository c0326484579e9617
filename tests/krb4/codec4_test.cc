// Conformance of the layout codec (src/encoding/layout.h) for every
// fixed-order message — V4, kadmin and the cluster bodies — against an
// independent oracle: the bytes built field by field with kenc::Writer,
// without the layouts. For randomized structs, with empty and long strings
// and blobs, each message must encode to the oracle's bytes and decode them
// back; every truncation must fail (kBadFormat; kIntegrity inside a sealed
// KRB_PRIV); one trailing byte must be ignored by exactly the messages V4
// read as a prefix and rejected by the rest. Then the checks that ride on
// the decode: the admin checksum and op range, the announce limits, the
// referral's owner, and a list count its bytes cannot hold.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/admin/messages.h"
#include "src/cluster/cluster.h"
#include "src/cluster/population.h"
#include "src/cluster/wire.h"
#include "src/crypto/checksum.h"
#include "src/crypto/modes.h"
#include "src/crypto/prng.h"
#include "src/krb4/kdcstore.h"
#include "src/krb4/krbpriv.h"
#include "src/krb4/messages.h"
#include "src/sim/world.h"

namespace {

// The largest single allocation while armed, to show a decode of a huge
// count allocates nothing of its size.
std::atomic<bool> g_armed{false};
std::atomic<size_t> g_largest{0};

void* Allocate(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed) && size > g_largest.load()) {
    g_largest.store(size);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

using kcrypto::Prng;
using krb4::Principal;

// ------------------------------------------------------------ random values

std::string RandomString(Prng& prng) {
  static constexpr size_t kLengths[] = {0, 1, 7, 15, 16, 64, 1000};
  std::string s(kLengths[prng.NextBelow(std::size(kLengths))], ' ');
  for (char& c : s) {
    c = static_cast<char>('a' + prng.NextBelow(26));
  }
  return s;
}

kerb::Bytes RandomBlob(Prng& prng) {
  static constexpr size_t kLengths[] = {0, 1, 8, 40, 255, 2048};
  return prng.NextBytes(kLengths[prng.NextBelow(std::size(kLengths))]);
}

Principal RandomPrincipal(Prng& prng) {
  return Principal{RandomString(prng), RandomString(prng), RandomString(prng)};
}

kcrypto::DesBlock RandomKey(Prng& prng) {
  kcrypto::DesBlock key;
  prng.Fill(key.data(), key.size());
  return key;
}

int64_t RandomTime(Prng& prng) { return static_cast<int64_t>(prng.NextU64()); }
uint32_t RandomU32(Prng& prng) { return static_cast<uint32_t>(prng.NextU64()); }
uint16_t RandomU16(Prng& prng) { return static_cast<uint16_t>(prng.NextU64()); }

kcluster::RingAnnounce RandomView(Prng& prng) {
  kcluster::RingAnnounce view;
  view.epoch = RandomU32(prng);
  view.ring.seed = prng.NextU64();
  view.ring.vnodes = 1 + static_cast<uint32_t>(prng.NextBelow(kcluster::kMaxRingVnodes));
  view.as_port = RandomU16(prng);
  view.tgs_port = RandomU16(prng);
  view.ctl_port = RandomU16(prng);
  const size_t members = 1 + prng.NextBelow(prng.NextBelow(2) == 0 ? 4 : 256);
  for (size_t i = 0; i < members; ++i) {
    view.members.push_back({(prng.NextU64() << 8) | i, RandomU32(prng)});  // distinct ids
  }
  return view;
}

// ------------------------------------------------------------ the oracle

void PutPrincipal(kenc::Writer& w, const Principal& p) {
  w.PutString(p.name);
  w.PutString(p.instance);
  w.PutString(p.realm);
}

void PutKey(kenc::Writer& w, const kcrypto::DesBlock& key) {
  w.PutBytes(kerb::BytesView(key.data(), key.size()));
}

void PutView(kenc::Writer& w, const kcluster::RingAnnounce& view) {
  w.PutU32(view.epoch);
  w.PutU64(view.ring.seed);
  w.PutU32(view.ring.vnodes);
  w.PutU16(view.as_port);
  w.PutU16(view.tgs_port);
  w.PutU16(view.ctl_port);
  w.PutU32(static_cast<uint32_t>(view.members.size()));
  for (const kcluster::RingMember& m : view.members) {
    w.PutU64(m.node_id);
    w.PutU32(m.host);
  }
}

// The MD4 trailer a sealed admin body ends in, appended by hand.
void PutChecksumByHand(kenc::Writer& w) {
  const kerb::Bytes sum = kcrypto::ComputeChecksum(kcrypto::ChecksumType::kMd4, w.Peek());
  w.PutLengthPrefixed(sum);
}

// Each message's Spec: a random instance, the oracle bytes, the encode and
// decode its callers use, and whether V4 read it as a prefix.
template <typename M>
struct Spec;

// The encode and decode of a message whose callers use kenc::Encode/Decode.
template <typename M>
struct LayoutSpec {
  static kerb::Bytes Encode(const M& m) { return kenc::Encode(m); }
  static kerb::Result<M> Decode(kerb::BytesView b) { return kenc::Decode<M>(b); }
};

template <>
struct Spec<Principal> {
  static constexpr bool kPrefix = false;
  static Principal Random(Prng& prng) { return RandomPrincipal(prng); }
  static void Oracle(kenc::Writer& w, const Principal& p) { PutPrincipal(w, p); }
  static kerb::Bytes Encode(const Principal& m) {
    kenc::Writer w;
    kenc::Put(w, m);
    return w.Take();
  }
  static kerb::Result<Principal> Decode(kerb::BytesView b) {
    kenc::Reader r(b);
    Principal p;
    if (!kenc::Get(r, p) || !r.AtEnd()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "principal");
    }
    return p;
  }
};

template <>
struct Spec<krb4::Ticket4> : LayoutSpec<krb4::Ticket4> {
  static constexpr bool kPrefix = false;
  static krb4::Ticket4 Random(Prng& prng) {
    return {RandomPrincipal(prng), RandomPrincipal(prng), RandomU32(prng),
            RandomTime(prng),      RandomTime(prng),      RandomKey(prng)};
  }
  static void Oracle(kenc::Writer& w, const krb4::Ticket4& t) {
    PutPrincipal(w, t.service);
    PutPrincipal(w, t.client);
    w.PutU32(t.client_addr);
    w.PutU64(static_cast<uint64_t>(t.issued_at));
    w.PutU64(static_cast<uint64_t>(t.lifetime));
    PutKey(w, t.session_key);
  }
};

template <>
struct Spec<krb4::Authenticator4> : LayoutSpec<krb4::Authenticator4> {
  static constexpr bool kPrefix = false;
  static krb4::Authenticator4 Random(Prng& prng) {
    return {RandomPrincipal(prng), RandomU32(prng), RandomTime(prng)};
  }
  static void Oracle(kenc::Writer& w, const krb4::Authenticator4& a) {
    PutPrincipal(w, a.client);
    w.PutU32(a.client_addr);
    w.PutU64(static_cast<uint64_t>(a.timestamp));
  }
};

template <>
struct Spec<krb4::AsRequest4> : LayoutSpec<krb4::AsRequest4> {
  static constexpr bool kPrefix = true;
  static krb4::AsRequest4 Random(Prng& prng) {
    return {RandomPrincipal(prng), RandomString(prng), RandomTime(prng)};
  }
  static void Oracle(kenc::Writer& w, const krb4::AsRequest4& r) {
    PutPrincipal(w, r.client);
    w.PutString(r.service_realm);
    w.PutU64(static_cast<uint64_t>(r.lifetime));
  }
};

template <>
struct Spec<krb4::AsPkRequest4> : LayoutSpec<krb4::AsPkRequest4> {
  static constexpr bool kPrefix = true;
  static krb4::AsPkRequest4 Random(Prng& prng) {
    return {RandomPrincipal(prng), RandomString(prng), RandomTime(prng), RandomBlob(prng),
            RandomBlob(prng)};
  }
  static void Oracle(kenc::Writer& w, const krb4::AsPkRequest4& r) {
    PutPrincipal(w, r.client);
    w.PutString(r.service_realm);
    w.PutU64(static_cast<uint64_t>(r.lifetime));
    w.PutLengthPrefixed(r.client_pub);
    w.PutLengthPrefixed(r.sealed_padata);
  }
};

template <>
struct Spec<krb4::TgsRequest4> : LayoutSpec<krb4::TgsRequest4> {
  static constexpr bool kPrefix = true;
  static krb4::TgsRequest4 Random(Prng& prng) {
    return {RandomPrincipal(prng), RandomBlob(prng), RandomBlob(prng), RandomTime(prng)};
  }
  static void Oracle(kenc::Writer& w, const krb4::TgsRequest4& r) {
    PutPrincipal(w, r.service);
    w.PutLengthPrefixed(r.sealed_tgt);
    w.PutLengthPrefixed(r.sealed_auth);
    w.PutU64(static_cast<uint64_t>(r.lifetime));
  }
};

template <>
struct Spec<krb4::ReplyBody4> : LayoutSpec<krb4::ReplyBody4> {
  static constexpr bool kPrefix = true;
  static krb4::ReplyBody4 Random(Prng& prng) {
    return {RandomKey(prng), RandomBlob(prng), RandomTime(prng), RandomTime(prng)};
  }
  static void Oracle(kenc::Writer& w, const krb4::ReplyBody4& b) {
    PutKey(w, b.session_key);
    w.PutLengthPrefixed(b.sealed_ticket);
    w.PutU64(static_cast<uint64_t>(b.issued_at));
    w.PutU64(static_cast<uint64_t>(b.lifetime));
  }
};

template <>
struct Spec<krb4::ApRequest4> : LayoutSpec<krb4::ApRequest4> {
  static constexpr bool kPrefix = true;
  static krb4::ApRequest4 Random(Prng& prng) {
    return {RandomBlob(prng), RandomBlob(prng), prng.NextBelow(2) == 1, RandomBlob(prng),
            RandomBlob(prng)};
  }
  static void Oracle(kenc::Writer& w, const krb4::ApRequest4& r) {
    w.PutLengthPrefixed(r.sealed_ticket);
    w.PutLengthPrefixed(r.sealed_auth);
    w.PutU8(r.want_mutual ? 1 : 0);
    w.PutLengthPrefixed(r.app_data);
    w.PutLengthPrefixed(r.challenge_response);
  }
};

template <>
struct Spec<krb4::AsPkReply4> : LayoutSpec<krb4::AsPkReply4> {
  static constexpr bool kPrefix = true;
  static krb4::AsPkReply4 Random(Prng& prng) { return {RandomBlob(prng), RandomBlob(prng)}; }
  static void Oracle(kenc::Writer& w, const krb4::AsPkReply4& r) {
    w.PutLengthPrefixed(r.server_pub);
    w.PutLengthPrefixed(r.sealed_reply);
  }
};

template <>
struct Spec<krb4::Error4> : LayoutSpec<krb4::Error4> {
  static constexpr bool kPrefix = true;
  static krb4::Error4 Random(Prng& prng) { return {RandomU32(prng), RandomBlob(prng)}; }
  static void Oracle(kenc::Writer& w, const krb4::Error4& e) {
    w.PutU32(e.code);
    w.PutLengthPrefixed(e.e_data);
  }
};

template <>
struct Spec<kadmin::AdminRequest> : LayoutSpec<kadmin::AdminRequest> {
  static constexpr bool kPrefix = false;
  static kadmin::AdminRequest Random(Prng& prng) {
    return {RandomBlob(prng), RandomBlob(prng), RandomBlob(prng)};
  }
  static void Oracle(kenc::Writer& w, const kadmin::AdminRequest& r) {
    w.PutLengthPrefixed(r.sealed_ticket);
    w.PutLengthPrefixed(r.sealed_auth);
    w.PutLengthPrefixed(r.sealed_req);
  }
};

template <>
struct Spec<kadmin::AdminReqBody> {
  static constexpr bool kPrefix = false;
  static kadmin::AdminReqBody Random(Prng& prng) {
    return {static_cast<kadmin::AdminOp>(1 + prng.NextBelow(6)),
            RandomPrincipal(prng),
            prng.NextU64(),
            RandomTime(prng),
            RandomU32(prng),
            static_cast<uint8_t>(prng.NextU64()),
            RandomBlob(prng)};
  }
  static void Oracle(kenc::Writer& w, const kadmin::AdminReqBody& b) {
    w.PutU8(static_cast<uint8_t>(b.op));
    PutPrincipal(w, b.target);
    w.PutU64(b.nonce);
    w.PutU64(static_cast<uint64_t>(b.timestamp));
    w.PutU32(b.sender_addr);
    w.PutU8(b.direction);
    w.PutLengthPrefixed(b.payload);
    PutChecksumByHand(w);
  }
  static kerb::Bytes Encode(const kadmin::AdminReqBody& b) { return kadmin::EncodeChecked(b); }
  static kerb::Result<kadmin::AdminReqBody> Decode(kerb::BytesView b) {
    return kadmin::DecodeChecked<kadmin::AdminReqBody>(b);
  }
};

template <>
struct Spec<kadmin::AdminReplyBody> {
  static constexpr bool kPrefix = false;
  static kadmin::AdminReplyBody Random(Prng& prng) {
    return {prng.NextU64(),  RandomTime(prng), static_cast<uint8_t>(prng.NextU64()),
            RandomU32(prng), RandomU32(prng),  RandomBlob(prng)};
  }
  static void Oracle(kenc::Writer& w, const kadmin::AdminReplyBody& b) {
    w.PutU64(b.nonce_plus_one);
    w.PutU64(static_cast<uint64_t>(b.timestamp));
    w.PutU8(b.direction);
    w.PutU32(b.code);
    w.PutU32(b.kvno);
    w.PutLengthPrefixed(b.detail);
    PutChecksumByHand(w);
  }
  static kerb::Bytes Encode(const kadmin::AdminReplyBody& b) { return kadmin::EncodeChecked(b); }
  static kerb::Result<kadmin::AdminReplyBody> Decode(kerb::BytesView b) {
    return kadmin::DecodeChecked<kadmin::AdminReplyBody>(b);
  }
};

template <>
struct Spec<kcluster::RingAnnounce> : LayoutSpec<kcluster::RingAnnounce> {
  static constexpr bool kPrefix = false;
  static kcluster::RingAnnounce Random(Prng& prng) { return RandomView(prng); }
  static void Oracle(kenc::Writer& w, const kcluster::RingAnnounce& v) { PutView(w, v); }
  // The node's ring-frame path: decode, then the announce limits.
  static kerb::Result<kcluster::RingAnnounce> Decode(kerb::BytesView b) {
    auto view = kenc::Decode<kcluster::RingAnnounce>(b);
    if (view.ok()) {
      if (auto valid = kcluster::CheckAnnounce(view.value()); !valid.ok()) {
        return valid.error();
      }
    }
    return view;
  }
};

template <>
struct Spec<kcluster::ReferralBody> {
  static constexpr bool kPrefix = false;
  static kcluster::ReferralBody Random(Prng& prng) {
    kcluster::ReferralBody body{RandomView(prng), 0};
    body.owner_node_id = body.view.members[prng.NextBelow(body.view.members.size())].node_id;
    return body;
  }
  static void Oracle(kenc::Writer& w, const kcluster::ReferralBody& b) {
    PutView(w, b.view);
    w.PutU64(b.owner_node_id);
  }
  static kerb::Bytes Encode(const kcluster::ReferralBody& b) { return kenc::Encode(b); }
  static kerb::Result<kcluster::ReferralBody> Decode(kerb::BytesView b) {
    return kcluster::DecodeReferralBody(b);
  }
};

template <>
struct Spec<kcluster::PingBody> : LayoutSpec<kcluster::PingBody> {
  static constexpr bool kPrefix = false;
  static kcluster::PingBody Random(Prng& prng) { return {prng.NextU64()}; }
  static void Oracle(kenc::Writer& w, const kcluster::PingBody& b) { w.PutU64(b.from_node); }
};

template <>
struct Spec<kcluster::PongBody> : LayoutSpec<kcluster::PongBody> {
  static constexpr bool kPrefix = false;
  static kcluster::PongBody Random(Prng& prng) {
    return {prng.NextU64(), RandomU32(prng), prng.NextU64()};
  }
  static void Oracle(kenc::Writer& w, const kcluster::PongBody& b) {
    w.PutU64(b.node_id);
    w.PutU32(b.epoch);
    w.PutU64(b.applied_lsn);
  }
};

template <>
struct Spec<kcluster::RingAckBody> : LayoutSpec<kcluster::RingAckBody> {
  static constexpr bool kPrefix = false;
  static kcluster::RingAckBody Random(Prng& prng) { return {prng.NextU64(), RandomU32(prng)}; }
  static void Oracle(kenc::Writer& w, const kcluster::RingAckBody& b) {
    w.PutU64(b.node_id);
    w.PutU32(b.epoch);
  }
};

template <>
struct Spec<kcluster::LoadBody> : LayoutSpec<kcluster::LoadBody> {
  static constexpr bool kPrefix = false;
  static kcluster::LoadBody Random(Prng& prng) {
    kcluster::LoadBody load{RandomU32(prng), {}};
    for (size_t i = prng.NextBelow(12); i > 0; --i) {
      load.entries.push_back(RandomBlob(prng));
    }
    return load;
  }
  static void Oracle(kenc::Writer& w, const kcluster::LoadBody& b) {
    w.PutU32(b.epoch);
    w.PutU32(static_cast<uint32_t>(b.entries.size()));
    for (const kerb::Bytes& entry : b.entries) {
      w.PutLengthPrefixed(entry);
    }
  }
};

template <>
struct Spec<kcluster::LoadAckBody> : LayoutSpec<kcluster::LoadAckBody> {
  static constexpr bool kPrefix = false;
  static kcluster::LoadAckBody Random(Prng& prng) { return {RandomU32(prng)}; }
  static void Oracle(kenc::Writer& w, const kcluster::LoadAckBody& b) {
    w.PutU32(b.count_applied);
  }
};

template <typename M>
kerb::Bytes OracleBytes(const M& msg) {
  kenc::Writer w;
  Spec<M>::Oracle(w, msg);
  return w.Take();
}

template <typename M>
class Codec4Test : public ::testing::Test {};

using Messages =
    ::testing::Types<Principal, krb4::Ticket4, krb4::Authenticator4, krb4::AsRequest4,
                     krb4::AsPkRequest4, krb4::TgsRequest4, krb4::ReplyBody4, krb4::ApRequest4,
                     krb4::AsPkReply4, krb4::Error4, kadmin::AdminRequest, kadmin::AdminReqBody,
                     kadmin::AdminReplyBody, kcluster::RingAnnounce, kcluster::ReferralBody,
                     kcluster::PingBody, kcluster::PongBody, kcluster::RingAckBody,
                     kcluster::LoadBody, kcluster::LoadAckBody>;
TYPED_TEST_SUITE(Codec4Test, Messages);

constexpr int kRounds = 40;

TYPED_TEST(Codec4Test, EncodesTheOracleBytesAndReadsThemBack) {
  Prng prng(0xc0dec4);
  for (int round = 0; round < kRounds; ++round) {
    const TypeParam msg = Spec<TypeParam>::Random(prng);
    const kerb::Bytes want = OracleBytes(msg);
    ASSERT_EQ(Spec<TypeParam>::Encode(msg), want) << "round " << round;
    auto got = Spec<TypeParam>::Decode(want);
    ASSERT_TRUE(got.ok()) << "round " << round << ": " << got.error().detail;
    EXPECT_EQ(OracleBytes(got.value()), want) << "round " << round;
  }
}

TYPED_TEST(Codec4Test, RejectsEveryTruncation) {
  Prng prng(0x7c47);
  for (int round = 0; round < 8; ++round) {
    const kerb::Bytes wire = OracleBytes(Spec<TypeParam>::Random(prng));
    for (size_t len = 0; len < wire.size(); ++len) {
      auto got = Spec<TypeParam>::Decode(kerb::BytesView(wire.data(), len));
      ASSERT_FALSE(got.ok()) << "accepted a cut at " << len << " of " << wire.size();
      ASSERT_EQ(got.error().code, kerb::ErrorCode::kBadFormat) << "cut at " << len;
    }
  }
}

TYPED_TEST(Codec4Test, OneTrailingByteOnlyOnPrefixMessages) {
  Prng prng(0x7a11);
  for (int round = 0; round < 8; ++round) {
    const TypeParam msg = Spec<TypeParam>::Random(prng);
    kerb::Bytes wire = OracleBytes(msg);
    wire.push_back(0xa5);
    auto got = Spec<TypeParam>::Decode(wire);
    if (Spec<TypeParam>::kPrefix) {
      ASSERT_TRUE(got.ok()) << "round " << round;
      wire.pop_back();
      EXPECT_EQ(OracleBytes(got.value()), wire);
    } else {
      ASSERT_FALSE(got.ok()) << "round " << round << ": trailing byte accepted";
      EXPECT_EQ(got.error().code, kerb::ErrorCode::kBadFormat);
    }
  }
}

// ------------------------------------------------------------ KRB_PRIV

krb4::PrivMessage4 RandomPriv(Prng& prng) {
  return {RandomBlob(prng), RandomTime(prng), RandomU32(prng),
          static_cast<uint8_t>(prng.NextU64())};
}

kerb::Bytes PrivOracle(const krb4::PrivMessage4& m, kerb::BytesView extra = {}) {
  kenc::Writer w;
  w.PutLengthPrefixed(m.data);
  w.PutU64(static_cast<uint64_t>(m.timestamp));
  w.PutU32(m.sender_addr);
  w.PutU8(m.direction);
  w.PutBytes(extra);
  return w.Take();
}

kerb::Bytes SealByHand(const kcrypto::DesKey& key, kerb::BytesView plain) {
  kerb::Bytes sealed = kcrypto::ZeroPadTo8(plain);
  kcrypto::EncryptPcbcInPlace(key, kcrypto::kZeroIv, sealed.data(), sealed.size());
  return sealed;
}

TEST(Codec4PrivTest, SealsTheOracleBytesAndOpensThem) {
  Prng prng(0x9a1f);
  const kcrypto::DesKey key = prng.NextDesKey();
  for (int round = 0; round < kRounds; ++round) {
    const krb4::PrivMessage4 msg = RandomPriv(prng);
    const kerb::Bytes sealed = msg.Seal(key);
    ASSERT_EQ(sealed, SealByHand(key, PrivOracle(msg))) << "round " << round;
    auto opened = krb4::PrivMessage4::Unseal(key, sealed);
    ASSERT_TRUE(opened.ok()) << "round " << round;
    EXPECT_EQ(PrivOracle(opened.value()), PrivOracle(msg));
  }
}

TEST(Codec4PrivTest, TruncationsAndNonZeroPaddingFailClosed) {
  Prng prng(0x9a20);
  const kcrypto::DesKey key = prng.NextDesKey();
  for (int round = 0; round < 8; ++round) {
    const krb4::PrivMessage4 msg = RandomPriv(prng);
    const kerb::Bytes sealed = msg.Seal(key);
    // Whole blocks cut off the end take real fields with them: kIntegrity.
    // Any other cut breaks the block framing: kBadFormat.
    for (size_t len = 0; len < sealed.size(); ++len) {
      auto got = krb4::PrivMessage4::Unseal(key, kerb::BytesView(sealed.data(), len));
      ASSERT_FALSE(got.ok()) << "cut at " << len;
      EXPECT_EQ(got.error().code, len != 0 && len % 8 == 0 ? kerb::ErrorCode::kIntegrity
                                                            : kerb::ErrorCode::kBadFormat)
          << "cut at " << len;
    }
    // A plaintext truncated before sealing (and padded again) fails inside
    // the seal, unless the padding happens to restore what was cut.
    const kerb::Bytes plain = PrivOracle(msg);
    for (size_t len = 1; len + 1 < plain.size(); ++len) {
      const kerb::BytesView cut(plain.data(), len);
      auto got = krb4::PrivMessage4::Unseal(key, SealByHand(key, cut));
      if (!got.ok()) {
        EXPECT_EQ(got.error().code, kerb::ErrorCode::kIntegrity) << "plaintext cut at " << len;
      }
    }
    // One non-zero byte after the fields is not padding.
    const uint8_t extra = 0xa5;
    auto got = krb4::PrivMessage4::Unseal(key, SealByHand(key, PrivOracle(msg, {&extra, 1})));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().code, kerb::ErrorCode::kIntegrity);
  }
}

// ------------------------------------------------------------ kadmin

TEST(Codec4AdminTest, ChecksumCoversEveryByteBeforeIt) {
  Prng prng(0xad01);
  const kadmin::AdminReqBody body = Spec<kadmin::AdminReqBody>::Random(prng);
  const kerb::Bytes wire = kadmin::EncodeChecked(body);
  const size_t fields = wire.size() - kadmin::kChecksumTrailer;
  for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
    kerb::Bytes flipped = wire;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto got = kadmin::DecodeChecked<kadmin::AdminReqBody>(flipped);
    ASSERT_FALSE(got.ok()) << "bit " << bit;
    // A flip in a length prefix or the op misframes the body (kBadFormat);
    // one in the digest itself is a mismatch.
    if (bit / 8 >= fields + 4) {
      EXPECT_EQ(got.error().code, kerb::ErrorCode::kIntegrity) << "bit " << bit;
    }
  }
  kadmin::AdminReplyBody reply = Spec<kadmin::AdminReplyBody>::Random(prng);
  kerb::Bytes reply_wire = kadmin::EncodeChecked(reply);
  reply_wire[0] ^= 1;  // the nonce
  auto got = kadmin::DecodeChecked<kadmin::AdminReplyBody>(reply_wire);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, kerb::ErrorCode::kIntegrity);
}

TEST(Codec4AdminTest, OpOutsideTheDefinedOpsIsMalformed) {
  Prng prng(0xad02);
  kadmin::AdminReqBody body = Spec<kadmin::AdminReqBody>::Random(prng);
  for (int op : {0, 7, 255}) {
    // A well-formed body with a valid checksum over the bad op.
    kenc::Writer w;
    w.PutU8(static_cast<uint8_t>(op));
    PutPrincipal(w, body.target);
    w.PutU64(body.nonce);
    w.PutU64(static_cast<uint64_t>(body.timestamp));
    w.PutU32(body.sender_addr);
    w.PutU8(body.direction);
    w.PutLengthPrefixed(body.payload);
    PutChecksumByHand(w);
    auto got = kadmin::DecodeChecked<kadmin::AdminReqBody>(w.Peek());
    ASSERT_FALSE(got.ok()) << "op " << op;
    EXPECT_EQ(got.error().code, kerb::ErrorCode::kBadFormat) << "op " << op;
  }
  for (int op = 1; op <= 6; ++op) {
    body.op = static_cast<kadmin::AdminOp>(op);
    EXPECT_TRUE(kadmin::DecodeChecked<kadmin::AdminReqBody>(kadmin::EncodeChecked(body)).ok());
  }
}

// ------------------------------------------------------------ cluster

kcluster::RingAnnounce ViewWith(size_t members, uint32_t vnodes) {
  kcluster::RingAnnounce view;
  view.epoch = 9;
  view.ring.vnodes = vnodes;
  for (size_t i = 0; i < members; ++i) {
    view.members.push_back({100 + i, static_cast<uint32_t>(0x0a000010 + i)});
  }
  return view;
}

TEST(Codec4ClusterTest, AnnounceLimitsHoldOnRingFramesAndReferrals) {
  struct Case {
    kcluster::RingAnnounce view;
    bool valid;
  };
  std::vector<Case> cases = {
      {ViewWith(1, 1), true},       {ViewWith(256, 4096), true}, {ViewWith(0, 64), false},
      {ViewWith(257, 64), false},   {ViewWith(4, 0), false},     {ViewWith(4, 4097), false},
  };
  kcluster::RingAnnounce duplicate = ViewWith(4, 64);
  duplicate.members[3].node_id = duplicate.members[1].node_id;
  cases.push_back({duplicate, false});
  for (const Case& c : cases) {
    kenc::Writer w;
    PutView(w, c.view);
    auto ring = Spec<kcluster::RingAnnounce>::Decode(w.Peek());
    EXPECT_EQ(ring.ok(), c.valid) << c.view.members.size() << " members, "
                                  << c.view.ring.vnodes << " vnodes";
    if (!c.valid) {
      EXPECT_EQ(ring.error().code, kerb::ErrorCode::kBadFormat);
    }
    const uint64_t owner = c.view.members.empty() ? 0 : c.view.members[0].node_id;
    w.PutU64(owner);
    auto referral = kcluster::DecodeReferralBody(w.Peek());
    EXPECT_EQ(referral.ok(), c.valid);
  }
}

TEST(Codec4ClusterTest, ReferralOwnerMustBeInItsView) {
  kenc::Writer w;
  PutView(w, ViewWith(4, 64));
  w.PutU64(7);  // no member has id 7
  auto got = kcluster::DecodeReferralBody(w.Peek());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, kerb::ErrorCode::kBadFormat);
}

// A count of 2^32 - 1 on a short buffer fails at the count, before the list
// is sized: no allocation anywhere near the count's size.
TEST(Codec4ClusterTest, HugeCountOnShortBufferAllocatesNothingOfItsSize) {
  kenc::Writer load;
  load.PutU32(3);             // epoch
  load.PutU32(0xffffffffu);   // entry count
  load.PutLengthPrefixed(kerb::ToBytes("one entry"));
  kenc::Writer ring;
  PutView(ring, ViewWith(2, 64));
  kerb::Bytes ring_wire = ring.Take();
  std::fill_n(ring_wire.begin() + 22, 4, 0xff);  // the member count
  g_largest = 0;
  g_armed = true;
  auto load_got = kenc::Decode<kcluster::LoadBody>(load.Peek());
  auto ring_got = kenc::Decode<kcluster::RingAnnounce>(ring_wire);
  g_armed = false;
  ASSERT_FALSE(load_got.ok());
  ASSERT_FALSE(ring_got.ok());
  EXPECT_EQ(load_got.error().code, kerb::ErrorCode::kBadFormat);
  EXPECT_EQ(ring_got.error().code, kerb::ErrorCode::kBadFormat);
  EXPECT_LT(g_largest.load(), 4096u);
}

// The load-entry cap runs after the decode, on the node: one entry over it
// is refused whole, though each entry would apply.
TEST(Codec4ClusterTest, LoadEntryCapHoldsOnTheNode) {
  ksim::World world(0x10ad);
  kcluster::PopulationConfig pc;
  pc.users = 40;
  pc.services = 2;
  kcluster::Population population(pc);
  kcluster::ClusterController controller(&world, kcluster::ClusterConfig{});
  population.Install(controller.logical_db());
  controller.Bootstrap({{1, 0x0a000010}, {2, 0x0a000011}});
  const kcluster::ClusterConfig& config = controller.config();
  krb4::PrincipalEntry entry;
  entry.kind = krb4::PrincipalKind::kUser;
  entry.keys.push_back({1, kcrypto::DesBlock{1, 2, 3, 4, 5, 6, 7, 8}, 0});
  const kerb::Bytes record =
      krb4::EncodePrincipalEntry(krb4::Principal::User("capped", config.realm), entry);
  auto send = [&](size_t entries) {
    const kcluster::LoadBody load{controller.epoch(), std::vector<kerb::Bytes>(entries, record)};
    return world.network().Call(
        {0x0a000666, 31337}, {0x0a000010, config.ctl_port},
        kcluster::EncodeCtlFrame(kcluster::ClusterKey(config.realm), kcluster::kCtlLoad, load));
  };
  auto over = send(kcluster::kMaxLoadEntries + 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, kerb::ErrorCode::kBadFormat);
  EXPECT_TRUE(send(3).ok());
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
