// Conformance of the table-driven V5 codec (src/encoding/tlv.h, tables in
// src/krb5/messages.h) against an independent oracle: for every message, a
// TlvMessage built field by field by hand, without the tables. For
// randomized structs — optional fields on and off, empty and long strings
// and blobs — the table encoder must produce the oracle's bytes, and the
// decoder must read them back in any field order, skip unknown tags, and
// reject duplicate, missing, mis-sized, truncated and trailing-byte inputs
// as kBadFormat.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/prng.h"
#include "src/krb5/messages.h"

namespace krb5 {
namespace {

using kenc::TlvMessage;

// ------------------------------------------------------------ random values

std::string RandomString(kcrypto::Prng& prng) {
  static constexpr size_t kLengths[] = {0, 1, 7, 15, 16, 64, 1000};
  std::string s(kLengths[prng.NextBelow(std::size(kLengths))], ' ');
  for (char& c : s) {
    c = static_cast<char>('a' + prng.NextBelow(26));
  }
  return s;
}

kerb::Bytes RandomBlob(kcrypto::Prng& prng) {
  static constexpr size_t kLengths[] = {0, 1, 8, 40, 255, 2048};
  return prng.NextBytes(kLengths[prng.NextBelow(std::size(kLengths))]);
}

Principal RandomPrincipal(kcrypto::Prng& prng) {
  return Principal{RandomString(prng), RandomString(prng), RandomString(prng)};
}

kcrypto::DesBlock RandomKey(kcrypto::Prng& prng) {
  kcrypto::DesBlock key;
  prng.Fill(key.data(), key.size());
  return key;
}

ksim::Time RandomTime(kcrypto::Prng& prng) { return static_cast<ksim::Time>(prng.NextU64()); }

template <typename T>
std::optional<T> Maybe(bool on, T value) {
  return on ? std::optional<T>(std::move(value)) : std::nullopt;
}

// ------------------------------------------------------------ the oracle

void PutPrincipal(TlvMessage& msg, uint16_t first_tag, const Principal& p) {
  msg.SetString(first_tag, p.name);
  msg.SetString(first_tag + 1, p.instance);
  msg.SetString(first_tag + 2, p.realm);
}

void PutKey(TlvMessage& msg, uint16_t tag, const kcrypto::DesBlock& key) {
  msg.SetBytes(tag, kerb::BytesView(key.data(), key.size()));
}

std::string JoinTransited(const std::vector<std::string>& realms) {
  std::string out;
  for (const auto& realm : realms) {
    out += (out.empty() ? "" : ",") + realm;
  }
  return out;
}

// Each message's Spec: a random instance (every optional field present when
// `full`), the oracle encoding, the tags whose absence must be rejected,
// and the fixed-width tags with their widths.
template <typename M>
struct Spec;

template <>
struct Spec<Ticket5> {
  static Ticket5 Random(kcrypto::Prng& prng, bool full) {
    Ticket5 t;
    t.service = RandomPrincipal(prng);
    t.client = RandomPrincipal(prng);
    t.flags = prng.NextU32();
    t.client_addr = Maybe(full, prng.NextU32());
    t.issued_at = RandomTime(prng);
    t.lifetime = RandomTime(prng);
    t.session_key = RandomKey(prng);
    if (full) {
      for (size_t i = 0, n = 1 + prng.NextBelow(3); i < n; ++i) {
        t.transited.push_back("R" + RandomString(prng));
      }
    }
    return t;
  }
  static TlvMessage Oracle(const Ticket5& t) {
    TlvMessage msg(kMsgTicket);
    PutPrincipal(msg, tag::kSname, t.service);
    PutPrincipal(msg, tag::kCname, t.client);
    msg.SetU32(tag::kFlags, t.flags);
    if (t.client_addr.has_value()) {
      msg.SetU32(tag::kAddress, *t.client_addr);
    }
    msg.SetU64(tag::kIssuedAt, static_cast<uint64_t>(t.issued_at));
    msg.SetU64(tag::kLifetime, static_cast<uint64_t>(t.lifetime));
    PutKey(msg, tag::kSessionKey, t.session_key);
    if (!t.transited.empty()) {
      msg.SetString(tag::kTransited, JoinTransited(t.transited));
    }
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {
      tag::kCname, tag::kCinstance, tag::kCrealm, tag::kSname, tag::kSinstance, tag::kSrealm,
      tag::kIssuedAt, tag::kLifetime, tag::kSessionKey, tag::kFlags};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {
      {tag::kAddress, 4}, {tag::kIssuedAt, 8}, {tag::kLifetime, 8}, {tag::kSessionKey, 8},
      {tag::kFlags, 4}};
  }
};

template <>
struct Spec<Authenticator5> {
  static Authenticator5 Random(kcrypto::Prng& prng, bool full) {
    Authenticator5 a;
    a.client = RandomPrincipal(prng);
    a.timestamp = RandomTime(prng);
    a.checksum_type =
        Maybe(full, static_cast<kcrypto::ChecksumType>(1 + prng.NextBelow(3)));
    a.request_checksum = Maybe(full, RandomBlob(prng));
    a.subkey = Maybe(full, RandomKey(prng));
    a.initial_seq = Maybe(full, prng.NextU32());
    a.service_name_check = Maybe(full, RandomString(prng));
    return a;
  }
  static TlvMessage Oracle(const Authenticator5& a) {
    TlvMessage msg(kMsgAuthenticator);
    PutPrincipal(msg, tag::kCname, a.client);
    msg.SetU64(tag::kTimestamp, static_cast<uint64_t>(a.timestamp));
    if (a.checksum_type.has_value()) {
      msg.SetU32(tag::kChecksumType, static_cast<uint32_t>(*a.checksum_type));
    }
    if (a.request_checksum.has_value()) {
      msg.SetBytes(tag::kChecksum, *a.request_checksum);
    }
    if (a.subkey.has_value()) {
      PutKey(msg, tag::kSubkey, *a.subkey);
    }
    if (a.initial_seq.has_value()) {
      msg.SetU32(tag::kSeqNumber, *a.initial_seq);
    }
    if (a.service_name_check.has_value()) {
      msg.SetString(tag::kServiceNameCheck, *a.service_name_check);
    }
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kCname, tag::kCinstance, tag::kCrealm, tag::kTimestamp};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {
      {tag::kTimestamp, 8}, {tag::kChecksumType, 4}, {tag::kSubkey, 8}, {tag::kSeqNumber, 4}};
  }
};

template <>
struct Spec<AsRequest5> {
  static AsRequest5 Random(kcrypto::Prng& prng, bool full) {
    AsRequest5 req;
    req.client = RandomPrincipal(prng);
    req.service_realm = RandomString(prng);
    req.lifetime = RandomTime(prng);
    req.options = prng.NextU32();
    req.nonce = prng.NextU64();
    req.padata = Maybe(full, RandomBlob(prng));
    return req;
  }
  static TlvMessage Oracle(const AsRequest5& req) {
    TlvMessage msg(kMsgAsReq);
    PutPrincipal(msg, tag::kCname, req.client);
    msg.SetString(tag::kSrealm, req.service_realm);
    msg.SetU64(tag::kLifetime, static_cast<uint64_t>(req.lifetime));
    msg.SetU32(tag::kOptions, req.options);
    msg.SetU64(tag::kNonce, req.nonce);
    if (req.padata.has_value()) {
      msg.SetBytes(tag::kPadata, *req.padata);
    }
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {
      tag::kCname, tag::kCinstance, tag::kCrealm, tag::kSrealm, tag::kLifetime, tag::kNonce};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kLifetime, 8}, {tag::kOptions, 4}, {tag::kNonce, 8}};
  }
};

template <>
struct Spec<Preauth5> {
  static Preauth5 Random(kcrypto::Prng& prng, bool full) {
    return Preauth5{prng.NextU64(), RandomTime(prng), Maybe(full, RandomBlob(prng))};
  }
  static TlvMessage Oracle(const Preauth5& pa) {
    TlvMessage msg(kMsgPreauth);
    msg.SetU64(tag::kNonce, pa.nonce);
    msg.SetU64(tag::kTimestamp, static_cast<uint64_t>(pa.timestamp));
    if (pa.pub_checksum.has_value()) {
      msg.SetBytes(tag::kChecksum, *pa.pub_checksum);
    }
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kNonce, tag::kTimestamp};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kNonce, 8}, {tag::kTimestamp, 8}};
  }
};

// EncAsRepPart5 and EncTgsRepPart5 share one shape.
template <typename Part, uint16_t Type, kcrypto::DesBlock Part::*Key>
struct RepPartSpec {
  static Part Random(kcrypto::Prng& prng, bool) {
    Part part;
    part.*Key = RandomKey(prng);
    part.nonce = prng.NextU64();
    part.issued_at = RandomTime(prng);
    part.lifetime = RandomTime(prng);
    return part;
  }
  static TlvMessage Oracle(const Part& part) {
    TlvMessage msg(Type);
    PutKey(msg, tag::kSessionKey, part.*Key);
    msg.SetU64(tag::kNonce, part.nonce);
    msg.SetU64(tag::kIssuedAt, static_cast<uint64_t>(part.issued_at));
    msg.SetU64(tag::kLifetime, static_cast<uint64_t>(part.lifetime));
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kSessionKey, tag::kNonce, tag::kIssuedAt, tag::kLifetime};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kSessionKey, 8}, {tag::kNonce, 8}, {tag::kIssuedAt, 8}, {tag::kLifetime, 8}};
  }
};
template <>
struct Spec<EncAsRepPart5>
    : RepPartSpec<EncAsRepPart5, kMsgEncAsRepPart, &EncAsRepPart5::tgs_session_key> {};
template <>
struct Spec<EncTgsRepPart5>
    : RepPartSpec<EncTgsRepPart5, kMsgEncTgsRepPart, &EncTgsRepPart5::session_key> {};

// AsReply5 and TgsReply5: a ticket blob and a sealed part.
template <typename Reply, uint16_t Type, kerb::Bytes Reply::*Ticket>
struct ReplySpec {
  static Reply Random(kcrypto::Prng& prng, bool) {
    Reply rep;
    rep.*Ticket = RandomBlob(prng);
    rep.sealed_enc_part = RandomBlob(prng);
    return rep;
  }
  static TlvMessage Oracle(const Reply& rep) {
    TlvMessage msg(Type);
    msg.SetBytes(tag::kTicketBlob, rep.*Ticket);
    msg.SetBytes(tag::kSealedPart, rep.sealed_enc_part);
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kTicketBlob, tag::kSealedPart};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {};
  }
};
template <>
struct Spec<AsReply5> : ReplySpec<AsReply5, kMsgAsRep, &AsReply5::sealed_tgt> {};
template <>
struct Spec<TgsReply5> : ReplySpec<TgsReply5, kMsgTgsRep, &TgsReply5::sealed_ticket> {};

template <>
struct Spec<AsPkRequest5> {
  static AsPkRequest5 Random(kcrypto::Prng& prng, bool full) {
    AsPkRequest5 req;
    req.client = RandomPrincipal(prng);
    req.service_realm = RandomString(prng);
    req.lifetime = RandomTime(prng);
    req.options = prng.NextU32();
    req.nonce = prng.NextU64();
    req.client_pub = RandomBlob(prng);
    req.padata = Maybe(full, RandomBlob(prng));
    return req;
  }
  static TlvMessage Oracle(const AsPkRequest5& req) {
    TlvMessage msg(kMsgAsPkReq);
    PutPrincipal(msg, tag::kCname, req.client);
    msg.SetString(tag::kSrealm, req.service_realm);
    msg.SetU64(tag::kLifetime, static_cast<uint64_t>(req.lifetime));
    msg.SetU32(tag::kOptions, req.options);
    msg.SetU64(tag::kNonce, req.nonce);
    msg.SetBytes(tag::kPkPublic, req.client_pub);
    if (req.padata.has_value()) {
      msg.SetBytes(tag::kPadata, *req.padata);
    }
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {
      tag::kCname, tag::kCinstance, tag::kCrealm, tag::kSrealm, tag::kLifetime, tag::kNonce,
      tag::kPkPublic};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kLifetime, 8}, {tag::kOptions, 4}, {tag::kNonce, 8}};
  }
};

template <>
struct Spec<AsPkReply5> {
  static AsPkReply5 Random(kcrypto::Prng& prng, bool) {
    return AsPkReply5{RandomBlob(prng), RandomBlob(prng), RandomBlob(prng)};
  }
  static TlvMessage Oracle(const AsPkReply5& rep) {
    TlvMessage msg(kMsgAsPkRep);
    msg.SetBytes(tag::kPkPublic, rep.server_pub);
    msg.SetBytes(tag::kTicketBlob, rep.sealed_tgt);
    msg.SetBytes(tag::kSealedPart, rep.sealed_wrap);
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kPkPublic, tag::kTicketBlob, tag::kSealedPart};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {};
  }
};

template <>
struct Spec<PkEncWrap5> {
  static PkEncWrap5 Random(kcrypto::Prng& prng, bool) { return PkEncWrap5{RandomBlob(prng)}; }
  static TlvMessage Oracle(const PkEncWrap5& wrap) {
    TlvMessage msg(kMsgPkEncWrap);
    msg.SetBytes(tag::kSealedPart, wrap.sealed_enc_part);
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kSealedPart};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {};
  }
};

template <>
struct Spec<TgsRequest5> {
  static TgsRequest5 Random(kcrypto::Prng& prng, bool full) {
    TgsRequest5 req;
    req.service = RandomPrincipal(prng);
    req.lifetime = RandomTime(prng);
    req.options = prng.NextU32();
    req.nonce = prng.NextU64();
    req.tgt_realm = RandomString(prng);
    req.additional_ticket = RandomBlob(prng);
    req.additional_ticket_service = Maybe(full, RandomPrincipal(prng));
    req.authorization_data = RandomBlob(prng);
    req.sealed_tgt = RandomBlob(prng);
    req.sealed_authenticator = RandomBlob(prng);
    return req;
  }
  static TlvMessage Oracle(const TgsRequest5& req) {
    TlvMessage msg(kMsgTgsReq);
    PutPrincipal(msg, tag::kSname, req.service);
    msg.SetU64(tag::kLifetime, static_cast<uint64_t>(req.lifetime));
    msg.SetU32(tag::kOptions, req.options);
    msg.SetU64(tag::kNonce, req.nonce);
    msg.SetString(tag::kTgtRealm, req.tgt_realm);
    if (!req.additional_ticket.empty()) {
      msg.SetBytes(tag::kAdditionalTicket, req.additional_ticket);
    }
    if (req.additional_ticket_service.has_value()) {
      PutPrincipal(msg, tag::kAname, *req.additional_ticket_service);
    }
    if (!req.authorization_data.empty()) {
      msg.SetBytes(tag::kAuthorizationData, req.authorization_data);
    }
    msg.SetBytes(tag::kTicketBlob, req.sealed_tgt);
    msg.SetBytes(tag::kAuthBlob, req.sealed_authenticator);
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {
      tag::kSname, tag::kSinstance, tag::kSrealm, tag::kLifetime, tag::kOptions, tag::kNonce,
      tag::kTgtRealm, tag::kTicketBlob, tag::kAuthBlob};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kLifetime, 8}, {tag::kOptions, 4}, {tag::kNonce, 8}};
  }
};

template <>
struct Spec<ApRequest5> {
  static ApRequest5 Random(kcrypto::Prng& prng, bool full) {
    ApRequest5 req;
    req.sealed_ticket = RandomBlob(prng);
    req.sealed_authenticator = RandomBlob(prng);
    req.want_mutual = prng.NextBelow(2) == 1;
    req.app_data = RandomBlob(prng);
    req.challenge_response = Maybe(full, RandomBlob(prng));
    return req;
  }
  static TlvMessage Oracle(const ApRequest5& req) {
    TlvMessage msg(kMsgApReq);
    msg.SetBytes(tag::kTicketBlob, req.sealed_ticket);
    msg.SetBytes(tag::kAuthBlob, req.sealed_authenticator);
    msg.SetU32(tag::kMutual, req.want_mutual ? 1 : 0);
    if (!req.app_data.empty()) {
      msg.SetBytes(tag::kAppData, req.app_data);
    }
    if (req.challenge_response.has_value()) {
      msg.SetBytes(tag::kChallengeResponse, *req.challenge_response);
    }
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kTicketBlob, tag::kAuthBlob, tag::kMutual};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kMutual, 4}};
  }
};

template <>
struct Spec<Challenge5> {
  static Challenge5 Random(kcrypto::Prng& prng, bool) { return Challenge5{prng.NextU64()}; }
  static TlvMessage Oracle(const Challenge5& challenge) {
    TlvMessage msg(kMsgChallenge);
    msg.SetU64(tag::kNonce, challenge.nonce);
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kNonce};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kNonce, 8}};
  }
};

template <>
struct Spec<EncApRepPart5> {
  static EncApRepPart5 Random(kcrypto::Prng& prng, bool full) {
    return EncApRepPart5{RandomTime(prng), Maybe(full, RandomKey(prng)),
                         Maybe(full, prng.NextU32())};
  }
  static TlvMessage Oracle(const EncApRepPart5& part) {
    TlvMessage msg(kMsgEncApRepPart);
    msg.SetU64(tag::kTimestamp, static_cast<uint64_t>(part.timestamp));
    if (part.subkey.has_value()) {
      PutKey(msg, tag::kSubkey, *part.subkey);
    }
    if (part.initial_seq.has_value()) {
      msg.SetU32(tag::kSeqNumber, *part.initial_seq);
    }
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kTimestamp};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kTimestamp, 8}, {tag::kSubkey, 8}, {tag::kSeqNumber, 4}};
  }
};

template <>
struct Spec<ApReply5> {
  static ApReply5 Random(kcrypto::Prng& prng, bool) {
    return ApReply5{RandomBlob(prng), RandomBlob(prng)};
  }
  static TlvMessage Oracle(const ApReply5& rep) {
    TlvMessage msg(kMsgApRep);
    msg.SetBytes(tag::kSealedPart, rep.sealed_part);
    msg.SetBytes(tag::kAppData, rep.app_data);
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kSealedPart};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {};
  }
};

template <uint16_t Type>
struct Spec<ChannelMessage5<Type>> {
  static ChannelMessage5<Type> Random(kcrypto::Prng& prng, bool full) {
    return ChannelMessage5<Type>{Maybe(full, RandomTime(prng)), Maybe(full, prng.NextU32()),
                                 RandomBlob(prng)};
  }
  static TlvMessage Oracle(const ChannelMessage5<Type>& msg) {
    TlvMessage tlv(Type);
    tlv.SetBytes(tag::kAppData, msg.data);
    if (msg.timestamp.has_value()) {
      tlv.SetU64(tag::kTimestamp, static_cast<uint64_t>(*msg.timestamp));
    }
    if (msg.seq.has_value()) {
      tlv.SetU32(tag::kSeqNumber, *msg.seq);
    }
    return tlv;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kAppData};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kTimestamp, 8}, {tag::kSeqNumber, 4}};
  }
};

template <>
struct Spec<KrbError5> {
  static KrbError5 Random(kcrypto::Prng& prng, bool) {
    return KrbError5{prng.NextU32(), RandomString(prng), RandomBlob(prng)};
  }
  static TlvMessage Oracle(const KrbError5& err) {
    TlvMessage msg(kMsgError);
    msg.SetU32(tag::kErrorCode, err.code);
    msg.SetString(tag::kErrorText, err.text);
    if (!err.e_data.empty()) {
      msg.SetBytes(tag::kEData, err.e_data);
    }
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kErrorCode, tag::kErrorText};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {{tag::kErrorCode, 4}};
  }
};

template <>
struct Spec<ClusterReferral5> {
  static ClusterReferral5 Random(kcrypto::Prng& prng, bool) {
    return ClusterReferral5{RandomBlob(prng)};
  }
  static TlvMessage Oracle(const ClusterReferral5& referral) {
    TlvMessage msg(kMsgClusterReferral);
    msg.SetBytes(tag::kClusterBody, referral.body);
    return msg;
  }
  static std::vector<uint16_t> Required() {
    return {tag::kClusterBody};
  }
  static std::vector<std::pair<uint16_t, size_t>> Fixed() {
    return {};
  }
};

// ------------------------------------------------------------ wire surgery

struct WireField {
  uint16_t tag;
  kerb::Bytes value;
};

std::vector<WireField> Fields(kerb::BytesView wire) {
  std::vector<WireField> fields;
  const char* error = kenc::WalkFields(wire, [&](uint16_t tag, kerb::BytesView value) {
    fields.push_back({tag, kerb::Bytes(value.begin(), value.end())});
    return static_cast<const char*>(nullptr);
  });
  EXPECT_EQ(error, nullptr);
  return fields;
}

// Frames `fields` in the given order, duplicates and all — no sorting.
kerb::Bytes Frame(uint16_t type, const std::vector<WireField>& fields) {
  kerb::Bytes out(4);
  kenc::PutBe(out.data(), type, 2);
  kenc::PutBe(out.data() + 2, fields.size(), 2);
  for (const auto& field : fields) {
    uint8_t header[6];
    kenc::PutBe(header, field.tag, 2);
    kenc::PutBe(header + 2, field.value.size(), 4);
    out.insert(out.end(), header, header + 6);
    kerb::Append(out, field.value);
  }
  return out;
}

template <typename M>
class Codec5Test : public ::testing::Test {
 protected:
  // Random instances: every optional field off, then on, alternately.
  template <typename Fn>
  void ForRandom(uint64_t seed, int count, Fn&& fn) {
    kcrypto::Prng prng(seed);
    for (int i = 0; i < count; ++i) {
      fn(Spec<M>::Random(prng, i % 2 == 1), prng);
    }
  }

  // The decoded struct equals `want` field for field: both re-encode
  // through the oracle to the same bytes.
  static void ExpectDecodesTo(kerb::BytesView wire, const M& want) {
    auto got = kenc::Decode<M>(wire);
    ASSERT_TRUE(got.ok()) << got.error().detail;
    EXPECT_EQ(Spec<M>::Oracle(got.value()).Encode(), Spec<M>::Oracle(want).Encode());
  }

  static void ExpectBadFormat(kerb::BytesView wire, const std::string& what) {
    EXPECT_EQ(kenc::Decode<M>(wire).code(), kerb::ErrorCode::kBadFormat) << what;
  }
};

using Messages =
    ::testing::Types<Ticket5, Authenticator5, AsRequest5, Preauth5, EncAsRepPart5, AsReply5,
                     AsPkRequest5, AsPkReply5, PkEncWrap5, TgsRequest5, EncTgsRepPart5,
                     TgsReply5, ApRequest5, Challenge5, EncApRepPart5, ApReply5, SafeMessage5,
                     PrivMessage5, KrbError5, ClusterReferral5>;
TYPED_TEST_SUITE(Codec5Test, Messages);

TYPED_TEST(Codec5Test, EncodesTheOracleBytesAndReadsThemBack) {
  this->ForRandom(1, 40, [](const TypeParam& msg, kcrypto::Prng&) {
    const kerb::Bytes want = Spec<TypeParam>::Oracle(msg).Encode();
    EXPECT_EQ(kenc::Encode(msg), want);
    EXPECT_EQ(kenc::EncodedSize(msg), want.size());
    TestFixture::ExpectDecodesTo(want, msg);
  });
}

TYPED_TEST(Codec5Test, DecodesAnyFieldOrder) {
  this->ForRandom(2, 20, [](const TypeParam& msg, kcrypto::Prng& prng) {
    std::vector<WireField> fields = Fields(kenc::Encode(msg));
    for (size_t i = fields.size(); i > 1; --i) {
      std::swap(fields[i - 1], fields[prng.NextBelow(i)]);
    }
    TestFixture::ExpectDecodesTo(Frame(TypeParam::kType, fields), msg);
  });
}

TYPED_TEST(Codec5Test, SkipsUnknownTags) {
  this->ForRandom(3, 10, [](const TypeParam& msg, kcrypto::Prng& prng) {
    std::vector<WireField> fields = Fields(kenc::Encode(msg));
    fields.insert(fields.begin(), {63, prng.NextBytes(3)});
    fields.push_back({64, {}});
    fields.push_back({999, prng.NextBytes(20)});
    TestFixture::ExpectDecodesTo(Frame(TypeParam::kType, fields), msg);
  });
}

TYPED_TEST(Codec5Test, RejectsDuplicateTags) {
  this->ForRandom(4, 10, [](const TypeParam& msg, kcrypto::Prng& prng) {
    const std::vector<WireField> fields = Fields(kenc::Encode(msg));
    for (size_t i = 0; i < fields.size(); ++i) {
      std::vector<WireField> twice = fields;
      twice.push_back(fields[i]);
      TestFixture::ExpectBadFormat(Frame(TypeParam::kType, twice),
                                   "duplicate tag " + std::to_string(fields[i].tag));
    }
    for (uint16_t unknown : {50, 999}) {
      std::vector<WireField> twice = fields;
      twice.push_back({unknown, prng.NextBytes(2)});
      twice.insert(twice.begin(), {unknown, {}});
      TestFixture::ExpectBadFormat(Frame(TypeParam::kType, twice),
                                   "duplicate unknown tag " + std::to_string(unknown));
    }
  });
}

TYPED_TEST(Codec5Test, RejectsMissingRequiredFields) {
  this->ForRandom(5, 10, [](const TypeParam& msg, kcrypto::Prng&) {
    for (uint16_t tag : Spec<TypeParam>::Required()) {
      TlvMessage tlv = Spec<TypeParam>::Oracle(msg);
      ASSERT_TRUE(tlv.Has(tag)) << tag;
      tlv.Remove(tag);
      TestFixture::ExpectBadFormat(tlv.Encode(), "missing tag " + std::to_string(tag));
    }
  });
}

TYPED_TEST(Codec5Test, RejectsMisSizedFields) {
  this->ForRandom(6, 10, [](const TypeParam& msg, kcrypto::Prng& prng) {
    for (const auto& [tag, width] : Spec<TypeParam>::Fixed()) {
      for (size_t size : {size_t{0}, width - 1, width + 1}) {
        TlvMessage tlv = Spec<TypeParam>::Oracle(msg);
        tlv.SetBytes(tag, prng.NextBytes(size));
        TestFixture::ExpectBadFormat(tlv.Encode(), "tag " + std::to_string(tag) + " of " +
                                                       std::to_string(size) + " bytes");
      }
    }
  });
}

TYPED_TEST(Codec5Test, RejectsTruncationTrailingBytesAndOtherTypes) {
  this->ForRandom(7, 4, [](const TypeParam& msg, kcrypto::Prng&) {
    const kerb::Bytes wire = kenc::Encode(msg);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      TestFixture::ExpectBadFormat(kerb::BytesView(wire.data(), cut),
                                   "cut at " + std::to_string(cut));
    }
    kerb::Bytes trailing = wire;
    trailing.push_back(0);
    TestFixture::ExpectBadFormat(trailing, "trailing byte");
    kerb::Bytes other_type = wire;
    other_type[1] ^= 0x80;
    TestFixture::ExpectBadFormat(other_type, "another message type");
  });
}

// The checksum-type field must name a Draft 3 checksum, and an optional
// principal comes whole or not at all.
TEST(Codec5ValuesTest, RejectsOutOfSuiteChecksumTypesAndPartialPrincipals) {
  kcrypto::Prng prng(8);
  const Authenticator5 auth = Spec<Authenticator5>::Random(prng, true);
  for (uint32_t type : {0u, 4u, 0x101u}) {
    TlvMessage tlv = Spec<Authenticator5>::Oracle(auth);
    tlv.SetU32(tag::kChecksumType, type);
    EXPECT_EQ(kenc::Decode<Authenticator5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat)
        << type;
  }
  const TgsRequest5 req = Spec<TgsRequest5>::Random(prng, true);
  for (uint16_t part : {tag::kAname, tag::kAinstance, tag::kArealm}) {
    TlvMessage tlv = Spec<TgsRequest5>::Oracle(req);
    tlv.Remove(part);
    EXPECT_EQ(kenc::Decode<TgsRequest5>(tlv.Encode()).code(), kerb::ErrorCode::kBadFormat)
        << part;
  }
}

// The KDC encodes its replies from views of its scratch buffers: the same
// table, the same bytes as the owning structs.
TEST(Codec5ValuesTest, ViewBlobsEncodeLikeOwnedBlobs) {
  kcrypto::Prng prng(9);
  const AsReply5 as_rep = Spec<AsReply5>::Random(prng, true);
  EXPECT_EQ(kenc::Encode(BasicAsReply5<kerb::BytesView>{as_rep.sealed_tgt,
                                                        as_rep.sealed_enc_part}),
            kenc::Encode(as_rep));
  const TgsReply5 tgs_rep = Spec<TgsReply5>::Random(prng, true);
  EXPECT_EQ(kenc::Encode(BasicTgsReply5<kerb::BytesView>{tgs_rep.sealed_ticket,
                                                         tgs_rep.sealed_enc_part}),
            kenc::Encode(tgs_rep));
  const AsPkReply5 pk_rep = Spec<AsPkReply5>::Random(prng, true);
  EXPECT_EQ(kenc::Encode(BasicAsPkReply5<kerb::BytesView>{pk_rep.server_pub, pk_rep.sealed_tgt,
                                                          pk_rep.sealed_wrap}),
            kenc::Encode(pk_rep));
  const PkEncWrap5 wrap = Spec<PkEncWrap5>::Random(prng, true);
  EXPECT_EQ(kenc::Encode(BasicPkEncWrap5<kerb::BytesView>{wrap.sealed_enc_part}),
            kenc::Encode(wrap));
}

}  // namespace
}  // namespace krb5
