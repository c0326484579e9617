// Kerberos Version 5 Draft 3 message model.
//
// Everything is a tagged TLV message (src/encoding/tlv.h) — the paper's
// recommendation (b), which Draft 3 adopted via ASN.1: "all encrypted data
// is labeled with the message type prior to encryption." Each struct below
// is one message: its `kType` and its field table, `Fields()`, are the
// whole codec. kenc::Encode and kenc::Decode<Msg> run the table in either
// direction; krb5::Seal and krb5::Unseal<Msg> put it through the Draft 3
// encryption layer (src/krb5/enclayer.h).
//
// Draft 3 behaviours preserved for study:
//   * the TGS request's additional-tickets and authorization-data fields
//     travel OUTSIDE the encryption, protected only by a checksum sealed in
//     the authenticator (the Appendix's cut-and-paste surface, E9);
//   * the ENC-TKT-IN-SKEY and REUSE-SKEY options;
//   * tickets may omit the client network address;
//   * ticket forwarding with a FORWARDED flag but no original source;
//   * a transited-realms list for hierarchical inter-realm authentication.

#ifndef SRC_KRB5_MESSAGES_H_
#define SRC_KRB5_MESSAGES_H_

#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "src/crypto/checksum.h"
#include "src/encoding/tlv.h"
#include "src/krb4/principal.h"
#include "src/krb5/enclayer.h"
#include "src/sim/clock.h"

namespace krb5 {

using krb4::Principal;

// Message types (the context labels sealed inside encryptions).
enum MsgType5 : uint16_t {
  kMsgTicket = 1,
  kMsgAuthenticator = 2,
  kMsgAsReq = 10,
  kMsgAsRep = 11,
  kMsgTgsReq = 12,
  kMsgTgsRep = 13,
  kMsgApReq = 14,
  kMsgApRep = 15,
  kMsgEncAsRepPart = 25,
  kMsgEncTgsRepPart = 26,
  kMsgEncApRepPart = 27,
  kMsgSafe = 20,
  kMsgPriv = 21,
  kMsgError = 30,
  kMsgPreauth = 40,    // padata: {nonce, timestamp}K_c
  kMsgChallenge = 41,  // challenge/response AP option payloads
  kMsgAsPkReq = 42,    // public-key preauthenticated AS request
  kMsgAsPkRep = 43,    // its reply
  kMsgPkEncWrap = 44,  // DH-layer wrapper around the sealed enc-part
  // Clustered serving (src/cluster): the V5 spelling of the referral reply.
  // Carries one kClusterBody field holding an encoded kcluster::ReferralBody
  // (the same bytes the V4 frame carries), so both protocol stacks share a
  // single referral codec.
  kMsgClusterReferral = 45,
};

// Field tags.
namespace tag {
constexpr uint16_t kCname = 1;
constexpr uint16_t kCinstance = 2;
constexpr uint16_t kCrealm = 3;
constexpr uint16_t kSname = 4;
constexpr uint16_t kSinstance = 5;
constexpr uint16_t kSrealm = 6;
constexpr uint16_t kAddress = 7;
constexpr uint16_t kIssuedAt = 8;
constexpr uint16_t kLifetime = 9;
constexpr uint16_t kSessionKey = 10;
constexpr uint16_t kNonce = 11;
constexpr uint16_t kTimestamp = 12;
constexpr uint16_t kChecksum = 13;
constexpr uint16_t kChecksumType = 14;
constexpr uint16_t kFlags = 15;
constexpr uint16_t kOptions = 16;
constexpr uint16_t kAdditionalTicket = 17;
constexpr uint16_t kAuthorizationData = 18;
constexpr uint16_t kPadata = 19;
constexpr uint16_t kTransited = 20;
constexpr uint16_t kSubkey = 21;
constexpr uint16_t kSeqNumber = 22;
constexpr uint16_t kEData = 23;
constexpr uint16_t kTicketBlob = 24;
constexpr uint16_t kAuthBlob = 25;
constexpr uint16_t kErrorCode = 26;
constexpr uint16_t kErrorText = 27;
constexpr uint16_t kAppData = 28;
constexpr uint16_t kMutual = 29;
constexpr uint16_t kSealedPart = 30;
constexpr uint16_t kServiceNameCheck = 31;
constexpr uint16_t kDirection = 32;
constexpr uint16_t kTgtRealm = 33;
constexpr uint16_t kAname = 34;
constexpr uint16_t kAinstance = 35;
constexpr uint16_t kArealm = 36;
constexpr uint16_t kChallengeResponse = 37;
constexpr uint16_t kPkPublic = 38;
constexpr uint16_t kClusterBody = 39;  // encoded kcluster::ReferralBody
}  // namespace tag

// Ticket flags.
constexpr uint32_t kFlagForwardable = 1u << 0;
constexpr uint32_t kFlagForwarded = 1u << 1;

// TGS request options.
constexpr uint32_t kOptEncTktInSkey = 1u << 0;
constexpr uint32_t kOptReuseSkey = 1u << 1;
constexpr uint32_t kOptForward = 1u << 2;
constexpr uint32_t kOptOmitAddress = 1u << 3;

// KRB_ERROR codes used by the model.
constexpr uint32_t kErrMethod = 48;  // KRB_AP_ERR_METHOD: use another auth method

}  // namespace krb5

namespace kenc {

// A principal is three consecutive string fields: name, instance, realm.
template <>
struct Wire<krb4::Principal> {
  static constexpr uint16_t kTags = 3;
  template <typename P>
  static auto& Part(P& p, uint16_t i) {
    return i == 0 ? p.name : i == 1 ? p.instance : p.realm;
  }
  static size_t Size(const krb4::Principal& p, uint16_t i) { return Part(p, i).size(); }
  static uint8_t* Put(const krb4::Principal& p, uint16_t i, uint8_t* out) {
    return Wire<std::string>::Put(Part(p, i), 0, out);
  }
  static bool Get(kerb::BytesView in, uint16_t i, krb4::Principal& p) {
    return Wire<std::string>::Get(in, 0, Part(p, i));
  }
};

// A checksum type is a u32 that must name a Draft 3 checksum: 0x101 must
// not read as CRC-32, nor an unknown type reach VerifyChecksum.
template <>
struct Wire<kcrypto::ChecksumType> {
  static constexpr uint16_t kTags = 1;
  static size_t Size(kcrypto::ChecksumType, uint16_t) { return 4; }
  static uint8_t* Put(kcrypto::ChecksumType type, uint16_t, uint8_t* out) {
    return PutBe(out, static_cast<uint32_t>(type), 4);
  }
  static bool Get(kerb::BytesView in, uint16_t, kcrypto::ChecksumType& type) {
    uint32_t value = 0;
    if (!Wire<uint32_t>::Get(in, 0, value) ||
        value < static_cast<uint32_t>(kcrypto::ChecksumType::kCrc32) ||
        value > static_cast<uint32_t>(kcrypto::ChecksumType::kMd4Des)) {
      return false;
    }
    type = static_cast<kcrypto::ChecksumType>(value);
    return true;
  }
};

}  // namespace kenc

namespace krb5 {

using kenc::Field;

// ---------------------------------------------------------------------------
struct Ticket5 {
  Principal service;
  Principal client;
  uint32_t flags = 0;
  std::optional<uint32_t> client_addr;  // V5 may omit the address
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;
  kcrypto::DesBlock session_key{};
  std::vector<std::string> transited;  // realms crossed, oldest first

  static constexpr uint16_t kType = kMsgTicket;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kCname, &Ticket5::client},
                      Field{tag::kSname, &Ticket5::service},
                      Field{tag::kAddress, &Ticket5::client_addr, kenc::kOptional},
                      Field{tag::kIssuedAt, &Ticket5::issued_at},
                      Field{tag::kLifetime, &Ticket5::lifetime},
                      Field{tag::kSessionKey, &Ticket5::session_key},
                      Field{tag::kFlags, &Ticket5::flags},
                      Field{tag::kTransited, &Ticket5::transited, kenc::kNonEmpty}};
  }

  bool Expired(ksim::Time now) const { return now > issued_at + lifetime; }
};

// ---------------------------------------------------------------------------
struct Authenticator5 {
  Principal client;
  ksim::Time timestamp = 0;
  // Checksum over the unencrypted request fields (TGS request) — the seal
  // whose strength experiment E9 probes.
  std::optional<kcrypto::ChecksumType> checksum_type;
  std::optional<kerb::Bytes> request_checksum;
  // Recommendation (e): material for negotiating a true session key.
  std::optional<kcrypto::DesBlock> subkey;
  // Appendix: initial sequence number for KRB_SAFE/KRB_PRIV channels.
  std::optional<uint32_t> initial_seq;
  // The fix for REUSE-SKEY redirection: name the intended service.
  std::optional<std::string> service_name_check;

  static constexpr uint16_t kType = kMsgAuthenticator;
  static constexpr auto Fields() {
    return std::tuple{
        Field{tag::kCname, &Authenticator5::client},
        Field{tag::kTimestamp, &Authenticator5::timestamp},
        Field{tag::kChecksum, &Authenticator5::request_checksum, kenc::kOptional},
        Field{tag::kChecksumType, &Authenticator5::checksum_type, kenc::kOptional},
        Field{tag::kSubkey, &Authenticator5::subkey, kenc::kOptional},
        Field{tag::kSeqNumber, &Authenticator5::initial_seq, kenc::kOptional},
        Field{tag::kServiceNameCheck, &Authenticator5::service_name_check, kenc::kOptional}};
  }
};

// ---------------------------------------------------------------------------
// AS exchange.
struct AsRequest5 {
  Principal client;
  std::string service_realm;
  ksim::Duration lifetime = 0;
  uint32_t options = 0;  // e.g. kOptOmitAddress
  uint64_t nonce = 0;    // Draft 3's server-to-client challenge/response
  // Optional preauthentication data (padata): recommendation (g). When
  // present it is {Preauth5}K_c, proving the requester knows the password key.
  std::optional<kerb::Bytes> padata;

  static constexpr uint16_t kType = kMsgAsReq;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kCname, &AsRequest5::client},
                      Field{tag::kSrealm, &AsRequest5::service_realm},
                      Field{tag::kLifetime, &AsRequest5::lifetime},
                      Field{tag::kNonce, &AsRequest5::nonce},
                      Field{tag::kOptions, &AsRequest5::options, kenc::kDefaulted},
                      Field{tag::kPadata, &AsRequest5::padata, kenc::kOptional}};
  }
};

// The padata: {nonce, timestamp}K_c, and on the public-key path also the
// md4 of the request's DH public (AsPkRequest5).
struct Preauth5 {
  uint64_t nonce = 0;
  ksim::Time timestamp = 0;
  std::optional<kerb::Bytes> pub_checksum;

  static constexpr uint16_t kType = kMsgPreauth;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kNonce, &Preauth5::nonce},
                      Field{tag::kTimestamp, &Preauth5::timestamp},
                      Field{tag::kChecksum, &Preauth5::pub_checksum, kenc::kOptional}};
  }
};

struct EncAsRepPart5 {
  kcrypto::DesBlock tgs_session_key{};
  uint64_t nonce = 0;  // must echo the request nonce
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;

  static constexpr uint16_t kType = kMsgEncAsRepPart;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kIssuedAt, &EncAsRepPart5::issued_at},
                      Field{tag::kLifetime, &EncAsRepPart5::lifetime},
                      Field{tag::kSessionKey, &EncAsRepPart5::tgs_session_key},
                      Field{tag::kNonce, &EncAsRepPart5::nonce}};
  }
};

// The KDC's replies and the PK wrapper are templated on their blob type:
// decoded, they own kerb::Bytes; the KDC encodes them from kerb::BytesView
// views of its scratch buffers.
template <typename Blob>
struct BasicAsReply5 {
  Blob sealed_tgt;       // {Ticket5}K_tgs
  Blob sealed_enc_part;  // {EncAsRepPart5}K_c

  static constexpr uint16_t kType = kMsgAsRep;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kTicketBlob, &BasicAsReply5::sealed_tgt},
                      Field{tag::kSealedPart, &BasicAsReply5::sealed_enc_part}};
  }
};
using AsReply5 = BasicAsReply5<kerb::Bytes>;

// ---------------------------------------------------------------------------
// Public-key preauthenticated AS exchange (V5 shape of the paper's
// exponential-key-exchange fix). The client's request carries a fresh DH
// public value; the reply wraps the ordinary {EncAsRepPart5}K_c in one
// extra layer keyed by the negotiated DH secret, so the password-keyed
// ciphertext that drives offline guessing never crosses the wire bare.
//
// The DH wrapper alone only hides the inner layer from *passive*
// eavesdroppers; an active attacker could supply their own ephemeral key
// and strip it. The padata — {Preauth5 with md4(g^a)}K_c — is therefore
// mandatory on this path regardless of KdcPolicy5::require_preauth: it
// proves possession of K_c and binds the attacker-controllable DH public to
// that proof.
struct AsPkRequest5 {
  Principal client;
  std::string service_realm;
  ksim::Duration lifetime = 0;
  uint32_t options = 0;
  uint64_t nonce = 0;
  kerb::Bytes client_pub;  // big-endian g^a mod p
  // Sealed Preauth5: nonce (== nonce), timestamp, pub_checksum =
  // md4(client_pub). Optional in the codec, required by the KDC.
  std::optional<kerb::Bytes> padata;

  static constexpr uint16_t kType = kMsgAsPkReq;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kCname, &AsPkRequest5::client},
                      Field{tag::kSrealm, &AsPkRequest5::service_realm},
                      Field{tag::kLifetime, &AsPkRequest5::lifetime},
                      Field{tag::kNonce, &AsPkRequest5::nonce},
                      Field{tag::kOptions, &AsPkRequest5::options, kenc::kDefaulted},
                      Field{tag::kPadata, &AsPkRequest5::padata, kenc::kOptional},
                      Field{tag::kPkPublic, &AsPkRequest5::client_pub}};
  }
};

template <typename Blob>
struct BasicAsPkReply5 {
  Blob server_pub;  // big-endian g^b mod p, plaintext
  Blob sealed_tgt;  // {Ticket5}K_tgs, as in the ordinary reply
  // {PkEncWrap5{ {EncAsRepPart5}K_c }}K_dh
  Blob sealed_wrap;

  static constexpr uint16_t kType = kMsgAsPkRep;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kTicketBlob, &BasicAsPkReply5::sealed_tgt},
                      Field{tag::kSealedPart, &BasicAsPkReply5::sealed_wrap},
                      Field{tag::kPkPublic, &BasicAsPkReply5::server_pub}};
  }
};
using AsPkReply5 = BasicAsPkReply5<kerb::Bytes>;

template <typename Blob>
struct BasicPkEncWrap5 {
  Blob sealed_enc_part;  // {EncAsRepPart5}K_c

  static constexpr uint16_t kType = kMsgPkEncWrap;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kSealedPart, &BasicPkEncWrap5::sealed_enc_part}};
  }
};
using PkEncWrap5 = BasicPkEncWrap5<kerb::Bytes>;

// ---------------------------------------------------------------------------
// TGS exchange. The checksum-bearing fields are canonically encoded by
// ChecksumInput(): exactly the unencrypted fields an adversary can rewrite.
struct TgsRequest5 {
  Principal service;
  ksim::Duration lifetime = 0;
  uint32_t options = 0;
  uint64_t nonce = 0;
  // Realm whose TGS sealed the enclosed TGT. Equal to the serving realm for
  // local requests; names the previous hop for inter-realm requests.
  std::string tgt_realm;
  kerb::Bytes additional_ticket;  // sealed ticket: ENC-TKT-IN-SKEY / REUSE-SKEY
  // Service whose key seals `additional_ticket` (REUSE-SKEY key lookup).
  std::optional<Principal> additional_ticket_service;
  kerb::Bytes authorization_data;  // free-form, outside the encryption
  kerb::Bytes sealed_tgt;            // {Ticket5}K_tgs
  kerb::Bytes sealed_authenticator;  // {Authenticator5}K_c,tgs

  // Canonical bytes covered by the authenticator's request checksum.
  kerb::Bytes ChecksumInput() const;

  static constexpr uint16_t kType = kMsgTgsReq;
  static constexpr auto Fields() {
    return std::tuple{
        Field{tag::kSname, &TgsRequest5::service},
        Field{tag::kLifetime, &TgsRequest5::lifetime},
        Field{tag::kNonce, &TgsRequest5::nonce},
        Field{tag::kOptions, &TgsRequest5::options},
        Field{tag::kAdditionalTicket, &TgsRequest5::additional_ticket, kenc::kNonEmpty},
        Field{tag::kAuthorizationData, &TgsRequest5::authorization_data, kenc::kNonEmpty},
        Field{tag::kTicketBlob, &TgsRequest5::sealed_tgt},
        Field{tag::kAuthBlob, &TgsRequest5::sealed_authenticator},
        Field{tag::kTgtRealm, &TgsRequest5::tgt_realm},
        Field{tag::kAname, &TgsRequest5::additional_ticket_service, kenc::kOptional}};
  }
};

// A KDC request, decoded by the type it names, whichever port it arrived
// on: the KDC core and the cluster router read this one decode.
using KdcRequest5 = std::variant<AsRequest5, AsPkRequest5, TgsRequest5>;

// The message decoded in place as the request its type names; kBadFormat
// for any other type and for a malformed request.
kerb::Result<KdcRequest5> DecodeKdcRequest5(kerb::BytesView wire);

struct EncTgsRepPart5 {
  kcrypto::DesBlock session_key{};
  uint64_t nonce = 0;
  ksim::Time issued_at = 0;
  ksim::Duration lifetime = 0;

  static constexpr uint16_t kType = kMsgEncTgsRepPart;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kIssuedAt, &EncTgsRepPart5::issued_at},
                      Field{tag::kLifetime, &EncTgsRepPart5::lifetime},
                      Field{tag::kSessionKey, &EncTgsRepPart5::session_key},
                      Field{tag::kNonce, &EncTgsRepPart5::nonce}};
  }
};

template <typename Blob>
struct BasicTgsReply5 {
  Blob sealed_ticket;    // {Ticket5}K_s (or K_skey under ENC-TKT-IN-SKEY)
  Blob sealed_enc_part;  // {EncTgsRepPart5}K_c,tgs

  static constexpr uint16_t kType = kMsgTgsRep;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kTicketBlob, &BasicTgsReply5::sealed_ticket},
                      Field{tag::kSealedPart, &BasicTgsReply5::sealed_enc_part}};
  }
};
using TgsReply5 = BasicTgsReply5<kerb::Bytes>;

// ---------------------------------------------------------------------------
// AP exchange.
struct ApRequest5 {
  kerb::Bytes sealed_ticket;
  kerb::Bytes sealed_authenticator;
  bool want_mutual = false;
  kerb::Bytes app_data;
  // Present on the second leg of the challenge/response option: the
  // server's Challenge5 nonce + 1, sealed under the ticket's session key.
  std::optional<kerb::Bytes> challenge_response;

  static constexpr uint16_t kType = kMsgApReq;
  static constexpr auto Fields() {
    return std::tuple{
        Field{tag::kTicketBlob, &ApRequest5::sealed_ticket},
        Field{tag::kAuthBlob, &ApRequest5::sealed_authenticator},
        Field{tag::kAppData, &ApRequest5::app_data, kenc::kNonEmpty},
        Field{tag::kMutual, &ApRequest5::want_mutual},
        Field{tag::kChallengeResponse, &ApRequest5::challenge_response, kenc::kOptional}};
  }
};

// The challenge/response option's payload, both ways: the server's nonce,
// and the client's nonce + 1.
struct Challenge5 {
  uint64_t nonce = 0;

  static constexpr uint16_t kType = kMsgChallenge;
  static constexpr auto Fields() { return std::tuple{Field{tag::kNonce, &Challenge5::nonce}}; }
};

struct EncApRepPart5 {
  ksim::Time timestamp = 0;                 // echoes the authenticator
  std::optional<kcrypto::DesBlock> subkey;  // server half of key negotiation
  std::optional<uint32_t> initial_seq;

  static constexpr uint16_t kType = kMsgEncApRepPart;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kTimestamp, &EncApRepPart5::timestamp},
                      Field{tag::kSubkey, &EncApRepPart5::subkey, kenc::kOptional},
                      Field{tag::kSeqNumber, &EncApRepPart5::initial_seq, kenc::kOptional}};
  }
};

struct ApReply5 {
  kerb::Bytes app_data;     // the application's reply
  kerb::Bytes sealed_part;  // {EncApRepPart5}K_session

  static constexpr uint16_t kType = kMsgApRep;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kAppData, &ApReply5::app_data, kenc::kDefaulted},
                      Field{tag::kSealedPart, &ApReply5::sealed_part}};
  }
};

// ---------------------------------------------------------------------------
// KRB_SAFE and KRB_PRIV bodies (src/krb5/safepriv.h): the data, and the
// timestamp or sequence number the channel's replay protection reads.
template <uint16_t Type>
struct ChannelMessage5 {
  std::optional<ksim::Time> timestamp;
  std::optional<uint32_t> seq;
  kerb::Bytes data;

  static constexpr uint16_t kType = Type;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kTimestamp, &ChannelMessage5::timestamp, kenc::kOptional},
                      Field{tag::kSeqNumber, &ChannelMessage5::seq, kenc::kOptional},
                      Field{tag::kAppData, &ChannelMessage5::data}};
  }
};
using SafeMessage5 = ChannelMessage5<kMsgSafe>;
using PrivMessage5 = ChannelMessage5<kMsgPriv>;

// ---------------------------------------------------------------------------
// KRB_ERROR.
struct KrbError5 {
  uint32_t code = 0;
  std::string text;
  kerb::Bytes e_data;  // e.g. challenge material for KRB_AP_ERR_METHOD

  static constexpr uint16_t kType = kMsgError;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kEData, &KrbError5::e_data, kenc::kNonEmpty},
                      Field{tag::kErrorCode, &KrbError5::code},
                      Field{tag::kErrorText, &KrbError5::text}};
  }
};

// A clustered node's referral: an encoded kcluster::ReferralBody.
struct ClusterReferral5 {
  kerb::Bytes body;

  static constexpr uint16_t kType = kMsgClusterReferral;
  static constexpr auto Fields() {
    return std::tuple{Field{tag::kClusterBody, &ClusterReferral5::body}};
  }
};

}  // namespace krb5

#endif  // SRC_KRB5_MESSAGES_H_
