#include "src/krb5/messages.h"

#include "src/encoding/io.h"

namespace krb5 {

namespace {

void PutKey(kenc::TlvMessage& msg, uint16_t key_tag, const kcrypto::DesBlock& key) {
  msg.SetBytes(key_tag, kerb::BytesView(key.data(), key.size()));
}

kerb::Result<kcrypto::DesBlock> GetKey(const kenc::TlvMessage& msg, uint16_t key_tag) {
  auto bytes = msg.GetBytes(key_tag);
  if (!bytes.ok()) {
    return bytes.error();
  }
  if (bytes.value().size() != 8) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "key field has wrong size");
  }
  kcrypto::DesBlock key;
  std::copy(bytes.value().begin(), bytes.value().end(), key.begin());
  return key;
}

std::string JoinTransited(const std::vector<std::string>& realms) {
  std::string out;
  for (const auto& realm : realms) {
    if (!out.empty()) {
      out += ",";
    }
    out += realm;
  }
  return out;
}

std::vector<std::string> SplitTransited(const std::string& joined) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= joined.size() && !joined.empty()) {
    size_t comma = joined.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(joined.substr(start));
      break;
    }
    out.push_back(joined.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

void PutClient(kenc::TlvMessage& msg, const Principal& p) {
  msg.SetString(tag::kCname, p.name);
  msg.SetString(tag::kCinstance, p.instance);
  msg.SetString(tag::kCrealm, p.realm);
}

void PutServer(kenc::TlvMessage& msg, const Principal& p) {
  msg.SetString(tag::kSname, p.name);
  msg.SetString(tag::kSinstance, p.instance);
  msg.SetString(tag::kSrealm, p.realm);
}

kerb::Result<Principal> GetClient(const kenc::TlvMessage& msg) {
  auto name = msg.GetString(tag::kCname);
  auto instance = msg.GetString(tag::kCinstance);
  auto realm = msg.GetString(tag::kCrealm);
  if (!name.ok() || !instance.ok() || !realm.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "missing client principal");
  }
  return Principal{name.value(), instance.value(), realm.value()};
}

kerb::Result<Principal> GetServer(const kenc::TlvMessage& msg) {
  auto name = msg.GetString(tag::kSname);
  auto instance = msg.GetString(tag::kSinstance);
  auto realm = msg.GetString(tag::kSrealm);
  if (!name.ok() || !instance.ok() || !realm.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "missing server principal");
  }
  return Principal{name.value(), instance.value(), realm.value()};
}

// --------------------------------------------------------------------------- Ticket5

kenc::TlvMessage Ticket5::ToTlv() const {
  kenc::TlvMessage msg(kMsgTicket);
  PutServer(msg, service);
  PutClient(msg, client);
  msg.SetU32(tag::kFlags, flags);
  if (client_addr.has_value()) {
    msg.SetU32(tag::kAddress, *client_addr);
  }
  msg.SetU64(tag::kIssuedAt, static_cast<uint64_t>(issued_at));
  msg.SetU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  PutKey(msg, tag::kSessionKey, session_key);
  if (!transited.empty()) {
    msg.SetString(tag::kTransited, JoinTransited(transited));
  }
  return msg;
}

void Ticket5::AppendTlvTo(kenc::Writer& w) const {
  const uint16_t count = static_cast<uint16_t>(10 + (client_addr.has_value() ? 1 : 0) +
                                               (transited.empty() ? 0 : 1));
  kenc::TlvFieldWriter f(w, kMsgTicket, count);
  f.AddString(tag::kCname, client.name);
  f.AddString(tag::kCinstance, client.instance);
  f.AddString(tag::kCrealm, client.realm);
  f.AddString(tag::kSname, service.name);
  f.AddString(tag::kSinstance, service.instance);
  f.AddString(tag::kSrealm, service.realm);
  if (client_addr.has_value()) {
    f.AddU32(tag::kAddress, *client_addr);
  }
  f.AddU64(tag::kIssuedAt, static_cast<uint64_t>(issued_at));
  f.AddU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  f.AddBytes(tag::kSessionKey, kerb::BytesView(session_key.data(), session_key.size()));
  f.AddU32(tag::kFlags, flags);
  if (!transited.empty()) {
    f.AddString(tag::kTransited, JoinTransited(transited));
  }
}

kerb::Result<Ticket5> Ticket5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgTicket) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a ticket");
  }
  Ticket5 t;
  auto service = GetServer(msg);
  auto client = GetClient(msg);
  auto flags = msg.GetU32(tag::kFlags);
  auto issued = msg.GetU64(tag::kIssuedAt);
  auto life = msg.GetU64(tag::kLifetime);
  auto key = GetKey(msg, tag::kSessionKey);
  if (!service.ok() || !client.ok() || !flags.ok() || !issued.ok() || !life.ok() || !key.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "ticket missing fields");
  }
  t.service = service.value();
  t.client = client.value();
  t.flags = flags.value();
  t.client_addr = msg.GetOptionalU32(tag::kAddress);
  t.issued_at = static_cast<ksim::Time>(issued.value());
  t.lifetime = static_cast<ksim::Duration>(life.value());
  t.session_key = key.value();
  if (msg.Has(tag::kTransited)) {
    t.transited = SplitTransited(msg.GetString(tag::kTransited).value());
  }
  return t;
}

kerb::Bytes Ticket5::Seal(const kcrypto::DesKey& key, const EncLayerConfig& config,
                          kcrypto::Prng& prng) const {
  return SealTlv(key, ToTlv(), config, prng);
}

kerb::Result<Ticket5> Ticket5::Unseal(const kcrypto::DesKey& key, kerb::BytesView sealed,
                                      const EncLayerConfig& config) {
  auto msg = UnsealTlv(key, kMsgTicket, sealed, config);
  if (!msg.ok()) {
    return msg.error();
  }
  return FromTlv(msg.value());
}

// --------------------------------------------------------------------------- Authenticator5

kenc::TlvMessage Authenticator5::ToTlv() const {
  kenc::TlvMessage msg(kMsgAuthenticator);
  PutClient(msg, client);
  msg.SetU64(tag::kTimestamp, static_cast<uint64_t>(timestamp));
  if (checksum_type.has_value()) {
    msg.SetU32(tag::kChecksumType, static_cast<uint32_t>(*checksum_type));
  }
  if (request_checksum.has_value()) {
    msg.SetBytes(tag::kChecksum, *request_checksum);
  }
  if (subkey.has_value()) {
    PutKey(msg, tag::kSubkey, *subkey);
  }
  if (initial_seq.has_value()) {
    msg.SetU32(tag::kSeqNumber, *initial_seq);
  }
  if (service_name_check.has_value()) {
    msg.SetString(tag::kServiceNameCheck, *service_name_check);
  }
  return msg;
}

kerb::Result<Authenticator5> Authenticator5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgAuthenticator) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not an authenticator");
  }
  Authenticator5 a;
  auto client = GetClient(msg);
  auto ts = msg.GetU64(tag::kTimestamp);
  if (!client.ok() || !ts.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "authenticator missing fields");
  }
  a.client = client.value();
  a.timestamp = static_cast<ksim::Time>(ts.value());
  if (auto type = msg.GetOptionalU32(tag::kChecksumType)) {
    // Range-check the wire's u32 before narrowing it into the enum: 0x101
    // must not read as CRC-32, nor an unknown type reach VerifyChecksum.
    if (*type < static_cast<uint32_t>(kcrypto::ChecksumType::kCrc32) ||
        *type > static_cast<uint32_t>(kcrypto::ChecksumType::kMd4Des)) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "unknown checksum type");
    }
    a.checksum_type = static_cast<kcrypto::ChecksumType>(*type);
  }
  a.request_checksum = msg.GetOptionalBytes(tag::kChecksum);
  if (msg.Has(tag::kSubkey)) {
    auto key = GetKey(msg, tag::kSubkey);
    if (!key.ok()) {
      return key.error();
    }
    a.subkey = key.value();
  }
  a.initial_seq = msg.GetOptionalU32(tag::kSeqNumber);
  if (msg.Has(tag::kServiceNameCheck)) {
    a.service_name_check = msg.GetString(tag::kServiceNameCheck).value();
  }
  return a;
}

kerb::Bytes Authenticator5::Seal(const kcrypto::DesKey& key, const EncLayerConfig& config,
                                 kcrypto::Prng& prng) const {
  return SealTlv(key, ToTlv(), config, prng);
}

kerb::Result<Authenticator5> Authenticator5::Unseal(const kcrypto::DesKey& key,
                                                    kerb::BytesView sealed,
                                                    const EncLayerConfig& config) {
  auto msg = UnsealTlv(key, kMsgAuthenticator, sealed, config);
  if (!msg.ok()) {
    return msg.error();
  }
  return FromTlv(msg.value());
}

// --------------------------------------------------------------------------- AS exchange

kenc::TlvMessage AsRequest5::ToTlv() const {
  kenc::TlvMessage msg(kMsgAsReq);
  PutClient(msg, client);
  msg.SetString(tag::kSrealm, service_realm);
  msg.SetU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  msg.SetU32(tag::kOptions, options);
  msg.SetU64(tag::kNonce, nonce);
  if (padata.has_value()) {
    msg.SetBytes(tag::kPadata, *padata);
  }
  return msg;
}

kerb::Result<AsRequest5> AsRequest5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgAsReq) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not an AS request");
  }
  AsRequest5 req;
  auto client = GetClient(msg);
  auto realm = msg.GetString(tag::kSrealm);
  auto life = msg.GetU64(tag::kLifetime);
  auto nonce = msg.GetU64(tag::kNonce);
  if (!client.ok() || !realm.ok() || !life.ok() || !nonce.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "AS request missing fields");
  }
  req.client = client.value();
  req.service_realm = realm.value();
  req.lifetime = static_cast<ksim::Duration>(life.value());
  req.options = msg.GetOptionalU32(tag::kOptions).value_or(0);
  req.nonce = nonce.value();
  req.padata = msg.GetOptionalBytes(tag::kPadata);
  return req;
}

kenc::TlvMessage EncAsRepPart5::ToTlv() const {
  kenc::TlvMessage msg(kMsgEncAsRepPart);
  PutKey(msg, tag::kSessionKey, tgs_session_key);
  msg.SetU64(tag::kNonce, nonce);
  msg.SetU64(tag::kIssuedAt, static_cast<uint64_t>(issued_at));
  msg.SetU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  return msg;
}

void EncAsRepPart5::AppendTlvTo(kenc::Writer& w) const {
  kenc::TlvFieldWriter f(w, kMsgEncAsRepPart, 4);
  f.AddU64(tag::kIssuedAt, static_cast<uint64_t>(issued_at));
  f.AddU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  f.AddBytes(tag::kSessionKey,
             kerb::BytesView(tgs_session_key.data(), tgs_session_key.size()));
  f.AddU64(tag::kNonce, nonce);
}

kerb::Result<EncAsRepPart5> EncAsRepPart5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgEncAsRepPart) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not an AS reply part");
  }
  EncAsRepPart5 part;
  auto key = GetKey(msg, tag::kSessionKey);
  auto nonce = msg.GetU64(tag::kNonce);
  auto issued = msg.GetU64(tag::kIssuedAt);
  auto life = msg.GetU64(tag::kLifetime);
  if (!key.ok() || !nonce.ok() || !issued.ok() || !life.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "AS reply part missing fields");
  }
  part.tgs_session_key = key.value();
  part.nonce = nonce.value();
  part.issued_at = static_cast<ksim::Time>(issued.value());
  part.lifetime = static_cast<ksim::Duration>(life.value());
  return part;
}

kenc::TlvMessage AsReply5::ToTlv() const {
  kenc::TlvMessage msg(kMsgAsRep);
  msg.SetBytes(tag::kTicketBlob, sealed_tgt);
  msg.SetBytes(tag::kSealedPart, sealed_enc_part);
  return msg;
}

kerb::Result<AsReply5> AsReply5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgAsRep) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not an AS reply");
  }
  AsReply5 rep;
  auto tgt = msg.GetBytes(tag::kTicketBlob);
  auto part = msg.GetBytes(tag::kSealedPart);
  if (!tgt.ok() || !part.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "AS reply missing fields");
  }
  rep.sealed_tgt = tgt.value();
  rep.sealed_enc_part = part.value();
  return rep;
}

// ----------------------------------------------------------------- PK AS exchange

kenc::TlvMessage AsPkRequest5::ToTlv() const {
  kenc::TlvMessage msg(kMsgAsPkReq);
  PutClient(msg, client);
  msg.SetString(tag::kSrealm, service_realm);
  msg.SetU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  msg.SetU32(tag::kOptions, options);
  msg.SetU64(tag::kNonce, nonce);
  msg.SetBytes(tag::kPkPublic, client_pub);
  if (padata.has_value()) {
    msg.SetBytes(tag::kPadata, *padata);
  }
  return msg;
}

kerb::Result<AsPkRequest5> AsPkRequest5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgAsPkReq) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a PK AS request");
  }
  AsPkRequest5 req;
  auto client = GetClient(msg);
  auto realm = msg.GetString(tag::kSrealm);
  auto life = msg.GetU64(tag::kLifetime);
  auto nonce = msg.GetU64(tag::kNonce);
  auto pub = msg.GetBytes(tag::kPkPublic);
  if (!client.ok() || !realm.ok() || !life.ok() || !nonce.ok() || !pub.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "PK AS request missing fields");
  }
  req.client = client.value();
  req.service_realm = realm.value();
  req.lifetime = static_cast<ksim::Duration>(life.value());
  req.options = msg.GetOptionalU32(tag::kOptions).value_or(0);
  req.nonce = nonce.value();
  req.client_pub = pub.value();
  req.padata = msg.GetOptionalBytes(tag::kPadata);
  return req;
}

kenc::TlvMessage AsPkReply5::ToTlv() const {
  kenc::TlvMessage msg(kMsgAsPkRep);
  msg.SetBytes(tag::kPkPublic, server_pub);
  msg.SetBytes(tag::kTicketBlob, sealed_tgt);
  msg.SetBytes(tag::kSealedPart, sealed_wrap);
  return msg;
}

kerb::Result<AsPkReply5> AsPkReply5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgAsPkRep) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a PK AS reply");
  }
  AsPkReply5 rep;
  auto pub = msg.GetBytes(tag::kPkPublic);
  auto tgt = msg.GetBytes(tag::kTicketBlob);
  auto wrap = msg.GetBytes(tag::kSealedPart);
  if (!pub.ok() || !tgt.ok() || !wrap.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "PK AS reply missing fields");
  }
  rep.server_pub = pub.value();
  rep.sealed_tgt = tgt.value();
  rep.sealed_wrap = wrap.value();
  return rep;
}

// --------------------------------------------------------------------------- TGS exchange

kerb::Bytes TgsRequest5::ChecksumInput() const {
  // Canonical encoding of every field outside the encryption that the TGS
  // will act on. If the checksum sealing these is weak, an adversary can
  // rewrite them (E9).
  kenc::Writer w;
  w.PutString(service.name);
  w.PutString(service.instance);
  w.PutString(service.realm);
  w.PutU64(static_cast<uint64_t>(lifetime));
  w.PutU32(options);
  w.PutU64(nonce);
  w.PutString(tgt_realm);
  w.PutLengthPrefixed(additional_ticket);
  if (additional_ticket_service.has_value()) {
    additional_ticket_service->EncodeTo(w);
  }
  w.PutLengthPrefixed(authorization_data);
  return w.Take();
}

kenc::TlvMessage TgsRequest5::ToTlv() const {
  kenc::TlvMessage msg(kMsgTgsReq);
  PutServer(msg, service);
  msg.SetU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  msg.SetU32(tag::kOptions, options);
  msg.SetU64(tag::kNonce, nonce);
  msg.SetString(tag::kTgtRealm, tgt_realm);
  if (!additional_ticket.empty()) {
    msg.SetBytes(tag::kAdditionalTicket, additional_ticket);
  }
  if (additional_ticket_service.has_value()) {
    msg.SetString(tag::kAname, additional_ticket_service->name);
    msg.SetString(tag::kAinstance, additional_ticket_service->instance);
    msg.SetString(tag::kArealm, additional_ticket_service->realm);
  }
  if (!authorization_data.empty()) {
    msg.SetBytes(tag::kAuthorizationData, authorization_data);
  }
  msg.SetBytes(tag::kTicketBlob, sealed_tgt);
  msg.SetBytes(tag::kAuthBlob, sealed_authenticator);
  return msg;
}

kerb::Result<TgsRequest5> TgsRequest5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgTgsReq) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a TGS request");
  }
  TgsRequest5 req;
  auto service = GetServer(msg);
  auto life = msg.GetU64(tag::kLifetime);
  auto options = msg.GetU32(tag::kOptions);
  auto nonce = msg.GetU64(tag::kNonce);
  auto tgt_realm = msg.GetString(tag::kTgtRealm);
  auto tgt = msg.GetBytes(tag::kTicketBlob);
  auto auth = msg.GetBytes(tag::kAuthBlob);
  if (!service.ok() || !life.ok() || !options.ok() || !nonce.ok() || !tgt_realm.ok() ||
      !tgt.ok() || !auth.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "TGS request missing fields");
  }
  req.service = service.value();
  req.lifetime = static_cast<ksim::Duration>(life.value());
  req.options = options.value();
  req.nonce = nonce.value();
  req.tgt_realm = tgt_realm.value();
  req.additional_ticket = msg.GetOptionalBytes(tag::kAdditionalTicket).value_or(kerb::Bytes{});
  if (msg.Has(tag::kAname)) {
    auto aname = msg.GetString(tag::kAname);
    auto ainstance = msg.GetString(tag::kAinstance);
    auto arealm = msg.GetString(tag::kArealm);
    if (!aname.ok() || !ainstance.ok() || !arealm.ok()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "partial additional-ticket service");
    }
    req.additional_ticket_service = Principal{aname.value(), ainstance.value(), arealm.value()};
  }
  req.authorization_data =
      msg.GetOptionalBytes(tag::kAuthorizationData).value_or(kerb::Bytes{});
  req.sealed_tgt = tgt.value();
  req.sealed_authenticator = auth.value();
  return req;
}

kenc::TlvMessage EncTgsRepPart5::ToTlv() const {
  kenc::TlvMessage msg(kMsgEncTgsRepPart);
  PutKey(msg, tag::kSessionKey, session_key);
  msg.SetU64(tag::kNonce, nonce);
  msg.SetU64(tag::kIssuedAt, static_cast<uint64_t>(issued_at));
  msg.SetU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  return msg;
}

void EncTgsRepPart5::AppendTlvTo(kenc::Writer& w) const {
  kenc::TlvFieldWriter f(w, kMsgEncTgsRepPart, 4);
  f.AddU64(tag::kIssuedAt, static_cast<uint64_t>(issued_at));
  f.AddU64(tag::kLifetime, static_cast<uint64_t>(lifetime));
  f.AddBytes(tag::kSessionKey, kerb::BytesView(session_key.data(), session_key.size()));
  f.AddU64(tag::kNonce, nonce);
}

kerb::Result<EncTgsRepPart5> EncTgsRepPart5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgEncTgsRepPart) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a TGS reply part");
  }
  EncTgsRepPart5 part;
  auto key = GetKey(msg, tag::kSessionKey);
  auto nonce = msg.GetU64(tag::kNonce);
  auto issued = msg.GetU64(tag::kIssuedAt);
  auto life = msg.GetU64(tag::kLifetime);
  if (!key.ok() || !nonce.ok() || !issued.ok() || !life.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "TGS reply part missing fields");
  }
  part.session_key = key.value();
  part.nonce = nonce.value();
  part.issued_at = static_cast<ksim::Time>(issued.value());
  part.lifetime = static_cast<ksim::Duration>(life.value());
  return part;
}

kenc::TlvMessage TgsReply5::ToTlv() const {
  kenc::TlvMessage msg(kMsgTgsRep);
  msg.SetBytes(tag::kTicketBlob, sealed_ticket);
  msg.SetBytes(tag::kSealedPart, sealed_enc_part);
  return msg;
}

kerb::Result<TgsReply5> TgsReply5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgTgsRep) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a TGS reply");
  }
  TgsReply5 rep;
  auto ticket = msg.GetBytes(tag::kTicketBlob);
  auto part = msg.GetBytes(tag::kSealedPart);
  if (!ticket.ok() || !part.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "TGS reply missing fields");
  }
  rep.sealed_ticket = ticket.value();
  rep.sealed_enc_part = part.value();
  return rep;
}

// --------------------------------------------------------------------------- AP exchange

kenc::TlvMessage ApRequest5::ToTlv() const {
  kenc::TlvMessage msg(kMsgApReq);
  msg.SetBytes(tag::kTicketBlob, sealed_ticket);
  msg.SetBytes(tag::kAuthBlob, sealed_authenticator);
  msg.SetU32(tag::kMutual, want_mutual ? 1 : 0);
  if (!app_data.empty()) {
    msg.SetBytes(tag::kAppData, app_data);
  }
  if (challenge_response.has_value()) {
    msg.SetBytes(tag::kChallengeResponse, *challenge_response);
  }
  return msg;
}

kerb::Result<ApRequest5> ApRequest5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgApReq) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not an AP request");
  }
  ApRequest5 req;
  auto ticket = msg.GetBytes(tag::kTicketBlob);
  auto auth = msg.GetBytes(tag::kAuthBlob);
  auto mutual = msg.GetU32(tag::kMutual);
  if (!ticket.ok() || !auth.ok() || !mutual.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "AP request missing fields");
  }
  req.sealed_ticket = ticket.value();
  req.sealed_authenticator = auth.value();
  req.want_mutual = mutual.value() != 0;
  req.app_data = msg.GetOptionalBytes(tag::kAppData).value_or(kerb::Bytes{});
  req.challenge_response = msg.GetOptionalBytes(tag::kChallengeResponse);
  return req;
}

kenc::TlvMessage EncApRepPart5::ToTlv() const {
  kenc::TlvMessage msg(kMsgEncApRepPart);
  msg.SetU64(tag::kTimestamp, static_cast<uint64_t>(timestamp));
  if (subkey.has_value()) {
    PutKey(msg, tag::kSubkey, *subkey);
  }
  if (initial_seq.has_value()) {
    msg.SetU32(tag::kSeqNumber, *initial_seq);
  }
  return msg;
}

kerb::Result<EncApRepPart5> EncApRepPart5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgEncApRepPart) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not an AP reply part");
  }
  EncApRepPart5 part;
  auto ts = msg.GetU64(tag::kTimestamp);
  if (!ts.ok()) {
    return ts.error();
  }
  part.timestamp = static_cast<ksim::Time>(ts.value());
  if (msg.Has(tag::kSubkey)) {
    auto key = GetKey(msg, tag::kSubkey);
    if (!key.ok()) {
      return key.error();
    }
    part.subkey = key.value();
  }
  part.initial_seq = msg.GetOptionalU32(tag::kSeqNumber);
  return part;
}

// --------------------------------------------------------------------------- KRB_ERROR

kenc::TlvMessage KrbError5::ToTlv() const {
  kenc::TlvMessage msg(kMsgError);
  msg.SetU32(tag::kErrorCode, code);
  msg.SetString(tag::kErrorText, text);
  if (!e_data.empty()) {
    msg.SetBytes(tag::kEData, e_data);
  }
  return msg;
}

kerb::Result<KrbError5> KrbError5::FromTlv(const kenc::TlvMessage& msg) {
  if (msg.type() != kMsgError) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a KRB_ERROR");
  }
  KrbError5 err;
  auto code = msg.GetU32(tag::kErrorCode);
  auto text = msg.GetString(tag::kErrorText);
  if (!code.ok() || !text.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "KRB_ERROR missing fields");
  }
  err.code = code.value();
  err.text = text.value();
  err.e_data = msg.GetOptionalBytes(tag::kEData).value_or(kerb::Bytes{});
  return err;
}

}  // namespace krb5
