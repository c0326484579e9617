#include "src/krb4/messages.h"

#include "src/crypto/modes.h"
#include "src/obs/kobs.h"

namespace krb4 {

namespace {

constexpr uint8_t kSealMagic[4] = {'K', 'R', 'B', '4'};

kerb::Result<kcrypto::DesBlock> GetKeyBlock(kenc::Reader& r) {
  auto bytes = r.GetBytes(8);
  if (!bytes.ok()) {
    return bytes.error();
  }
  kcrypto::DesBlock block;
  for (size_t i = 0; i < 8; ++i) {
    block[i] = bytes.value()[i];
  }
  return block;
}

void StoreU32At(kerb::Bytes& out, size_t at, size_t value) {
  for (size_t i = 0; i < 4; ++i) {
    out[at + i] = static_cast<uint8_t>(value >> (24 - 8 * i));
  }
}

// Starts a seal at the end of `w`'s buffer: the magic, then a plaintext
// length that EndSeal4 fills in. Returns where the seal starts.
size_t BeginSeal4(kenc::Writer& w) {
  const size_t start = w.size();
  w.PutBytes(kerb::BytesView(kSealMagic, 4));
  w.PutU32(0);
  return start;
}

// Finishes the seal begun at `start` once its plaintext is written: fills in
// the length and zero-pads to a block boundary. Returns the seal's size.
size_t EndSeal4(kerb::Bytes& out, size_t start) {
  StoreU32At(out, start + 4, out.size() - start - 8);
  out.resize(start + ((out.size() - start + 7) & ~size_t{7}), 0);
  return out.size() - start;
}

}  // namespace

uint8_t LifetimeToV4Units(ksim::Duration lifetime) {
  if (lifetime <= 0) {
    return 0;
  }
  ksim::Duration units = (lifetime + kV4LifetimeUnit - 1) / kV4LifetimeUnit;
  return units > 255 ? 255 : static_cast<uint8_t>(units);
}

ksim::Duration V4UnitsToLifetime(uint8_t units) { return units * kV4LifetimeUnit; }

kerb::Bytes Seal4(const kcrypto::DesKey& key, kerb::BytesView plaintext) {
  kerb::Bytes out;
  out.reserve(plaintext.size() + 15);
  Seal4Into(key, plaintext, out);
  return out;
}

void Seal4Into(const kcrypto::DesKey& key, kerb::BytesView plaintext, kerb::Bytes& out) {
  kenc::Writer w(&out, /*append=*/true);
  const size_t start = BeginSeal4(w);
  w.PutBytes(plaintext);
  const size_t size = EndSeal4(out, start);
  kcrypto::EncryptPcbcInPlace(key, kcrypto::kZeroIv, out.data() + start, size);
  kobs::EmitNow(kobs::kSrcSeal4, kobs::Ev::kSeal, size, 0);
}

void AppendSealedReply4(const Ticket4& ticket, const kcrypto::DesKey& ticket_key,
                        const kcrypto::DesKey& reply_key, kerb::Bytes& out) {
  kenc::Writer w(&out, /*append=*/true);
  const size_t start = BeginSeal4(w);
  // AppendReplyBody4's layout, the sealed ticket written in place behind
  // its length.
  w.PutBytes(kerb::BytesView(ticket.session_key.data(), ticket.session_key.size()));
  w.PutU32(0);
  const size_t ticket_start = BeginSeal4(w);
  ticket.AppendTo(w);
  const size_t ticket_size = EndSeal4(out, ticket_start);
  StoreU32At(out, ticket_start - 4, ticket_size);
  w.PutU64(static_cast<uint64_t>(ticket.issued_at));
  w.PutU64(static_cast<uint64_t>(ticket.lifetime));
  const size_t size = EndSeal4(out, start);
  kcrypto::EncryptPcbcNestedInPlace(ticket_key, ticket_start - start, ticket_size, reply_key,
                                    out.data() + start, size);
  kobs::EmitNow(kobs::kSrcSeal4, kobs::Ev::kSeal, ticket_size, 0);
  kobs::EmitNow(kobs::kSrcSeal4, kobs::Ev::kSeal, size, 0);
}

namespace {

kerb::Result<kerb::Bytes> Unseal4Impl(const kcrypto::DesKey& key, kerb::BytesView ciphertext) {
  if (ciphertext.empty() || ciphertext.size() % 8 != 0) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed data not block-aligned");
  }
  // Decrypt only the first block before committing to the rest: a wrong key
  // shows up in the magic with overwhelming probability, and the dictionary
  // attack's inner loop (E4/B4) hits exactly this path once per guess.
  uint64_t c0 = kcrypto::LoadU64BE(ciphertext.data());
  uint64_t p0 = key.DecryptBlock(c0);  // zero IV
  uint8_t first[8];
  kcrypto::StoreU64BE(first, p0);
  if (!kerb::ConstantTimeEqual(kerb::BytesView(first, 4), kerb::BytesView(kSealMagic, 4))) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "seal magic mismatch (wrong key?)");
  }
  kerb::Bytes plain(ciphertext.begin(), ciphertext.end());
  kcrypto::StoreU64BE(plain.data(), p0);
  // The PCBC chain continues from P_0 ^ C_0 acting as the tail's IV.
  kcrypto::DecryptPcbcInPlace(key, kcrypto::U64ToBlock(p0 ^ c0), plain.data() + 8,
                              plain.size() - 8);
  kenc::Reader r(plain);
  auto magic = r.GetBytes(4);
  if (!magic.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "seal magic mismatch (wrong key?)");
  }
  auto body = r.GetLengthPrefixed();
  if (!body.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "seal length invalid");
  }
  return body;
}

}  // namespace

kerb::Result<kerb::Bytes> Unseal4(const kcrypto::DesKey& key, kerb::BytesView ciphertext) {
  // The dictionary attack's inner loop lands here once per guess; keep the
  // untraced path a tail call with no extra work.
  if (!kobs::Enabled()) {
    return Unseal4Impl(key, ciphertext);
  }
  auto body = Unseal4Impl(key, ciphertext);
  kobs::EmitNow(kobs::kSrcSeal4, body.ok() ? kobs::Ev::kUnsealOk : kobs::Ev::kUnsealFail,
                ciphertext.size(), 0);
  return body;
}

// --------------------------------------------------------------------------- Ticket4

kerb::Bytes Ticket4::Encode() const {
  kenc::Writer w;
  AppendTo(w);
  return w.Take();
}

void Ticket4::AppendTo(kenc::Writer& w) const {
  service.EncodeTo(w);
  client.EncodeTo(w);
  w.PutU32(client_addr);
  w.PutU64(static_cast<uint64_t>(issued_at));
  w.PutU64(static_cast<uint64_t>(lifetime));
  w.PutBytes(kerb::BytesView(session_key.data(), session_key.size()));
}

kerb::Result<Ticket4> Ticket4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  Ticket4 t;
  auto service = Principal::DecodeFrom(r);
  if (!service.ok()) {
    return service.error();
  }
  t.service = service.value();
  auto client = Principal::DecodeFrom(r);
  if (!client.ok()) {
    return client.error();
  }
  t.client = client.value();
  auto addr = r.GetU32();
  auto issued = r.GetU64();
  auto life = r.GetU64();
  if (!addr.ok() || !issued.ok() || !life.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated ticket");
  }
  t.client_addr = addr.value();
  t.issued_at = static_cast<ksim::Time>(issued.value());
  t.lifetime = static_cast<ksim::Duration>(life.value());
  auto key = GetKeyBlock(r);
  if (!key.ok()) {
    return key.error();
  }
  t.session_key = key.value();
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "trailing bytes in ticket");
  }
  return t;
}

kerb::Bytes Ticket4::Seal(const kcrypto::DesKey& service_key) const {
  return Seal4(service_key, Encode());
}

kerb::Result<Ticket4> Ticket4::Unseal(const kcrypto::DesKey& service_key,
                                      kerb::BytesView sealed) {
  auto plain = Unseal4(service_key, sealed);
  if (!plain.ok()) {
    return plain.error();
  }
  return Decode(plain.value());
}

// --------------------------------------------------------------------------- Authenticator4

kerb::Bytes Authenticator4::Encode() const {
  kerb::Bytes out;
  out.reserve(12 + client.name.size() + client.instance.size() + client.realm.size() + 12);
  kenc::Writer w(&out);
  client.EncodeTo(w);
  w.PutU32(client_addr);
  w.PutU64(static_cast<uint64_t>(timestamp));
  return out;
}

kerb::Result<Authenticator4> Authenticator4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  Authenticator4 a;
  auto client = Principal::DecodeFrom(r);
  if (!client.ok()) {
    return client.error();
  }
  a.client = client.value();
  auto addr = r.GetU32();
  auto ts = r.GetU64();
  if (!addr.ok() || !ts.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated authenticator");
  }
  a.client_addr = addr.value();
  a.timestamp = static_cast<ksim::Time>(ts.value());
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "trailing bytes in authenticator");
  }
  return a;
}

kerb::Bytes Authenticator4::Seal(const kcrypto::DesKey& session_key) const {
  return Seal4(session_key, Encode());
}

kerb::Result<Authenticator4> Authenticator4::Unseal(const kcrypto::DesKey& session_key,
                                                    kerb::BytesView sealed) {
  auto plain = Unseal4(session_key, sealed);
  if (!plain.ok()) {
    return plain.error();
  }
  return Decode(plain.value());
}

// --------------------------------------------------------------------------- AS exchange

kerb::Bytes AsRequest4::Encode() const {
  kenc::Writer w;
  client.EncodeTo(w);
  w.PutString(service_realm);
  w.PutU64(static_cast<uint64_t>(lifetime));
  return w.Take();
}

kerb::Result<AsRequest4> AsRequest4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  AsRequest4 req;
  auto client = Principal::DecodeFrom(r);
  if (!client.ok()) {
    return client.error();
  }
  req.client = client.value();
  auto realm = r.GetString();
  auto life = r.GetU64();
  if (!realm.ok() || !life.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated AS request");
  }
  req.service_realm = realm.value();
  req.lifetime = static_cast<ksim::Duration>(life.value());
  return req;
}

kerb::Bytes AsPkRequest4::Encode() const {
  kenc::Writer w;
  client.EncodeTo(w);
  w.PutString(service_realm);
  w.PutU64(static_cast<uint64_t>(lifetime));
  w.PutLengthPrefixed(client_pub);
  w.PutLengthPrefixed(sealed_padata);
  return w.Take();
}

kerb::Result<AsPkRequest4> AsPkRequest4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  AsPkRequest4 req;
  auto client = Principal::DecodeFrom(r);
  if (!client.ok()) {
    return client.error();
  }
  req.client = client.value();
  auto realm = r.GetString();
  auto life = r.GetU64();
  auto pub = r.GetLengthPrefixed();
  auto padata = r.GetLengthPrefixed();
  if (!realm.ok() || !life.ok() || !pub.ok() || !padata.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated PK AS request");
  }
  req.service_realm = realm.value();
  req.lifetime = static_cast<ksim::Duration>(life.value());
  req.client_pub = pub.value();
  req.sealed_padata = padata.value();
  return req;
}

kerb::Result<AsPkReply4> AsPkReply4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  AsPkReply4 rep;
  auto pub = r.GetLengthPrefixed();
  auto sealed = r.GetLengthPrefixed();
  if (!pub.ok() || !sealed.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated PK AS reply");
  }
  rep.server_pub = pub.value();
  rep.sealed_reply = sealed.value();
  return rep;
}

kerb::Bytes AsReplyBody4::Encode() const {
  kenc::Writer w;
  AppendReplyBody4(w, tgs_session_key, sealed_tgt, issued_at, lifetime);
  return w.Take();
}

kerb::Result<AsReplyBody4> AsReplyBody4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  AsReplyBody4 body;
  auto key = GetKeyBlock(r);
  if (!key.ok()) {
    return key.error();
  }
  body.tgs_session_key = key.value();
  auto tgt = r.GetLengthPrefixed();
  auto issued = r.GetU64();
  auto life = r.GetU64();
  if (!tgt.ok() || !issued.ok() || !life.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated AS reply body");
  }
  body.sealed_tgt = tgt.value();
  body.issued_at = static_cast<ksim::Time>(issued.value());
  body.lifetime = static_cast<ksim::Duration>(life.value());
  return body;
}

// --------------------------------------------------------------------------- TGS exchange

kerb::Bytes TgsRequest4::Encode() const {
  kenc::Writer w;
  service.EncodeTo(w);
  w.PutLengthPrefixed(sealed_tgt);
  w.PutLengthPrefixed(sealed_auth);
  w.PutU64(static_cast<uint64_t>(lifetime));
  return w.Take();
}

kerb::Result<TgsRequest4> TgsRequest4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  TgsRequest4 req;
  auto service = Principal::DecodeFrom(r);
  if (!service.ok()) {
    return service.error();
  }
  req.service = service.value();
  auto tgt = r.GetLengthPrefixed();
  auto auth = r.GetLengthPrefixed();
  auto life = r.GetU64();
  if (!tgt.ok() || !auth.ok() || !life.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated TGS request");
  }
  req.sealed_tgt = tgt.value();
  req.sealed_auth = auth.value();
  req.lifetime = static_cast<ksim::Duration>(life.value());
  return req;
}

kerb::Bytes TgsReplyBody4::Encode() const {
  kenc::Writer w;
  AppendReplyBody4(w, session_key, sealed_ticket, issued_at, lifetime);
  return w.Take();
}

kerb::Result<TgsReplyBody4> TgsReplyBody4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  TgsReplyBody4 body;
  auto key = GetKeyBlock(r);
  if (!key.ok()) {
    return key.error();
  }
  body.session_key = key.value();
  auto ticket = r.GetLengthPrefixed();
  auto issued = r.GetU64();
  auto life = r.GetU64();
  if (!ticket.ok() || !issued.ok() || !life.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated TGS reply body");
  }
  body.sealed_ticket = ticket.value();
  body.issued_at = static_cast<ksim::Time>(issued.value());
  body.lifetime = static_cast<ksim::Duration>(life.value());
  return body;
}

// --------------------------------------------------------------------------- AP exchange

kerb::Bytes ApRequest4::Encode() const {
  kenc::Writer w;
  w.PutLengthPrefixed(sealed_ticket);
  w.PutLengthPrefixed(sealed_auth);
  w.PutU8(want_mutual ? 1 : 0);
  w.PutLengthPrefixed(app_data);
  w.PutLengthPrefixed(challenge_response);
  return w.Take();
}

kerb::Result<ApRequest4> ApRequest4::Decode(kerb::BytesView data) {
  kenc::Reader r(data);
  ApRequest4 req;
  auto ticket = r.GetLengthPrefixed();
  auto auth = r.GetLengthPrefixed();
  auto mutual = r.GetU8();
  auto app_data = r.GetLengthPrefixed();
  auto challenge_response = r.GetLengthPrefixed();
  if (!ticket.ok() || !auth.ok() || !mutual.ok() || !app_data.ok() ||
      !challenge_response.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated AP request");
  }
  req.sealed_ticket = ticket.value();
  req.sealed_auth = auth.value();
  req.want_mutual = mutual.value() != 0;
  req.app_data = app_data.value();
  req.challenge_response = challenge_response.value();
  return req;
}

kerb::Bytes MakeApReply4(const kcrypto::DesKey& session_key, ksim::Time authenticator_time) {
  kenc::Writer w;
  w.PutU64(static_cast<uint64_t>(authenticator_time) + 1);
  return Seal4(session_key, w.Peek());
}

kerb::Result<ksim::Time> VerifyApReply4(const kcrypto::DesKey& session_key,
                                        kerb::BytesView reply, ksim::Time authenticator_time) {
  auto plain = Unseal4(session_key, reply);
  if (!plain.ok()) {
    return plain.error();
  }
  kenc::Reader r(plain.value());
  auto ts = r.GetU64();
  if (!ts.ok()) {
    return ts.error();
  }
  if (ts.value() != static_cast<uint64_t>(authenticator_time) + 1) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "mutual-auth timestamp mismatch");
  }
  return static_cast<ksim::Time>(ts.value());
}

// --------------------------------------------------------------------------- KRB_ERROR

kerb::Bytes MakeError4(uint32_t code, kerb::BytesView e_data) {
  kenc::Writer w;
  w.PutU32(code);
  w.PutLengthPrefixed(e_data);
  return Frame4(MsgType::kError, w.Peek());
}

kerb::Result<std::pair<uint32_t, kerb::Bytes>> ParseError4(kerb::BytesView body) {
  kenc::Reader r(body);
  auto code = r.GetU32();
  auto e_data = r.GetLengthPrefixed();
  if (!code.ok() || !e_data.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated KRB_ERROR");
  }
  return std::make_pair(code.value(), e_data.value());
}

// --------------------------------------------------------------------------- framing

kerb::Bytes Frame4(MsgType type, kerb::BytesView body) {
  kerb::Bytes out;
  out.reserve(2 + body.size());
  kenc::Writer w(&out);
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutBytes(body);
  return out;
}

void AppendReplyBody4(kenc::Writer& w, const kcrypto::DesBlock& session_key,
                      kerb::BytesView sealed_blob, ksim::Time issued_at,
                      ksim::Duration lifetime) {
  w.PutBytes(kerb::BytesView(session_key.data(), session_key.size()));
  w.PutLengthPrefixed(sealed_blob);
  w.PutU64(static_cast<uint64_t>(issued_at));
  w.PutU64(static_cast<uint64_t>(lifetime));
}

kerb::Result<std::pair<MsgType, kerb::Bytes>> Unframe4(kerb::BytesView data) {
  kenc::Reader r(data);
  auto version = r.GetU8();
  if (!version.ok() || version.value() != kProtocolVersion) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a V4 message");
  }
  auto type = r.GetU8();
  if (!type.ok()) {
    return type.error();
  }
  return std::make_pair(static_cast<MsgType>(type.value()), r.Rest());
}

}  // namespace krb4
