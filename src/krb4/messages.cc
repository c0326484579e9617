#include "src/krb4/messages.h"

#include <algorithm>

#include "src/crypto/modes.h"
#include "src/obs/kobs.h"

namespace krb4 {

namespace {

constexpr uint8_t kSealMagic[4] = {'K', 'R', 'B', '4'};

// The size of the seal of an n-byte plaintext: magic, length, plaintext,
// zero padding to a block boundary.
size_t SealedSize4(size_t n) { return (8 + n + 7) & ~size_t{7}; }

// Writes the seal header of an n-byte plaintext at `out`; returns where the
// plaintext goes.
uint8_t* PutSealHeader4(size_t n, uint8_t* out) {
  out = std::copy(kSealMagic, kSealMagic + 4, out);
  return kenc::PutBe(out, n, 4);
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

uint8_t* AppendSealFrame4(size_t n, kerb::Bytes& out) {
  const size_t start = out.size();
  out.resize(start + SealedSize4(n));  // the padding reads as zeros
  return PutSealHeader4(n, out.data() + start);
}

void EncryptSeal4(const kcrypto::DesKey& key, kerb::Bytes& out, size_t start) {
  const size_t size = out.size() - start;
  kcrypto::EncryptPcbcInPlace(key, kcrypto::kZeroIv, out.data() + start, size);
  kobs::EmitNow(kobs::kSrcSeal4, kobs::Ev::kSeal, size, 0);
}

kerb::Bytes Seal4(const kcrypto::DesKey& key, kerb::BytesView plaintext) {
  kerb::Bytes out;
  Seal4Into(key, plaintext, out);
  return out;
}

void Seal4Into(const kcrypto::DesKey& key, kerb::BytesView plaintext, kerb::Bytes& out) {
  const size_t start = out.size();
  std::copy(plaintext.begin(), plaintext.end(), AppendSealFrame4(plaintext.size(), out));
  EncryptSeal4(key, out, start);
}

void AppendSealedReply4(const Ticket4& ticket, const kcrypto::DesKey& ticket_key,
                        const kcrypto::DesKey& reply_key, kerb::Bytes& out) {
  const size_t ticket_plain = kenc::EncodedSize(ticket);
  const size_t ticket_size = SealedSize4(ticket_plain);
  const size_t start = out.size();
  // ReplyBody4's layout, the sealed ticket written in place behind its
  // length.
  uint8_t* p = AppendSealFrame4(8 + 4 + ticket_size + 8 + 8, out);
  p = std::copy(ticket.session_key.begin(), ticket.session_key.end(), p);
  p = kenc::PutBe(p, ticket_size, 4);
  const size_t ticket_start = static_cast<size_t>(p - out.data());
  kenc::EncodeTo(ticket, PutSealHeader4(ticket_plain, p));
  p = kenc::PutBe(p + ticket_size, static_cast<uint64_t>(ticket.issued_at), 8);
  kenc::PutBe(p, static_cast<uint64_t>(ticket.lifetime), 8);
  const size_t size = out.size() - start;
  kcrypto::EncryptPcbcNestedInPlace(ticket_key, ticket_start - start, ticket_size, reply_key,
                                    out.data() + start, size);
  kobs::EmitNow(kobs::kSrcSeal4, kobs::Ev::kSeal, ticket_size, 0);
  kobs::EmitNow(kobs::kSrcSeal4, kobs::Ev::kSeal, size, 0);
}

namespace {

kerb::Result<kerb::BytesView> Open4Impl(const kcrypto::DesKey& key, kerb::BytesView ciphertext,
                                        uint8_t* stack, size_t stack_size, kerb::Bytes& heap) {
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
  uint8_t* plain = stack;
  if (ciphertext.size() > stack_size) {
    heap.resize(ciphertext.size());
    plain = heap.data();
  }
  std::copy(ciphertext.begin(), ciphertext.end(), plain);
  kcrypto::StoreU64BE(plain, p0);
  // The PCBC chain continues from P_0 ^ C_0 acting as the tail's IV.
  kcrypto::DecryptPcbcInPlace(key, kcrypto::U64ToBlock(p0 ^ c0), plain + 8,
                              ciphertext.size() - 8);
  const size_t length = kenc::GetBe(plain + 4, 4);
  if (length > ciphertext.size() - 8) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "seal length invalid");
  }
  return kerb::BytesView(plain + 8, length);
}

}  // namespace

kerb::Result<kerb::BytesView> Open4(const kcrypto::DesKey& key, kerb::BytesView ciphertext,
                                    uint8_t* stack, size_t stack_size, kerb::Bytes& heap) {
  // The dictionary attack's inner loop lands here once per guess; keep the
  // untraced path a tail call with no extra work.
  if (!kobs::Enabled()) {
    return Open4Impl(key, ciphertext, stack, stack_size, heap);
  }
  auto body = Open4Impl(key, ciphertext, stack, stack_size, heap);
  kobs::EmitNow(kobs::kSrcSeal4, body.ok() ? kobs::Ev::kUnsealOk : kobs::Ev::kUnsealFail,
                ciphertext.size(), 0);
  return body;
}

kerb::Result<kerb::Bytes> Unseal4(const kcrypto::DesKey& key, kerb::BytesView ciphertext) {
  kerb::Bytes plain;
  auto body = Open4(key, ciphertext, nullptr, 0, plain);
  if (!body.ok()) {
    return body.error();
  }
  plain.erase(plain.begin(), plain.begin() + 8);
  plain.resize(body.value().size());
  return plain;
}

// --------------------------------------------------------------------------- AP reply

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

kerb::Result<std::pair<MsgType, kerb::BytesView>> Unframe4(kerb::BytesView data) {
  if (data.size() < 2 || data[0] != kProtocolVersion) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a V4 message");
  }
  return std::make_pair(static_cast<MsgType>(data[1]), data.subspan(2));
}

// --------------------------------------------------------------------------- KDC requests

kerb::Result<KdcRequest4> DecodeKdcRequest4(kerb::BytesView frame) {
  // Every path returns `decoded`, so the request is decoded where the caller
  // receives it.
  kerb::Result<KdcRequest4> decoded = KdcRequest4{};
  KdcRequest4& req = decoded.value();
  auto framed = Unframe4(frame);
  kerb::Status status;
  if (!framed.ok()) {
    status = framed.error();
  } else {
    const auto [type, body] = framed.value();
    switch (type) {
      case MsgType::kAsRequest:
        status = kenc::DecodeInto(body, req.emplace<AsRequest4>());
        break;
      case MsgType::kAsPkRequest:
        status = kenc::DecodeInto(body, req.emplace<AsPkRequest4>());
        break;
      case MsgType::kTgsRequest:
        status = kenc::DecodeInto(body, req.emplace<TgsRequest4>());
        break;
      default:
        status = kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a KDC request");
    }
  }
  if (!status.ok()) {
    decoded = status.error();
  }
  return decoded;
}

}  // namespace krb4
