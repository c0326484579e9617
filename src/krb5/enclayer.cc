#include "src/krb5/enclayer.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/modes.h"
#include "src/encoding/io.h"
#include "src/obs/kobs.h"

namespace krb5 {

namespace {

// The one Draft 3 plaintext builder behind every seal: writes
//   confounder || checksum type || checksum || body || PKCS#5 padding
// into `out` (cleared, capacity kept). The confounder is drawn from `prng`
// first; `append_body` then adds the `body_size` TLV bytes, and the checksum
// covers everything before the padding with its own field still zero.
template <typename AppendBody>
void BuildPlaintext(const kcrypto::DesKey& key, const EncLayerConfig& config,
                    kcrypto::Prng& prng, size_t body_size, AppendBody&& append_body,
                    kerb::Bytes& out) {
  const size_t checksum_len = kcrypto::ChecksumSize(config.checksum);
  const size_t checksum_offset = (config.use_confounder ? 8u : 0u) + 1u;
  const size_t unpadded = checksum_offset + checksum_len + body_size;
  out.reserve(unpadded + 8 - unpadded % 8);
  kenc::Writer w(&out);
  if (config.use_confounder) {
    uint8_t confounder[8];
    prng.Fill(confounder, 8);
    w.PutBytes(kerb::BytesView(confounder, 8));
  }
  w.PutU8(static_cast<uint8_t>(config.checksum));
  for (size_t i = 0; i < checksum_len; ++i) {
    w.PutU8(0);
  }
  append_body(w);
  kerb::Bytes checksum = kcrypto::ComputeChecksum(config.checksum, out, key);
  std::copy(checksum.begin(), checksum.end(), out.begin() + checksum_offset);
  kcrypto::Pkcs5PadInPlace(out);
}

void EmitSeal(const kerb::Bytes& sealed, const EncLayerConfig& config) {
  kobs::EmitNow(kobs::kSrcSeal5, kobs::Ev::kSeal, sealed.size(),
                static_cast<uint64_t>(config.checksum));
}

void SealTlvWithIvInto(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                       const kenc::TlvMessage& msg, const EncLayerConfig& config,
                       kcrypto::Prng& prng, kerb::Bytes& out) {
  BuildPlaintext(key, config, prng, msg.EncodedSize(),
                 [&msg](kenc::Writer& w) { msg.AppendTo(w); }, out);
  kcrypto::EncryptCbcInPlace(key, iv, out.data(), out.size());
  EmitSeal(out, config);
}

}  // namespace

kerb::Bytes SealTlvWithIv(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                          const kenc::TlvMessage& msg, const EncLayerConfig& config,
                          kcrypto::Prng& prng) {
  kerb::Bytes sealed;
  SealTlvWithIvInto(key, iv, msg, config, prng, sealed);
  return sealed;
}

void SealTlvInto(const kcrypto::DesKey& key, const kenc::TlvMessage& msg,
                 const EncLayerConfig& config, kcrypto::Prng& prng, kerb::Bytes& out) {
  SealTlvWithIvInto(key, kcrypto::kZeroIv, msg, config, prng, out);
}

void SealEncodedPairInto(const kcrypto::DesKey& first_key, kerb::BytesView first,
                         kerb::Bytes& first_out, const kcrypto::DesKey& second_key,
                         kerb::BytesView second, kerb::Bytes& second_out,
                         const EncLayerConfig& config, kcrypto::Prng& prng) {
  BuildPlaintext(first_key, config, prng, first.size(),
                 [first](kenc::Writer& w) { w.PutBytes(first); }, first_out);
  BuildPlaintext(second_key, config, prng, second.size(),
                 [second](kenc::Writer& w) { w.PutBytes(second); }, second_out);
  kcrypto::EncryptCbcPairInPlace(first_key, first_out.data(), first_out.size(), second_key,
                                 second_out.data(), second_out.size());
  EmitSeal(first_out, config);
  EmitSeal(second_out, config);
}

namespace {

// Decrypts one copy of `sealed` and checks it where it lies: padding,
// confounder, checksum type and length, then the checksum over the
// plaintext with its field zeroed, and finally the TLV body read from a view.
kerb::Result<kenc::TlvMessage> UnsealTlvWithIvImpl(const kcrypto::DesKey& key,
                                                   const kcrypto::DesBlock& iv,
                                                   uint16_t expected_type,
                                                   kerb::BytesView sealed,
                                                   const EncLayerConfig& config) {
  if (sealed.empty() || sealed.size() % 8 != 0) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed data not block-aligned");
  }
  kerb::Bytes plain(sealed.begin(), sealed.end());
  kcrypto::DecryptCbcInPlace(key, iv, plain.data(), plain.size());
  auto unpadded = kcrypto::Pkcs5UnpaddedSize(plain);
  if (!unpadded.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "padding invalid (wrong key/IV?)");
  }
  const size_t len = unpadded.value();
  const size_t type_offset = config.use_confounder ? 8u : 0u;
  if (len < type_offset) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "confounder missing");
  }
  if (len == type_offset || plain[type_offset] != static_cast<uint8_t>(config.checksum)) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "checksum type mismatch");
  }
  const size_t checksum_offset = type_offset + 1;
  const size_t checksum_len = kcrypto::ChecksumSize(config.checksum);
  if (len - checksum_offset < checksum_len) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "checksum missing");
  }
  uint8_t claimed[16];  // the largest ChecksumSize
  std::memcpy(claimed, plain.data() + checksum_offset, checksum_len);
  std::memset(plain.data() + checksum_offset, 0, checksum_len);
  if (!kcrypto::VerifyChecksum(config.checksum, kerb::BytesView(plain.data(), len),
                               kerb::BytesView(claimed, checksum_len), key)) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "checksum mismatch");
  }
  const size_t body_offset = checksum_offset + checksum_len;
  return kenc::TlvMessage::DecodeExpecting(
      expected_type, kerb::BytesView(plain.data() + body_offset, len - body_offset));
}

}  // namespace

kerb::Result<kenc::TlvMessage> UnsealTlvWithIv(const kcrypto::DesKey& key,
                                               const kcrypto::DesBlock& iv,
                                               uint16_t expected_type, kerb::BytesView sealed,
                                               const EncLayerConfig& config) {
  if (!kobs::Enabled()) {
    return UnsealTlvWithIvImpl(key, iv, expected_type, sealed, config);
  }
  auto plain = UnsealTlvWithIvImpl(key, iv, expected_type, sealed, config);
  kobs::EmitNow(kobs::kSrcSeal5, plain.ok() ? kobs::Ev::kUnsealOk : kobs::Ev::kUnsealFail,
                sealed.size(), static_cast<uint64_t>(config.checksum));
  return plain;
}

kcrypto::DesBlock NextChainedIv(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv) {
  return kcrypto::U64ToBlock(key.EncryptBlock(kcrypto::BlockToU64(iv) + 1));
}

kerb::Bytes SealTlv(const kcrypto::DesKey& key, const kenc::TlvMessage& msg,
                    const EncLayerConfig& config, kcrypto::Prng& prng) {
  return SealTlvWithIv(key, kcrypto::kZeroIv, msg, config, prng);
}

kerb::Result<kenc::TlvMessage> UnsealTlv(const kcrypto::DesKey& key, uint16_t expected_type,
                                         kerb::BytesView sealed, const EncLayerConfig& config) {
  return UnsealTlvWithIv(key, kcrypto::kZeroIv, expected_type, sealed, config);
}

kerb::Bytes Draft2PrivSeal(const kcrypto::DesKey& key, const Draft2Priv& msg) {
  kenc::Writer w;
  w.PutBytes(msg.data);  // DATA first, no length — the flaw
  w.PutU64(static_cast<uint64_t>(msg.timestamp));
  w.PutU8(msg.direction);
  w.PutU32(msg.host_address);
  kerb::Bytes sealed = w.Take();
  kcrypto::Pkcs5PadInPlace(sealed);
  kcrypto::EncryptCbcInPlace(key, kcrypto::kZeroIv, sealed.data(), sealed.size());
  return sealed;
}

kerb::Result<Draft2Priv> Draft2PrivUnseal(const kcrypto::DesKey& key, kerb::BytesView sealed) {
  if (sealed.empty() || sealed.size() % 8 != 0) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed data not block-aligned");
  }
  kerb::Bytes padded(sealed.begin(), sealed.end());
  kcrypto::DecryptCbcInPlace(key, kcrypto::kZeroIv, padded.data(), padded.size());
  auto plain = kcrypto::Pkcs5Unpad(padded);
  if (!plain.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "padding invalid");
  }
  constexpr size_t kTrailerLen = 8 + 1 + 4;
  if (plain.value().size() < kTrailerLen) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "too short for trailer");
  }
  size_t data_len = plain.value().size() - kTrailerLen;
  Draft2Priv msg;
  msg.data = kerb::Bytes(plain.value().begin(), plain.value().begin() + data_len);
  kenc::Reader r(kerb::BytesView(plain.value().data() + data_len, kTrailerLen));
  msg.timestamp = static_cast<ksim::Time>(r.GetU64().value());
  msg.direction = r.GetU8().value();
  msg.host_address = r.GetU32().value();
  return msg;
}

}  // namespace krb5
