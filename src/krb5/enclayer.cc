#include "src/krb5/enclayer.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/modes.h"
#include "src/encoding/io.h"
#include "src/obs/kobs.h"

namespace krb5 {
namespace enclayer {

namespace {

size_t ChecksumOffset(const EncLayerConfig& config) {
  return (config.use_confounder ? 8u : 0u) + 1u;
}

void EmitSeal(const kerb::Bytes& sealed, const EncLayerConfig& config) {
  kobs::EmitNow(kobs::kSrcSeal5, kobs::Ev::kSeal, sealed.size(),
                static_cast<uint64_t>(config.checksum));
}

}  // namespace

// The one Draft 3 plaintext layout behind every seal:
//   confounder || checksum type || checksum || body || PKCS#5 padding
uint8_t* BeginPlaintext(const EncLayerConfig& config, kcrypto::Prng& prng, size_t body_size,
                        kerb::Bytes& out) {
  const size_t checksum_len = kcrypto::ChecksumSize(config.checksum);
  const size_t unpadded = ChecksumOffset(config) + checksum_len + body_size;
  out.clear();
  out.resize(unpadded + 8 - unpadded % 8);
  uint8_t* p = out.data();
  if (config.use_confounder) {
    prng.Fill(p, 8);
    p += 8;
  }
  *p++ = static_cast<uint8_t>(config.checksum);
  return std::fill_n(p, checksum_len, uint8_t{0});
}

void FinishPlaintext(const kcrypto::DesKey& key, const EncLayerConfig& config, size_t body_size,
                     kerb::Bytes& out) {
  const size_t checksum_offset = ChecksumOffset(config);
  const size_t unpadded = checksum_offset + kcrypto::ChecksumSize(config.checksum) + body_size;
  uint8_t checksum[kcrypto::kMaxChecksumSize];
  const size_t checksum_len = kcrypto::ComputeChecksumInto(
      config.checksum, kerb::BytesView(out.data(), unpadded), checksum, &key);
  std::copy_n(checksum, checksum_len, out.begin() + checksum_offset);
  std::fill(out.begin() + unpadded, out.end(), static_cast<uint8_t>(out.size() - unpadded));
}

void EncryptPlaintext(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                      const EncLayerConfig& config, kerb::Bytes& out) {
  kcrypto::EncryptCbcInPlace(key, iv, out.data(), out.size());
  EmitSeal(out, config);
}

void EncryptPlaintextPair(const kcrypto::DesKey& first_key, kerb::Bytes& first,
                          const kcrypto::DesKey& second_key, kerb::Bytes& second,
                          const EncLayerConfig& config) {
  kcrypto::EncryptCbcPairInPlace(first_key, first.data(), first.size(), second_key,
                                 second.data(), second.size());
  EmitSeal(first, config);
  EmitSeal(second, config);
}

// Decrypts one copy of `sealed` and checks it where it lies: padding,
// confounder, checksum type and length, then the checksum over the
// plaintext with its field zeroed. The body is left for the caller's decoder.
kerb::Result<kerb::BytesView> Open(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv,
                                   kerb::BytesView sealed, const EncLayerConfig& config,
                                   uint8_t (&stack)[kStackPlaintext], kerb::Bytes& heap) {
  if (sealed.empty() || sealed.size() % 8 != 0) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sealed data not block-aligned");
  }
  uint8_t* plain = stack;
  if (sealed.size() > kStackPlaintext) {
    heap.resize(sealed.size());
    plain = heap.data();
  }
  std::copy(sealed.begin(), sealed.end(), plain);
  kcrypto::DecryptCbcInPlace(key, iv, plain, sealed.size());
  auto unpadded = kcrypto::Pkcs5UnpaddedSize(kerb::BytesView(plain, sealed.size()));
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
  uint8_t claimed[kcrypto::kMaxChecksumSize];
  std::memcpy(claimed, plain + checksum_offset, checksum_len);
  std::memset(plain + checksum_offset, 0, checksum_len);
  if (!kcrypto::VerifyChecksum(config.checksum, kerb::BytesView(plain, len),
                               kerb::BytesView(claimed, checksum_len), key)) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "checksum mismatch");
  }
  const size_t body_offset = checksum_offset + checksum_len;
  return kerb::BytesView(plain + body_offset, len - body_offset);
}

void EmitUnseal(bool ok, size_t sealed_size, const EncLayerConfig& config) {
  kobs::EmitNow(kobs::kSrcSeal5, ok ? kobs::Ev::kUnsealOk : kobs::Ev::kUnsealFail, sealed_size,
                static_cast<uint64_t>(config.checksum));
}

}  // namespace enclayer

kcrypto::DesBlock NextChainedIv(const kcrypto::DesKey& key, const kcrypto::DesBlock& iv) {
  return kcrypto::U64ToBlock(key.EncryptBlock(kcrypto::BlockToU64(iv) + 1));
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
