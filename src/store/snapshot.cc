#include "src/store/snapshot.h"

#include "src/crypto/crc32.h"
#include "src/encoding/io.h"

namespace kstore {

void Snapshot::Add(kerb::BytesView entry) {
  const auto len = static_cast<uint32_t>(entry.size());
  body_.push_back(static_cast<uint8_t>(len >> 24));
  body_.push_back(static_cast<uint8_t>(len >> 16));
  body_.push_back(static_cast<uint8_t>(len >> 8));
  body_.push_back(static_cast<uint8_t>(len));
  kerb::Append(body_, entry);
  ++count_;
}

kerb::Bytes EncodeSnapshot(const Snapshot& snapshot) {
  kerb::Bytes image;
  image.reserve(16 + snapshot.body().size() + 4);
  kenc::Writer w(&image);
  w.PutU32(kSnapshotMagic);
  w.PutU64(snapshot.lsn);
  w.PutU32(static_cast<uint32_t>(snapshot.size()));
  w.PutBytes(snapshot.body());
  const uint32_t crc = kcrypto::Crc32(image);
  w.PutU32(crc);
  return image;
}

kerb::Result<Snapshot> DecodeSnapshot(kerb::BytesView image) {
  if (image.size() < 4) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: too short");
  }
  const kerb::BytesView sealed = image.subspan(0, image.size() - 4);
  const uint32_t claimed = (static_cast<uint32_t>(image[image.size() - 4]) << 24) |
                           (static_cast<uint32_t>(image[image.size() - 3]) << 16) |
                           (static_cast<uint32_t>(image[image.size() - 2]) << 8) |
                           static_cast<uint32_t>(image[image.size() - 1]);
  if (kcrypto::Crc32(sealed) != claimed) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: crc mismatch");
  }
  kenc::Reader r(sealed);
  auto magic = r.GetU32();
  if (!magic.ok() || magic.value() != kSnapshotMagic) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: bad magic");
  }
  auto lsn = r.GetU64();
  auto count = r.GetU32();
  if (!lsn.ok() || !count.ok() || count.value() > kMaxSnapshotEntries) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: bad header");
  }
  // The body must hold exactly `count` length-prefixed entries.
  const kerb::BytesView body = sealed.subspan(sealed.size() - r.remaining());
  size_t at = 0;
  for (uint32_t i = 0; i < count.value(); ++i) {
    if (body.size() - at < 4) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: truncated entry");
    }
    const size_t len = Snapshot::LengthAt(body.data() + at);
    if (body.size() - at - 4 < len) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: truncated entry");
    }
    at += 4 + len;
  }
  if (at != body.size()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "snapshot: trailing bytes");
  }
  Snapshot snapshot;
  snapshot.lsn = lsn.value();
  snapshot.count_ = count.value();
  snapshot.body_.assign(body.begin(), body.end());
  return snapshot;
}

}  // namespace kstore
