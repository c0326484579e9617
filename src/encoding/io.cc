#include "src/encoding/io.h"

namespace kenc {

void Writer::PutU16(uint16_t v) {
  out_->push_back(static_cast<uint8_t>(v >> 8));
  out_->push_back(static_cast<uint8_t>(v & 0xff));
}

void Writer::PutU32(uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out_->push_back(static_cast<uint8_t>((v >> shift) & 0xff));
  }
}

void Writer::PutU64(uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out_->push_back(static_cast<uint8_t>((v >> shift) & 0xff));
  }
}

void Writer::PutLengthPrefixed(kerb::BytesView b) {
  PutU32(static_cast<uint32_t>(b.size()));
  PutBytes(b);
}

void Writer::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->insert(out_->end(), s.begin(), s.end());
}

kerb::Result<uint8_t> Reader::GetU8() {
  if (remaining() < 1) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated u8");
  }
  return data_[pos_++];
}

kerb::Result<uint16_t> Reader::GetU16() {
  if (remaining() < 2) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated u16");
  }
  uint16_t v = static_cast<uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

kerb::Result<uint32_t> Reader::GetU32() {
  if (remaining() < 4) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated u32");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | data_[pos_ + i];
  }
  pos_ += 4;
  return v;
}

kerb::Result<uint64_t> Reader::GetU64() {
  if (remaining() < 8) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated u64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | data_[pos_ + i];
  }
  pos_ += 8;
  return v;
}

kerb::Result<kerb::Bytes> Reader::GetBytes(size_t n) {
  if (remaining() < n) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated byte field");
  }
  kerb::Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

kerb::Result<kerb::Bytes> Reader::GetLengthPrefixed() {
  auto view = GetLengthPrefixedView();
  if (!view.ok()) {
    return view.error();
  }
  return kerb::Bytes(view.value().begin(), view.value().end());
}

kerb::Result<kerb::BytesView> Reader::GetLengthPrefixedView() {
  auto len = GetU32();
  if (!len.ok()) {
    return len.error();
  }
  if (remaining() < len.value()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "length prefix exceeds buffer");
  }
  const kerb::BytesView out = data_.subspan(pos_, len.value());
  pos_ += len.value();
  return out;
}

kerb::Result<std::string> Reader::GetString() {
  auto bytes = GetLengthPrefixed();
  if (!bytes.ok()) {
    return bytes.error();
  }
  return kerb::ToString(bytes.value());
}

}  // namespace kenc
