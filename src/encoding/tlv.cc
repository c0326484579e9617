#include "src/encoding/tlv.h"

namespace kenc {

namespace {

kerb::Bytes BigEndian(uint64_t value, size_t n) {
  kerb::Bytes out(n);
  PutBe(out.data(), value, n);
  return out;
}

}  // namespace

void TlvMessage::SetU32(uint16_t tag, uint32_t value) { fields_[tag] = BigEndian(value, 4); }

void TlvMessage::SetU64(uint16_t tag, uint64_t value) { fields_[tag] = BigEndian(value, 8); }

void TlvMessage::SetString(uint16_t tag, std::string_view value) {
  fields_[tag] = kerb::ToBytes(value);
}

void TlvMessage::SetBytes(uint16_t tag, kerb::BytesView value) {
  fields_[tag] = kerb::Bytes(value.begin(), value.end());
}

kerb::Result<uint32_t> TlvMessage::GetU32(uint16_t tag) const {
  auto it = fields_.find(tag);
  if (it == fields_.end()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "missing u32 field");
  }
  if (it->second.size() != 4) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "u32 field has wrong size");
  }
  return static_cast<uint32_t>(GetBe(it->second.data(), 4));
}

kerb::Result<uint64_t> TlvMessage::GetU64(uint16_t tag) const {
  auto it = fields_.find(tag);
  if (it == fields_.end()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "missing u64 field");
  }
  if (it->second.size() != 8) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "u64 field has wrong size");
  }
  return GetBe(it->second.data(), 8);
}

kerb::Result<std::string> TlvMessage::GetString(uint16_t tag) const {
  auto it = fields_.find(tag);
  if (it == fields_.end()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "missing string field");
  }
  return kerb::ToString(it->second);
}

kerb::Result<kerb::Bytes> TlvMessage::GetBytes(uint16_t tag) const {
  auto it = fields_.find(tag);
  if (it == fields_.end()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "missing bytes field");
  }
  return it->second;
}

kerb::Bytes TlvMessage::Encode() const {
  kerb::Bytes out(EncodedSize());
  EncodeTo(out.data());
  return out;
}

size_t TlvMessage::EncodedSize() const {
  size_t size = 4;  // type, field count
  for (const auto& field : fields_) {
    size += 6 + field.second.size();  // tag, length, value
  }
  return size;
}

uint8_t* TlvMessage::EncodeTo(uint8_t* out) const {
  out = PutBe(out, type_, 2);
  out = PutBe(out, fields_.size(), 2);
  for (const auto& [tag, value] : fields_) {
    out = PutBe(out, tag, 2);
    out = PutBe(out, value.size(), 4);
    out = std::copy(value.begin(), value.end(), out);
  }
  return out;
}

kerb::Result<TlvMessage> TlvMessage::Decode(kerb::BytesView data) {
  TlvMessage msg(PeekType(data));
  const char* error = WalkFields(data, [&msg](uint16_t tag, kerb::BytesView value) {
    return msg.fields_.try_emplace(tag, value.begin(), value.end()).second
               ? nullptr
               : "duplicate field tag";
  });
  if (error != nullptr) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, error);
  }
  return msg;
}

kerb::Result<TlvMessage> TlvMessage::DecodeExpecting(uint16_t expected_type,
                                                     kerb::BytesView data) {
  auto msg = Decode(data);
  if (!msg.ok()) {
    return msg;
  }
  if (msg.value().type() != expected_type) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "message type mismatch");
  }
  return msg;
}

}  // namespace kenc
