#include "src/encoding/tlv.h"

#include <cassert>

#include "src/encoding/io.h"

namespace kenc {

TlvFieldWriter::TlvFieldWriter(Writer& w, uint16_t type, uint16_t field_count)
    : w_(w), declared_(field_count) {
  w_.PutU16(type);
  w_.PutU16(field_count);
}

TlvFieldWriter::~TlvFieldWriter() { assert(added_ == declared_); }

void TlvFieldWriter::Header(uint16_t tag, size_t len) {
  assert(static_cast<int32_t>(tag) > last_tag_);
  last_tag_ = tag;
  ++added_;
  w_.PutU16(tag);
  w_.PutU32(static_cast<uint32_t>(len));
}

void TlvFieldWriter::AddU32(uint16_t tag, uint32_t value) {
  Header(tag, 4);
  w_.PutU32(value);
}

void TlvFieldWriter::AddU64(uint16_t tag, uint64_t value) {
  Header(tag, 8);
  w_.PutU64(value);
}

void TlvFieldWriter::AddString(uint16_t tag, std::string_view value) {
  // Raw characters, no length prefix — the TLV header already carries the
  // length (matches TlvMessage, which stores strings as bare bytes).
  Header(tag, value.size());
  w_.PutBytes(kerb::BytesView(reinterpret_cast<const uint8_t*>(value.data()), value.size()));
}

void TlvFieldWriter::AddBytes(uint16_t tag, kerb::BytesView value) {
  Header(tag, value.size());
  w_.PutBytes(value);
}

void TlvMessage::SetU32(uint16_t tag, uint32_t value) {
  Writer w;
  w.PutU32(value);
  fields_[tag] = w.Take();
}

void TlvMessage::SetU64(uint16_t tag, uint64_t value) {
  Writer w;
  w.PutU64(value);
  fields_[tag] = w.Take();
}

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
  Reader r(it->second);
  return r.GetU32();
}

kerb::Result<uint64_t> TlvMessage::GetU64(uint16_t tag) const {
  auto it = fields_.find(tag);
  if (it == fields_.end()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "missing u64 field");
  }
  if (it->second.size() != 8) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "u64 field has wrong size");
  }
  Reader r(it->second);
  return r.GetU64();
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

std::optional<uint32_t> TlvMessage::GetOptionalU32(uint16_t tag) const {
  if (!Has(tag)) {
    return std::nullopt;
  }
  auto r = GetU32(tag);
  return r.ok() ? std::optional<uint32_t>(r.value()) : std::nullopt;
}

std::optional<kerb::Bytes> TlvMessage::GetOptionalBytes(uint16_t tag) const {
  if (!Has(tag)) {
    return std::nullopt;
  }
  return fields_.at(tag);
}

kerb::Bytes TlvMessage::Encode() const {
  Writer w;
  AppendTo(w);
  return w.Take();
}

void TlvMessage::AppendTo(Writer& w) const {
  w.PutU16(type_);
  w.PutU16(static_cast<uint16_t>(fields_.size()));
  for (const auto& [tag, value] : fields_) {
    w.PutU16(tag);
    w.PutU32(static_cast<uint32_t>(value.size()));
    w.PutBytes(value);
  }
}

kerb::Result<TlvMessage> TlvMessage::Decode(kerb::BytesView data) {
  Reader r(data);
  auto type = r.GetU16();
  if (!type.ok()) {
    return type.error();
  }
  auto count = r.GetU16();
  if (!count.ok()) {
    return count.error();
  }
  TlvMessage msg(type.value());
  for (uint16_t i = 0; i < count.value(); ++i) {
    auto tag = r.GetU16();
    if (!tag.ok()) {
      return tag.error();
    }
    auto len = r.GetU32();
    if (!len.ok()) {
      return len.error();
    }
    auto value = r.GetBytes(len.value());
    if (!value.ok()) {
      return value.error();
    }
    if (msg.Has(tag.value())) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "duplicate field tag");
    }
    msg.fields_[tag.value()] = std::move(value).value();
  }
  if (!r.AtEnd()) {
    // Trailing bytes mean the message was spliced or padded with garbage —
    // exactly the ambiguity a standard encoding exists to rule out.
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "trailing bytes after message");
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
