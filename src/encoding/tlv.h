// Tagged message encoding for the Version 5 Draft 3 model.
//
// The paper's recommendation (b): "Use a standard message encoding, such as
// ASN.1, which includes identification of the message type within the
// encrypted data." This module is a compact DER-flavoured tag-length-value
// encoding providing exactly the two properties the paper derives from
// ASN.1:
//   1. every message carries its type, so "a ticket should never be
//      interpretable as an authenticator, or vice versa";
//   2. every message carries its length, so "it is no longer possible for
//      an attacker to truncate a message and present the shortened form as
//      a valid encrypted message".
//
// Messages are: [msg_type u16][field_count u16] followed by fields, each
// [tag u16][len u32][value]. Unknown tags are preserved; duplicate tags are
// rejected at decode time (ambiguity is how cut-and-paste attacks start).

#ifndef SRC_ENCODING_TLV_H_
#define SRC_ENCODING_TLV_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace kenc {

class Writer;

class TlvMessage {
 public:
  TlvMessage() = default;
  explicit TlvMessage(uint16_t type) : type_(type) {}

  uint16_t type() const { return type_; }

  // Field setters (overwrite on duplicate tag).
  void SetU32(uint16_t tag, uint32_t value);
  void SetU64(uint16_t tag, uint64_t value);
  void SetString(uint16_t tag, std::string_view value);
  void SetBytes(uint16_t tag, kerb::BytesView value);

  bool Has(uint16_t tag) const { return fields_.count(tag) != 0; }
  void Remove(uint16_t tag) { fields_.erase(tag); }
  size_t field_count() const { return fields_.size(); }

  // Field getters; kBadFormat if missing or mis-sized.
  kerb::Result<uint32_t> GetU32(uint16_t tag) const;
  kerb::Result<uint64_t> GetU64(uint16_t tag) const;
  kerb::Result<std::string> GetString(uint16_t tag) const;
  kerb::Result<kerb::Bytes> GetBytes(uint16_t tag) const;

  // Optional-field convenience: nullopt when absent, error only on mis-size.
  std::optional<uint32_t> GetOptionalU32(uint16_t tag) const;
  std::optional<kerb::Bytes> GetOptionalBytes(uint16_t tag) const;

  kerb::Bytes Encode() const;
  // Length of Encode()'s output, without encoding.
  size_t EncodedSize() const;
  // Appends the encoding to an in-progress Writer — the allocation-free
  // variant of Encode() used by the KDC serving path.
  void AppendTo(Writer& w) const;
  static kerb::Result<TlvMessage> Decode(kerb::BytesView data);

  // Decode that additionally requires the message type to match — the
  // paper's "identification of the message type within the encrypted data".
  static kerb::Result<TlvMessage> DecodeExpecting(uint16_t expected_type, kerb::BytesView data);

  bool operator==(const TlvMessage& other) const {
    return type_ == other.type_ && fields_ == other.fields_;
  }

 private:
  uint16_t type_ = 0;
  std::map<uint16_t, kerb::Bytes> fields_;
};

// Streams a TLV message straight into a Writer, without the field map a
// TlvMessage carries. Produces byte-identical output to building a
// TlvMessage and encoding it PROVIDED the caller adds fields in strictly
// ascending tag order (the map's iteration order) and `field_count` matches
// the number of Add calls — both asserted in debug builds. This is the
// encode path for messages the KDC emits per request.
class TlvFieldWriter {
 public:
  TlvFieldWriter(Writer& w, uint16_t type, uint16_t field_count);
  ~TlvFieldWriter();

  void AddU32(uint16_t tag, uint32_t value);
  void AddU64(uint16_t tag, uint64_t value);
  void AddString(uint16_t tag, std::string_view value);
  void AddBytes(uint16_t tag, kerb::BytesView value);

 private:
  void Header(uint16_t tag, size_t len);

  Writer& w_;
  uint16_t declared_ = 0;
  uint16_t added_ = 0;
  int32_t last_tag_ = -1;
};

}  // namespace kenc

#endif  // SRC_ENCODING_TLV_H_
