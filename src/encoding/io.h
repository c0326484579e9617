// Byte-oriented writer/reader for protocol messages.
//
// Kerberos V4 messages are bare concatenations of fields in a fixed order —
// the style whose security consequences the paper examines ("the order of
// concatenation of message fields can have security-critical
// implications"). The V4, kadmin and cluster messages describe their fields
// once (src/encoding/layout.h) and are written and read through these
// primitives; the framings around them (seals, WAL and kprop records) use
// them directly. The V5 model instead layers the tagged encoding of
// src/encoding/tlv.h on top.
//
// All integers are big-endian on the wire.

#ifndef SRC_ENCODING_IO_H_
#define SRC_ENCODING_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace kenc {

class Writer {
 public:
  // Owns its output buffer; Take() moves it out.
  Writer() = default;

  // Appends into a caller-owned buffer instead — the allocation-free serving
  // path hands the same buffer back every request, so after warm-up the
  // capacity is already there and no encode allocates. The buffer is cleared
  // (capacity kept) on construction unless `append` is set, which writes
  // after what it already holds; it is NOT valid to call Take().
  explicit Writer(kerb::Bytes* reuse, bool append = false) : out_(reuse) {
    if (!append) {
      out_->clear();
    }
  }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutBytes(kerb::BytesView b) { kerb::Append(*out_, b); }
  // 32-bit length followed by the raw bytes.
  void PutLengthPrefixed(kerb::BytesView b);
  // Length-prefixed UTF-8 string.
  void PutString(std::string_view s);
  // Grows the output by n bytes and returns where they start, for a codec
  // that sizes what it writes before writing it.
  uint8_t* Extend(size_t n) {
    const size_t at = out_->size();
    out_->resize(at + n);
    return out_->data() + at;
  }

  size_t size() const { return out_->size(); }
  kerb::Bytes Take() { return std::move(owned_); }
  const kerb::Bytes& Peek() const { return *out_; }

 private:
  kerb::Bytes owned_;
  kerb::Bytes* out_ = &owned_;
};

class Reader {
 public:
  explicit Reader(kerb::BytesView data) : data_(data) {}

  kerb::Result<uint8_t> GetU8();
  kerb::Result<uint16_t> GetU16();
  kerb::Result<uint32_t> GetU32();
  kerb::Result<uint64_t> GetU64();
  kerb::Result<kerb::Bytes> GetBytes(size_t n);
  kerb::Result<kerb::Bytes> GetLengthPrefixed();
  // The same field, viewed in place within the reader's buffer.
  kerb::Result<kerb::BytesView> GetLengthPrefixedView();
  kerb::Result<std::string> GetString();

  // Consumes n bytes, which the caller has checked remain, and returns
  // where they start.
  const uint8_t* Skip(size_t n) {
    const uint8_t* at = data_.data() + pos_;
    pos_ += n;
    return at;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  // Remaining bytes without consuming them.
  kerb::Bytes Rest() const { return kerb::Bytes(data_.begin() + pos_, data_.end()); }

 private:
  kerb::BytesView data_;
  size_t pos_ = 0;
};

}  // namespace kenc

#endif  // SRC_ENCODING_IO_H_
