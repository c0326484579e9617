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
// [tag u16][len u32][value], in ascending tag order. Decoders skip unknown
// tags and reject duplicate tags (ambiguity is how cut-and-paste attacks
// start), truncation and trailing bytes.
//
// Every V5 message is a struct described by one field table
// (src/krb5/messages.h): the struct names its message type in `kType` and
// lists its fields once in `static constexpr auto Fields()`, a tuple of
// kenc::Field{tag, &Msg::member, presence}. The member's C++ type picks its
// wire form (kenc::Wire<T>). Both directions come from that one table, the
// shape of Heimdal's generated ASN.1 codecs:
//   * kenc::Encode computes the exact size, allocates once and writes the
//     fields in table order; the tags' ascending order is checked at compile
//     time, so the bytes are the sorted-map bytes a TlvMessage would give;
//   * kenc::Decode (kenc::DecodeInto, into a caller's struct) walks the
//     wire once, in any field order, straight into the struct, and rejects
//     missing and mis-sized fields as kBadFormat.
//
// TlvMessage, a tag → bytes map, remains as the raw field-editing tool: the
// attack code and the tests build with it the messages no honest party
// sends (an out-of-suite checksum type, a referral without its body).

#ifndef SRC_ENCODING_TLV_H_
#define SRC_ENCODING_TLV_H_

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace kenc {

// Big-endian scalars of `n` bytes.
inline uint8_t* PutBe(uint8_t* out, uint64_t v, size_t n) {
  for (size_t i = n; i-- > 0;) {
    out[i] = static_cast<uint8_t>(v);
    v >>= 8;
  }
  return out + n;
}

inline uint64_t GetBe(const uint8_t* in, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v = (v << 8) | in[i];
  }
  return v;
}

// The message type an encoding claims; 0 (no message type) if too short.
inline uint16_t PeekType(kerb::BytesView wire) {
  return wire.size() < 2 ? 0 : static_cast<uint16_t>(GetBe(wire.data(), 2));
}

// Walks the framing of one encoded message, calling on_field(tag, value) for
// each field in wire order. Returns nullptr, or the reason for the first
// framing failure or the first reason on_field returns.
template <typename OnField>
const char* WalkFields(kerb::BytesView wire, OnField&& on_field) {
  if (wire.size() < 4) {
    return "truncated message header";
  }
  const size_t count = GetBe(wire.data() + 2, 2);
  size_t pos = 4;
  for (size_t i = 0; i < count; ++i) {
    if (wire.size() - pos < 6) {
      return "truncated field header";
    }
    const auto tag = static_cast<uint16_t>(GetBe(wire.data() + pos, 2));
    const size_t len = GetBe(wire.data() + pos + 2, 4);
    pos += 6;
    if (wire.size() - pos < len) {
      return "truncated field value";
    }
    if (const char* error = on_field(tag, wire.subspan(pos, len))) {
      return error;
    }
    pos += len;
  }
  // Trailing bytes mean the message was spliced or padded with garbage —
  // exactly the ambiguity a standard encoding exists to rule out.
  return pos == wire.size() ? nullptr : "trailing bytes after message";
}

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

  kerb::Bytes Encode() const;
  // Length of Encode()'s output, and the same bytes written at `out`;
  // returns the end of what was written.
  size_t EncodedSize() const;
  uint8_t* EncodeTo(uint8_t* out) const;
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

// ------------------------------------------------------------ field tables

// How a field's presence on the wire relates to its member.
enum Presence : uint8_t {
  kRequired,   // always encoded; a decode without it fails
  kOptional,   // a std::optional member, encoded iff engaged
  kDefaulted,  // always encoded; absent, it decodes to the member's default
  kNonEmpty,   // encoded iff non-empty; absent, it decodes to empty
};

// One row of a message's field table.
template <typename Msg, typename T>
struct Field {
  using Member = T;
  uint16_t tag;
  T Msg::*member;
  Presence presence = kRequired;
};

// The wire form of a member of type T: the number of consecutive tags one
// value spans (kTags), and for sub-field i < kTags its value length (Size),
// its bytes (Put, returning the end), and its parse (Get, false when the
// value is mis-sized or invalid).
template <typename T>
struct Wire;

// Fixed-width big-endian integers; times and durations travel as their
// 64-bit two's complement, and bool as a u32 that is true when non-zero.
template <typename Int, size_t N>
struct FixedWire {
  static constexpr uint16_t kTags = 1;
  static size_t Size(const Int&, uint16_t) { return N; }
  static uint8_t* Put(const Int& v, uint16_t, uint8_t* out) {
    return PutBe(out, static_cast<uint64_t>(v), N);
  }
  static bool Get(kerb::BytesView in, uint16_t, Int& v) {
    if (in.size() != N) {
      return false;
    }
    v = static_cast<Int>(GetBe(in.data(), N));
    return true;
  }
};
template <>
struct Wire<uint32_t> : FixedWire<uint32_t, 4> {};
template <>
struct Wire<uint64_t> : FixedWire<uint64_t, 8> {};
template <>
struct Wire<int64_t> : FixedWire<int64_t, 8> {};
template <>
struct Wire<bool> : FixedWire<bool, 4> {};

// Strings and blobs: the raw bytes; the field header carries the length. A
// BytesView member decodes to a view into the wire.
template <typename Blob>
struct BlobWire {
  static constexpr uint16_t kTags = 1;
  static size_t Size(const Blob& v, uint16_t) { return v.size(); }
  static uint8_t* Put(const Blob& v, uint16_t, uint8_t* out) {
    return std::copy(v.begin(), v.end(), out);
  }
  static bool Get(kerb::BytesView in, uint16_t, Blob& v) {
    v = Blob(in.begin(), in.end());
    return true;
  }
};
template <>
struct Wire<std::string> : BlobWire<std::string> {};
template <>
struct Wire<kerb::Bytes> : BlobWire<kerb::Bytes> {};
template <>
struct Wire<kerb::BytesView> : BlobWire<kerb::BytesView> {};

// Fixed-size byte arrays (DES keys): exactly N bytes.
template <size_t N>
struct Wire<std::array<uint8_t, N>> {
  static constexpr uint16_t kTags = 1;
  static size_t Size(const std::array<uint8_t, N>&, uint16_t) { return N; }
  static uint8_t* Put(const std::array<uint8_t, N>& v, uint16_t, uint8_t* out) {
    return std::copy(v.begin(), v.end(), out);
  }
  static bool Get(kerb::BytesView in, uint16_t, std::array<uint8_t, N>& v) {
    if (in.size() != N) {
      return false;
    }
    std::copy(in.begin(), in.end(), v.begin());
    return true;
  }
};

// A list of names as one comma-separated string; the empty string is the
// empty list.
template <>
struct Wire<std::vector<std::string>> {
  static constexpr uint16_t kTags = 1;
  static size_t Size(const std::vector<std::string>& v, uint16_t) {
    size_t size = v.empty() ? 0 : v.size() - 1;
    for (const auto& name : v) {
      size += name.size();
    }
    return size;
  }
  static uint8_t* Put(const std::vector<std::string>& v, uint16_t, uint8_t* out) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (i != 0) {
        *out++ = ',';
      }
      out = std::copy(v[i].begin(), v[i].end(), out);
    }
    return out;
  }
  static bool Get(kerb::BytesView in, uint16_t, std::vector<std::string>& v) {
    v.clear();
    if (in.empty()) {
      return true;
    }
    auto start = in.begin();
    while (true) {
      auto comma = std::find(start, in.end(), static_cast<uint8_t>(','));
      v.emplace_back(start, comma);
      if (comma == in.end()) {
        return true;
      }
      start = comma + 1;
    }
  }
};

template <typename Msg>
concept TableMessage = requires {
  { Msg::kType } -> std::convertible_to<uint16_t>;
  Msg::Fields();
};

// The tags one decode has seen: a bit per tag below 64 (every tag a table
// uses), and the rare higher, unknown tags in a list checked at the end.
class TagSet {
 public:
  // False when a tag below 64 repeats.
  bool Insert(uint16_t tag) {
    if (tag >= 64) {
      high_.push_back(tag);
      return true;
    }
    const uint64_t bit = uint64_t{1} << tag;
    const bool fresh = (low_ & bit) == 0;
    low_ |= bit;
    return fresh;
  }
  bool HighTagRepeated() {
    std::sort(high_.begin(), high_.end());
    return std::adjacent_find(high_.begin(), high_.end()) != high_.end();
  }
  uint64_t low() const { return low_; }

 private:
  uint64_t low_ = 0;
  std::vector<uint16_t> high_;
};

// Whether `wire` is one well-formed message of any type — intact framing,
// no tag twice — as TlvMessage::Decode would accept, without building one.
inline bool WellFormed(kerb::BytesView wire) {
  TagSet tags;
  const char* error = WalkFields(wire, [&tags](uint16_t tag, kerb::BytesView) {
    return tags.Insert(tag) ? nullptr : "duplicate field tag";
  });
  return error == nullptr && !tags.HighTagRepeated();
}

namespace table {

template <typename T>
struct Unwrap {
  using Value = T;
  static constexpr bool kIsOptional = false;
};
template <typename T>
struct Unwrap<std::optional<T>> {
  using Value = T;
  static constexpr bool kIsOptional = true;
};

template <typename F>
using WireOf = Wire<typename Unwrap<typename F::Member>::Value>;

template <typename Msg>
inline constexpr auto kFields = Msg::Fields();

template <typename Msg>
inline constexpr size_t kFieldCount =
    std::tuple_size_v<std::remove_const_t<decltype(kFields<Msg>)>>;

// Calls fn(std::integral_constant<size_t, I>) for each I < N, in order: for
// each row I of a table when N = kFieldCount<Msg>.
template <size_t N, typename Fn>
constexpr void ForEachIndex(Fn&& fn) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    (fn(std::integral_constant<size_t, I>{}), ...);
  }(std::make_index_sequence<N>{});
}

// The table's invariants: tags strictly ascending with each multi-tag value
// inside its own range, all below 64 (decode tracks them in one word), and
// kOptional exactly on the std::optional members.
template <typename Msg>
consteval bool Valid() {
  bool ok = true;
  int next = 0;
  ForEachIndex<kFieldCount<Msg>>([&](auto row) {
    constexpr auto f = std::get<decltype(row)::value>(kFields<Msg>);
    using F = decltype(f);
    ok = ok && f.tag >= next &&
         (f.presence == kOptional) == Unwrap<typename F::Member>::kIsOptional;
    next = f.tag + WireOf<F>::kTags;
  });
  return ok && next <= 64;
}

// The value a field puts on the wire, or nullptr when it is left off.
template <Presence P, typename T>
const auto* ValueToSend(const T& member) {
  if constexpr (Unwrap<T>::kIsOptional) {
    return member.has_value() ? &*member : nullptr;
  } else if constexpr (P == kNonEmpty) {
    return member.empty() ? nullptr : &member;
  } else {
    return &member;
  }
}

// Calls fn(tag, wire, value) for each field Msg puts on the wire.
template <typename Msg, typename Fn>
void ForEachSent(const Msg& msg, Fn&& fn) {
  static_assert(Valid<Msg>(), "field table tags must ascend, below 64");
  ForEachIndex<kFieldCount<Msg>>([&](auto row) {
    constexpr auto f = std::get<decltype(row)::value>(kFields<Msg>);
    using W = WireOf<decltype(f)>;
    if (const auto* value = ValueToSend<f.presence>(msg.*f.member)) {
      for (uint16_t i = 0; i < W::kTags; ++i) {
        fn(static_cast<uint16_t>(f.tag + i), W{}, *value, i);
      }
    }
  });
}

// Decodes into a default-constructed `msg`; returns nullptr or the reason.
template <typename Msg>
const char* DecodeFields(kerb::BytesView wire, Msg& msg) {
  static_assert(Valid<Msg>(), "field table tags must ascend, below 64");
  if (PeekType(wire) != Msg::kType) {
    return "message type mismatch";
  }
  TagSet tags;
  const char* error = WalkFields(wire, [&](uint16_t tag, kerb::BytesView value) -> const char* {
    if (!tags.Insert(tag)) {
      return "duplicate field tag";
    }
    const char* field_error = nullptr;
    ForEachIndex<kFieldCount<Msg>>([&](auto row) {
      constexpr auto f = std::get<decltype(row)::value>(kFields<Msg>);
      using F = decltype(f);
      using W = WireOf<F>;
      if (tag < f.tag || tag >= f.tag + W::kTags) {
        return;
      }
      auto& member = msg.*f.member;
      const auto part = static_cast<uint16_t>(tag - f.tag);
      bool ok;
      if constexpr (Unwrap<typename F::Member>::kIsOptional) {
        if (!member.has_value()) {
          member.emplace();
        }
        ok = W::Get(value, part, *member);
      } else {
        ok = W::Get(value, part, member);
      }
      if (!ok) {
        field_error = "mis-sized or invalid field";
      }
    });
    return field_error;
  });
  if (error != nullptr) {
    return error;
  }
  if (tags.HighTagRepeated()) {
    return "duplicate field tag";
  }
  // A required value needs all its tags; any other, all or none.
  ForEachIndex<kFieldCount<Msg>>([&](auto row) {
    constexpr auto f = std::get<decltype(row)::value>(kFields<Msg>);
    constexpr uint64_t mask = ((uint64_t{1} << WireOf<decltype(f)>::kTags) - 1) << f.tag;
    const uint64_t got = tags.low() & mask;
    if (got != mask && (f.presence == kRequired || got != 0)) {
      error = "missing field";
    }
  });
  return error;
}

}  // namespace table

// The body interface: a table-driven message or a raw TlvMessage. EncodeTo
// writes exactly EncodedSize bytes at `out` and returns their end.
template <TableMessage Msg>
size_t EncodedSize(const Msg& msg) {
  size_t size = 4;
  table::ForEachSent(msg, [&size](uint16_t, auto wire, const auto& value, uint16_t i) {
    size += 6 + wire.Size(value, i);
  });
  return size;
}

template <TableMessage Msg>
uint8_t* EncodeTo(const Msg& msg, uint8_t* out) {
  uint8_t* const header = out;
  uint16_t count = 0;
  out += 4;
  table::ForEachSent(msg, [&](uint16_t tag, auto wire, const auto& value, uint16_t i) {
    out = PutBe(out, tag, 2);
    out = PutBe(out, wire.Size(value, i), 4);
    out = wire.Put(value, i, out);
    ++count;
  });
  PutBe(header, Msg::kType, 2);
  PutBe(header + 2, count, 2);
  return out;
}

inline size_t EncodedSize(const TlvMessage& msg) { return msg.EncodedSize(); }
inline uint8_t* EncodeTo(const TlvMessage& msg, uint8_t* out) { return msg.EncodeTo(out); }

// Encodes into `out` (cleared, capacity kept): no allocation once `out` has
// grown to the message's size.
template <typename Msg>
void EncodeInto(const Msg& msg, kerb::Bytes& out) {
  out.clear();
  out.resize(EncodedSize(msg));
  EncodeTo(msg, out.data());
}

template <TableMessage Msg>
kerb::Bytes Encode(const Msg& msg) {
  kerb::Bytes out;
  EncodeInto(msg, out);
  return out;
}

// Decodes into a default-constructed `msg`, in place.
template <TableMessage Msg>
kerb::Status DecodeInto(kerb::BytesView wire, Msg& msg) {
  if (const char* error = table::DecodeFields(wire, msg)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, error);
  }
  return kerb::Status::Ok();
}

template <TableMessage Msg>
kerb::Result<Msg> Decode(kerb::BytesView wire) {
  Msg msg;
  if (kerb::Status status = DecodeInto(wire, msg); !status.ok()) {
    return status.error();
  }
  return msg;
}

}  // namespace kenc

#endif  // SRC_ENCODING_TLV_H_
