// Fixed-order messages: one layout per message.
//
// Kerberos V4 messages, and the kadmin and cluster control-plane bodies
// built in their style, are bare concatenations of fields whose order
// matters — the encoding whose consequences the paper examines. Each such
// message is a struct that lists its members once, in wire order, in
// `static constexpr auto Layout()`: a tuple of member pointers. The member's
// C++ type picks its wire form (kenc::Form<T>), big-endian throughout:
//
//   uint8_t .. uint64_t             their own width
//   int64_t (ksim::Time, Duration)  u64, two's complement
//   bool                            u8; any non-zero value reads as true
//   std::string, kerb::Bytes        u32 length, then the bytes
//   std::array<uint8_t, N>          its N bytes (a DesBlock)
//   a struct with a Layout()        its fields, nested (Principal, RingMember)
//   std::vector<T>                  u32 count, then the elements
//
// Both directions come from that one list, as the field tables of tlv.h do
// for the tagged V5 messages:
//   * kenc::Encode sizes the message exactly and writes it with one
//     allocation (kenc::EncodedSize/EncodeTo write it into a caller's
//     buffer);
//   * kenc::Decode<Msg> (kenc::DecodeInto, into a caller's struct) reads it
//     in one pass straight into the struct, and fails with kBadFormat on
//     truncation, on an invalid field and on trailing bytes — unless the
//     layout ends in kenc::kIgnoreRest, V4's "read the fields, ignore
//     whatever follows".
// kenc::Put(Writer&, v) and kenc::Get(Reader&, v) run the same codec inside
// a longer record: a nested field, or a principal at the head of a store
// record.

#ifndef SRC_ENCODING_LAYOUT_H_
#define SRC_ENCODING_LAYOUT_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/encoding/io.h"
#include "src/encoding/tlv.h"

namespace kenc {

// The last entry of a layout whose message is a prefix: decoding stops
// after the fields and ignores the bytes that follow.
struct IgnoreRest {};
inline constexpr IgnoreRest kIgnoreRest;

template <typename Msg>
concept LayoutMessage = requires { Msg::Layout(); };

// The wire form of a member of type T: the fewest bytes it takes (kMinSize),
// its size (Size), its bytes (Put, returning their end) and its parse (Get,
// false when the input is truncated or the value invalid).
template <typename T>
struct Form;

template <typename Int, size_t N>
struct BigEndianForm {
  static constexpr size_t kMinSize = N;
  static size_t Size(const Int&) { return N; }
  static uint8_t* Put(const Int& v, uint8_t* out) {
    return PutBe(out, static_cast<uint64_t>(v), N);
  }
  static bool Get(Reader& r, Int& v) {
    if (r.remaining() < N) {
      return false;
    }
    v = static_cast<Int>(GetBe(r.Skip(N), N));
    return true;
  }
};
template <>
struct Form<uint8_t> : BigEndianForm<uint8_t, 1> {};
template <>
struct Form<uint16_t> : BigEndianForm<uint16_t, 2> {};
template <>
struct Form<uint32_t> : BigEndianForm<uint32_t, 4> {};
template <>
struct Form<uint64_t> : BigEndianForm<uint64_t, 8> {};
template <>
struct Form<int64_t> : BigEndianForm<int64_t, 8> {};
template <>
struct Form<bool> : BigEndianForm<bool, 1> {};

template <typename Blob>
struct LengthPrefixedForm {
  static constexpr size_t kMinSize = 4;
  static size_t Size(const Blob& v) { return 4 + v.size(); }
  static uint8_t* Put(const Blob& v, uint8_t* out) {
    out = PutBe(out, v.size(), 4);
    return std::copy(v.begin(), v.end(), out);
  }
  static bool Get(Reader& r, Blob& v) {
    uint32_t size = 0;
    if (!Form<uint32_t>::Get(r, size) || r.remaining() < size) {
      return false;
    }
    const auto* in = reinterpret_cast<const typename Blob::value_type*>(r.Skip(size));
    v.assign(in, in + size);
    return true;
  }
};
template <>
struct Form<std::string> : LengthPrefixedForm<std::string> {};
template <>
struct Form<kerb::Bytes> : LengthPrefixedForm<kerb::Bytes> {};

template <size_t N>
struct Form<std::array<uint8_t, N>> {
  static constexpr size_t kMinSize = N;
  static size_t Size(const std::array<uint8_t, N>&) { return N; }
  static uint8_t* Put(const std::array<uint8_t, N>& v, uint8_t* out) {
    return std::copy(v.begin(), v.end(), out);
  }
  static bool Get(Reader& r, std::array<uint8_t, N>& v) {
    if (r.remaining() < N) {
      return false;
    }
    std::copy_n(r.Skip(N), N, v.begin());
    return true;
  }
};

template <typename T>
struct Form<std::vector<T>> {
  static constexpr size_t kMinSize = 4;
  static_assert(Form<T>::kMinSize > 0, "list elements must take at least one byte");
  static size_t Size(const std::vector<T>& v) {
    size_t size = 4;
    for (const T& element : v) {
      size += Form<T>::Size(element);
    }
    return size;
  }
  static uint8_t* Put(const std::vector<T>& v, uint8_t* out) {
    out = PutBe(out, v.size(), 4);
    for (const T& element : v) {
      out = Form<T>::Put(element, out);
    }
    return out;
  }
  static bool Get(Reader& r, std::vector<T>& v) {
    uint32_t count = 0;
    // Every element takes at least kMinSize bytes, so a count the rest of
    // the input cannot hold fails here, before anything is allocated.
    if (!Form<uint32_t>::Get(r, count) || count > r.remaining() / Form<T>::kMinSize) {
      return false;
    }
    v.resize(count);
    for (T& element : v) {
      if (!Form<T>::Get(r, element)) {
        return false;
      }
    }
    return true;
  }
};

namespace layout {

template <typename Entry>
struct MemberOf;
template <typename Msg, typename T>
struct MemberOf<T Msg::*> {
  using Type = T;
};

template <typename Msg>
inline constexpr auto kEntries = Msg::Layout();

template <typename Msg>
inline constexpr size_t kEntryCount =
    std::tuple_size_v<std::remove_const_t<decltype(kEntries<Msg>)>>;

template <typename Msg, size_t I>
using EntryType = std::remove_cvref_t<decltype(std::get<I>(kEntries<Msg>))>;

template <typename Msg, size_t I>
inline constexpr bool kIsRest = std::is_same_v<EntryType<Msg, I>, IgnoreRest>;

template <typename Msg, size_t I>
using FormAt = Form<typename MemberOf<EntryType<Msg, I>>::Type>;

template <typename Msg>
inline constexpr bool kIgnoresRest = kIsRest<Msg, kEntryCount<Msg> - 1>;

// Calls fn(member form, member pointer) for each field of Msg, in wire order,
// and checks that kIgnoreRest, if present, comes last.
template <typename Msg, typename Fn>
constexpr void ForEachField(Fn&& fn) {
  table::ForEachIndex<kEntryCount<Msg>>([&](auto index) {
    constexpr size_t kI = decltype(index)::value;
    if constexpr (kIsRest<Msg, kI>) {
      static_assert(kI + 1 == kEntryCount<Msg>, "kenc::kIgnoreRest may only end a layout");
    } else {
      fn(FormAt<Msg, kI>{}, std::get<kI>(kEntries<Msg>));
    }
  });
}

}  // namespace layout

template <LayoutMessage Msg>
struct Form<Msg> {
  static constexpr size_t kMinSize = [] {
    size_t size = 0;
    layout::ForEachField<Msg>([&](auto form, auto) { size += decltype(form)::kMinSize; });
    return size;
  }();

  static size_t Size(const Msg& msg) {
    size_t size = 0;
    layout::ForEachField<Msg>([&](auto form, auto member) { size += form.Size(msg.*member); });
    return size;
  }
  static uint8_t* Put(const Msg& msg, uint8_t* out) {
    layout::ForEachField<Msg>([&](auto form, auto member) { out = form.Put(msg.*member, out); });
    return out;
  }
  static bool Get(Reader& r, Msg& msg) {
    bool ok = true;
    layout::ForEachField<Msg>(
        [&](auto form, auto member) { ok = ok && form.Get(r, msg.*member); });
    if constexpr (layout::kIgnoresRest<Msg>) {
      r.Skip(r.remaining());
    }
    return ok;
  }
};

// ------------------------------------------------------------ entry points

template <LayoutMessage Msg>
size_t EncodedSize(const Msg& msg) {
  return Form<Msg>::Size(msg);
}

template <LayoutMessage Msg>
uint8_t* EncodeTo(const Msg& msg, uint8_t* out) {
  return Form<Msg>::Put(msg, out);
}

template <LayoutMessage Msg>
kerb::Bytes Encode(const Msg& msg) {
  kerb::Bytes out(EncodedSize(msg));
  EncodeTo(msg, out.data());
  return out;
}

// Decodes into a default-constructed `msg`, in place.
template <LayoutMessage Msg>
kerb::Status DecodeInto(kerb::BytesView wire, Msg& msg) {
  Reader r(wire);
  if (!Form<Msg>::Get(r, msg)) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "truncated or invalid field");
  }
  if (!r.AtEnd()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "trailing bytes after message");
  }
  return kerb::Status::Ok();
}

template <LayoutMessage Msg>
kerb::Result<Msg> Decode(kerb::BytesView wire) {
  Msg msg;
  if (kerb::Status status = DecodeInto(wire, msg); !status.ok()) {
    return status.error();
  }
  return msg;
}

// The same codec at a writer's end or a reader's position.
template <typename T>
void Put(Writer& w, const T& value) {
  Form<T>::Put(value, w.Extend(Form<T>::Size(value)));
}

template <typename T>
bool Get(Reader& r, T& value) {
  return Form<T>::Get(r, value);
}

}  // namespace kenc

#endif  // SRC_ENCODING_LAYOUT_H_
