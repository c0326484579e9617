#include "src/krb5/messages.h"

#include "src/encoding/io.h"

namespace krb5 {

kerb::Bytes TgsRequest5::ChecksumInput() const {
  // Canonical encoding of every field outside the encryption that the TGS
  // will act on. If the checksum sealing these is weak, an adversary can
  // rewrite them (E9). Sized up front: strings and blobs carry a 4-byte
  // length, the lifetime and nonce 8 bytes, the options 4.
  auto prefixed = [](size_t n) { return 4 + n; };
  size_t size = prefixed(service.name.size()) + prefixed(service.instance.size()) +
                prefixed(service.realm.size()) + 8 + 4 + 8 + prefixed(tgt_realm.size()) +
                prefixed(additional_ticket.size()) + prefixed(authorization_data.size());
  if (additional_ticket_service.has_value()) {
    size += prefixed(additional_ticket_service->name.size()) +
            prefixed(additional_ticket_service->instance.size()) +
            prefixed(additional_ticket_service->realm.size());
  }
  kerb::Bytes out;
  out.reserve(size);
  kenc::Writer w(&out);
  w.PutString(service.name);
  w.PutString(service.instance);
  w.PutString(service.realm);
  w.PutU64(static_cast<uint64_t>(lifetime));
  w.PutU32(options);
  w.PutU64(nonce);
  w.PutString(tgt_realm);
  w.PutLengthPrefixed(additional_ticket);
  if (additional_ticket_service.has_value()) {
    kenc::Put(w, *additional_ticket_service);
  }
  w.PutLengthPrefixed(authorization_data);
  return out;
}

kerb::Result<KdcRequest5> DecodeKdcRequest5(kerb::BytesView wire) {
  // Every path returns `decoded`, so the request is decoded where the caller
  // receives it.
  kerb::Result<KdcRequest5> decoded = KdcRequest5{};
  KdcRequest5& req = decoded.value();
  kerb::Status status;
  switch (kenc::PeekType(wire)) {
    case kMsgAsReq:
      status = kenc::DecodeInto(wire, req.emplace<AsRequest5>());
      break;
    case kMsgAsPkReq:
      status = kenc::DecodeInto(wire, req.emplace<AsPkRequest5>());
      break;
    case kMsgTgsReq:
      status = kenc::DecodeInto(wire, req.emplace<TgsRequest5>());
      break;
    default:
      status = kerb::MakeError(kerb::ErrorCode::kBadFormat, "not a KDC request");
  }
  if (!status.ok()) {
    decoded = status.error();
  }
  return decoded;
}

}  // namespace krb5
