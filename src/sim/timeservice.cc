#include "src/sim/timeservice.h"

#include "src/crypto/modes.h"
#include "src/encoding/io.h"

namespace ksim {

UnauthTimeService::UnauthTimeService(Network* net, const NetAddress& addr, const HostClock* clock)
    : clock_(clock) {
  net->Bind(addr, [this](const Message&) -> kerb::Result<kerb::Bytes> {
    kenc::Writer w;
    w.PutU64(static_cast<uint64_t>(clock_->Now()));
    return w.Take();
  });
}

kerb::Result<Time> UnauthTimeService::Query(Network* net, const NetAddress& client_addr,
                                            const NetAddress& service_addr) {
  auto reply = net->Call(client_addr, service_addr, kerb::Bytes{});
  if (!reply.ok()) {
    return reply.error();
  }
  kenc::Reader r(reply.value());
  auto t = r.GetU64();
  if (!t.ok()) {
    return t.error();
  }
  return static_cast<Time>(t.value());
}

AuthTimeService::AuthTimeService(Network* net, const NetAddress& addr, const HostClock* clock,
                                 const kcrypto::DesKey& key)
    : clock_(clock), key_(key) {
  net->Bind(addr, [this](const Message& msg) -> kerb::Result<kerb::Bytes> {
    kenc::Reader req(msg.payload);
    auto nonce = req.GetU64();
    if (!nonce.ok()) {
      return nonce.error();
    }
    kenc::Writer body;
    body.PutU64(nonce.value());
    body.PutU64(static_cast<uint64_t>(clock_->Now()));
    kcrypto::DesBlock mac = kcrypto::CbcMac(key_, kcrypto::kZeroIv, body.Peek());
    kenc::Writer w;
    w.PutBytes(body.Peek());
    w.PutBytes(kerb::BytesView(mac.data(), mac.size()));
    return w.Take();
  });
}

kerb::Result<Time> AuthTimeService::Query(Network* net, const NetAddress& client_addr,
                                          const NetAddress& service_addr,
                                          const kcrypto::DesKey& key, uint64_t nonce) {
  kenc::Writer req;
  req.PutU64(nonce);
  auto reply = net->Call(client_addr, service_addr, req.Peek());
  if (!reply.ok()) {
    return reply.error();
  }
  kenc::Reader r(reply.value());
  auto echoed = r.GetU64();
  auto time = r.GetU64();
  auto mac = r.GetBytes(8);
  if (!echoed.ok() || !time.ok() || !mac.ok()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "malformed time reply");
  }
  if (echoed.value() != nonce) {
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "time reply nonce mismatch");
  }
  kenc::Writer body;
  body.PutU64(echoed.value());
  body.PutU64(time.value());
  kcrypto::DesBlock expected = kcrypto::CbcMac(key, kcrypto::kZeroIv, body.Peek());
  if (!kerb::ConstantTimeEqual(mac.value(), kerb::BytesView(expected.data(), expected.size()))) {
    return kerb::MakeError(kerb::ErrorCode::kIntegrity, "time reply MAC invalid");
  }
  return static_cast<Time>(time.value());
}

}  // namespace ksim
