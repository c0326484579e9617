#include "src/sim/network.h"

#include "src/obs/kobs.h"

namespace ksim {

std::string NetAddress::ToString() const {
  // Dotted-quad plus port, for log and experiment output.
  return std::to_string((host >> 24) & 0xff) + "." + std::to_string((host >> 16) & 0xff) + "." +
         std::to_string((host >> 8) & 0xff) + "." + std::to_string(host & 0xff) + ":" +
         std::to_string(port);
}

RecordingAdversary::Decision RecordingAdversary::OnRequest(Message& request) {
  exchanges_.push_back(Exchange{request, {}, false});
  return {};
}

bool RecordingAdversary::OnReply(const Message& request, kerb::Bytes& reply) {
  for (auto it = exchanges_.rbegin(); it != exchanges_.rend(); ++it) {
    if (it->request.id == request.id) {
      it->reply = reply;
      it->has_reply = true;
      break;
    }
  }
  return false;
}

bool RecordingAdversary::OnDatagram(Message& datagram) {
  datagrams_.push_back(datagram);
  return false;
}

CompositeAdversary::Decision CompositeAdversary::OnRequest(Message& request) {
  for (Adversary* adversary : chain_) {
    Decision decision = adversary->OnRequest(request);
    if (decision.drop || decision.fabricated_reply.has_value()) {
      return decision;
    }
  }
  return {};
}

bool CompositeAdversary::OnReply(const Message& request, kerb::Bytes& reply) {
  for (Adversary* adversary : chain_) {
    if (adversary->OnReply(request, reply)) {
      return true;
    }
  }
  return false;
}

bool CompositeAdversary::OnDatagram(Message& datagram) {
  for (Adversary* adversary : chain_) {
    if (adversary->OnDatagram(datagram)) {
      return true;
    }
  }
  return false;
}

void Network::Bind(const NetAddress& addr, Handler handler) {
  handlers_[addr] = std::move(handler);
}

void Network::BindDatagram(const NetAddress& addr, DatagramHandler handler) {
  datagram_handlers_[addr] = std::move(handler);
}

void Network::Unbind(const NetAddress& addr) {
  handlers_.erase(addr);
  datagram_handlers_.erase(addr);
}

kerb::Result<kerb::Bytes> Network::Call(const NetAddress& src, const NetAddress& dst,
                                        kerb::BytesView payload) {
  Message msg{src, dst, kerb::Bytes(payload.begin(), payload.end()), clock_->Now(), next_id_++};
  kobs::Emit(kobs::kSrcNet, kobs::Ev::kNetCall, msg.sent_at, dst.host, payload.size());

  if (adversary_ != nullptr) {
    Adversary::Decision decision = adversary_->OnRequest(msg);
    if (decision.drop) {
      return kerb::MakeError(kerb::ErrorCode::kTransport, "message lost");
    }
    if (decision.fabricated_reply.has_value()) {
      return *decision.fabricated_reply;
    }
  }

  auto it = handlers_.find(msg.dst);
  if (it == handlers_.end()) {
    kobs::Emit(kobs::kSrcNet, kobs::Ev::kNetNoRoute, clock_->Now(), dst.host);
    return kerb::MakeError(kerb::ErrorCode::kTransport,
                           "no service bound at " + msg.dst.ToString());
  }
  kerb::Result<kerb::Bytes> reply = it->second(msg);
  if (reply.ok()) {
    kobs::Emit(kobs::kSrcNet, kobs::Ev::kNetDeliver, clock_->Now(), dst.host,
               reply.value().size());
  }
  if (reply.ok() && adversary_ != nullptr) {
    kerb::Bytes mutable_reply = reply.value();
    if (adversary_->OnReply(msg, mutable_reply)) {
      return kerb::MakeError(kerb::ErrorCode::kTransport, "reply lost");
    }
    return mutable_reply;
  }
  return reply;
}

kerb::Status Network::SendDatagram(const NetAddress& src, const NetAddress& dst,
                                   kerb::BytesView payload) {
  Message msg{src, dst, kerb::Bytes(payload.begin(), payload.end()), clock_->Now(), next_id_++};
  kobs::Emit(kobs::kSrcNet, kobs::Ev::kNetDatagram, msg.sent_at, dst.host, payload.size());
  if (adversary_ != nullptr && adversary_->OnDatagram(msg)) {
    return kerb::MakeError(kerb::ErrorCode::kTransport, "datagram dropped");
  }
  auto it = datagram_handlers_.find(msg.dst);
  if (it == datagram_handlers_.end()) {
    return kerb::MakeError(kerb::ErrorCode::kTransport,
                           "no datagram service at " + msg.dst.ToString());
  }
  it->second(msg);
  return kerb::Status::Ok();
}

}  // namespace ksim
