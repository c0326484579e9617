// The simulated network — the paper's threat model made executable.
//
// "For the widest utility, the network must be considered as completely
// open. Specifically, the protocols should be secure even if the network is
// under the complete control of an adversary."
//
// Delivery is synchronous request/reply (the shape of every Kerberos
// exchange) plus one-way datagrams for session traffic. An installed
// Adversary sees and may rewrite, redirect, drop, fabricate, or record
// every message. Source addresses are claims, not facts: any caller may
// supply any source address, which is precisely why the paper concludes
// that binding tickets to network addresses buys nothing (experiment E12).

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/sim/clock.h"

namespace ksim {

// A host address. Kerberos V4 binds tickets to these; the simulator treats
// them as trivially spoofable, as [Morr85] showed real IP addresses to be.
struct NetAddress {
  uint32_t host = 0;
  uint16_t port = 0;

  bool operator==(const NetAddress& other) const {
    return host == other.host && port == other.port;
  }
  bool operator<(const NetAddress& other) const {
    return host != other.host ? host < other.host : port < other.port;
  }
  std::string ToString() const;
};

// Hash for unordered containers keyed by address: host and port pack into
// one word, mixed by a single 64-bit multiply (Fibonacci hashing).
struct NetAddressHash {
  size_t operator()(const NetAddress& addr) const {
    uint64_t packed = (static_cast<uint64_t>(addr.host) << 16) | addr.port;
    return static_cast<size_t>((packed + 1) * 0x9e3779b97f4a7c15ull >> 16);
  }
};

struct Message {
  NetAddress src;  // claimed source — unauthenticated
  NetAddress dst;
  kerb::Bytes payload;
  Time sent_at = 0;
  uint64_t id = 0;  // unique per message, for adversary bookkeeping
};

// Full control of the network. Default implementations pass everything
// through untouched; attacks override what they need.
class Adversary {
 public:
  virtual ~Adversary() = default;

  // Called with every request before delivery. The adversary may mutate the
  // message in place (payload, destination, claimed source). Returning a
  // fabricated reply suppresses delivery entirely; setting `drop` loses the
  // message.
  struct Decision {
    bool drop = false;
    std::optional<kerb::Bytes> fabricated_reply;
  };
  virtual Decision OnRequest(Message& request) {
    (void)request;
    return {};
  }

  // Called with every reply before it returns to the caller; may mutate it.
  // Returning true loses the reply in transit: the server has already acted
  // on the request, but the caller sees a transport failure — the
  // "legitimate retransmission" setup of the paper's UDP discussion.
  virtual bool OnReply(const Message& request, kerb::Bytes& reply) {
    (void)request;
    (void)reply;
    return false;
  }

  // Called with every one-way datagram; return true to drop it.
  virtual bool OnDatagram(Message& datagram) {
    (void)datagram;
    return false;
  }
};

// Records all traffic it sees — the "passive wiretapper" building the
// network equivalent of /etc/passwd. Composes under any active adversary
// via Network::SetAdversary chaining or direct use.
class RecordingAdversary : public Adversary {
 public:
  struct Exchange {
    Message request;
    kerb::Bytes reply;
    bool has_reply = false;
  };

  Decision OnRequest(Message& request) override;
  bool OnReply(const Message& request, kerb::Bytes& reply) override;
  bool OnDatagram(Message& datagram) override;

  const std::vector<Exchange>& exchanges() const { return exchanges_; }
  const std::vector<Message>& datagrams() const { return datagrams_; }

 private:
  std::vector<Exchange> exchanges_;
  std::vector<Message> datagrams_;
};

// Chains adversaries: each sees the message after its predecessors'
// mutations; the first drop or fabrication wins. Lets an active attack
// record its own traffic (recorder first, manipulator second) without
// swapping adversaries mid-scenario.
class CompositeAdversary : public Adversary {
 public:
  void Add(Adversary* adversary) { chain_.push_back(adversary); }

  Decision OnRequest(Message& request) override;
  bool OnReply(const Message& request, kerb::Bytes& reply) override;
  bool OnDatagram(Message& datagram) override;

 private:
  std::vector<Adversary*> chain_;
};

class Network {
 public:
  using Handler = std::function<kerb::Result<kerb::Bytes>(const Message&)>;
  using DatagramHandler = std::function<void(const Message&)>;

  explicit Network(SimClock* clock) : clock_(clock) {}
  virtual ~Network() = default;

  // Binds a request/reply service at `addr`. Rebinding replaces the handler
  // (used by attacks that impersonate a service after taking its address).
  void Bind(const NetAddress& addr, Handler handler);
  void BindDatagram(const NetAddress& addr, DatagramHandler handler);
  void Unbind(const NetAddress& addr);

  // Sends a request claiming source `src` and waits for the reply. The
  // claimed source is not verified — spoofing is a one-line operation.
  // Virtual so FaultyNetwork (src/sim/faults.h) can overlay unreliable
  // delivery on top of this adversarial base layer.
  virtual kerb::Result<kerb::Bytes> Call(const NetAddress& src, const NetAddress& dst,
                                         kerb::BytesView payload);

  // One-way datagram.
  virtual kerb::Status SendDatagram(const NetAddress& src, const NetAddress& dst,
                                    kerb::BytesView payload);

  // Installs the adversary (nullptr to remove). Only one at a time; compose
  // via delegation if an attack also wants recording.
  void SetAdversary(Adversary* adversary) { adversary_ = adversary; }

  uint64_t messages_sent() const { return next_id_; }

 private:
  SimClock* clock_;
  std::unordered_map<NetAddress, Handler, NetAddressHash> handlers_;
  std::unordered_map<NetAddress, DatagramHandler, NetAddressHash> datagram_handlers_;
  Adversary* adversary_ = nullptr;
  uint64_t next_id_ = 0;
};

}  // namespace ksim

#endif  // SRC_SIM_NETWORK_H_
