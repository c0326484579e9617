// Thread-safe V4 KDC serving core, and the serve frame it shares with the
// V5 core.
//
// The protocol logic of the V4 authentication and ticket-granting servers,
// kept apart from the network-facing KdcHost so two drivers can share it:
//   * the deterministic simulation (src/krb4/kdc.h) drives it with ONE
//     KdcContext on one thread, producing byte-identical replies to the
//     pre-split handlers (pinned by tests/integration/kdc_capture_test.cc);
//   * the parallel bench harness (src/attacks/kdcload.h) drives it with a
//     KERB_KDC_THREADS worker pool, one KdcContext per worker.
//
// The core itself holds only state that is safe to share: the sharded
// principal store (reader-locked) and atomic request counters. Everything
// per-request — the PRNG stream, the derived-key cache, the encode scratch
// buffers — lives in the caller-owned KdcContext, so handlers never contend
// on anything but the store's shard locks.
//
// KdcServeFrame is the part of a serving core that does not depend on the
// protocol version. KdcCore4 and KdcCore5 (src/krb5/kdccore.h) derive from
// it and keep only their protocol checks and reply encoding; each serves a
// request its protocol's one request decoder (DecodeKdcRequest4/5) read.

#ifndef SRC_KRB4_KDCCORE_H_
#define SRC_KRB4_KDCCORE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/crypto/dh.h"
#include "src/crypto/prng.h"
#include "src/krb4/database.h"
#include "src/krb4/messages.h"
#include "src/krb5/messages.h"  // krb5::Ticket5, for the context's V5 TGT memo
#include "src/obs/kobs.h"
#include "src/sim/clock.h"
#include "src/sim/network.h"

namespace krb4 {

struct KdcOptions {
  ksim::Duration max_ticket_lifetime = 8 * ksim::kHour;
  ksim::Duration clock_skew_limit = ksim::kDefaultClockSkewLimit;
  // Retransmit-safe reply cache: a request whose (source, bytes) pair was
  // answered within this window returns the stored reply instead of minting
  // a second ticket with a fresh session key. Zero disables. Off by default
  // because V4 AS requests carry no nonce — two *distinct* logins inside
  // the window are byte-identical, and experiments that model repeated
  // logins expect fresh issuance. Enable it (kept to retransmission
  // timescales, seconds not minutes) wherever clients retry: the chaos
  // testbeds do.
  ksim::Duration reply_cache_window = 0;
};

// Small direct-mapped cache of scheduled keys, validated against the
// principal store's generation counter so post-construction registrations
// (several attack scenarios add services mid-run) invalidate it
// automatically. The store holds key bytes, so a miss pays one DES key
// schedule. Returns keys by value: a later insert may overwrite any slot,
// so references into the cache would dangle within one request.
class KdcKeyCache {
 public:
  bool Get(uint64_t generation, uint64_t hash, const Principal& principal,
           kcrypto::DesKey* key_out) const {
    const Slot& slot = slots_[hash % kSlots];
    if (slot.used && slot.generation == generation && slot.hash == hash &&
        slot.principal == principal) {
      *key_out = slot.key;
      return true;
    }
    return false;
  }

  void Put(uint64_t generation, uint64_t hash, const Principal& principal,
           const kcrypto::DesKey& key) {
    Slot& slot = slots_[hash % kSlots];
    slot.used = true;
    slot.generation = generation;
    slot.hash = hash;
    slot.principal = principal;
    slot.key = key;
  }

 private:
  static constexpr size_t kSlots = 64;
  struct Slot {
    uint64_t generation = 0;
    uint64_t hash = 0;
    bool used = false;
    Principal principal;
    kcrypto::DesKey key;
  };
  std::array<Slot, kSlots> slots_;
};

// A presented ticket as the unseal memo keeps it: decoded, with its
// session key scheduled.
template <typename Ticket>
struct UnsealedTicket {
  Ticket ticket;
  kcrypto::DesKey session_key;
};

// Memo of ticket unseals, keyed by (sealing key, ciphertext). A KDC sees the
// same sealed TGT on every ticket-granting request a client makes for the
// lifetime of its login session; decrypting and decoding it is a pure
// function of key and ciphertext, so the decoded ticket and its scheduled
// session key are reused instead of re-unsealed. Only constant-per-session
// blobs belong here — never authenticators or preauth data, which change
// per request in real traffic. Failures are not cached (garbage varies).
//
// Direct-mapped over kSlots slots. The key bytes and the ciphertext are
// compared in full on lookup, so a slot collision costs a miss, never a
// wrong ticket. Each core keeps its own ticket type, so one context holds a
// memo per protocol. A slot gets its entry at its first put, so an idle
// memo touches no entry memory, and a put into a used slot overwrites its
// entry in place without allocating. A ciphertext longer than kMaxSealed is
// stored for the current request but never matched.
template <typename Ticket, size_t Slots>
class KdcUnsealMemo {
 public:
  static constexpr size_t kSlots = Slots;
  static_assert((kSlots & (kSlots - 1)) == 0, "kSlots must be a power of two");
  static constexpr size_t kMaxSealed = 256;

  // The slot of `sealed`: computed once per request and passed to every Get
  // and Put for that ciphertext.
  static size_t Slot(kerb::BytesView sealed) {
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : sealed) {
      h = (h ^ b) * 1099511628211ull;
    }
    return static_cast<size_t>(h & (kSlots - 1));
  }

  // The entry stored for (key, sealed) in `slot`; nullptr on a miss.
  const UnsealedTicket<Ticket>* Get(size_t slot, const kcrypto::DesBlock& key,
                                    kerb::BytesView sealed) const {
    const Entry* entry = entries_[slot].get();
    if (entry == nullptr || entry->key_bytes != key || entry->sealed_size != sealed.size() ||
        !std::equal(sealed.begin(), sealed.end(), entry->sealed.begin())) {
      return nullptr;
    }
    return &entry->value;
  }

  // Stores `ticket`, the unseal of `sealed` under `key`, in `slot` with its
  // session key scheduled, and returns it. The pointer stays valid until
  // the next put into `slot`.
  const UnsealedTicket<Ticket>* Put(size_t slot, const kcrypto::DesBlock& key,
                                    kerb::BytesView sealed, Ticket ticket) {
    std::unique_ptr<Entry>& entry = entries_[slot];
    if (entry == nullptr) {
      entry = std::make_unique<Entry>();
    }
    entry->value.session_key = kcrypto::DesKey(ticket.session_key);
    entry->value.ticket = std::move(ticket);
    entry->key_bytes = key;
    if (sealed.size() <= kMaxSealed) {
      entry->sealed_size = sealed.size();
      std::copy(sealed.begin(), sealed.end(), entry->sealed.begin());
    } else {
      entry->sealed_size = kUnmatched;
    }
    return &entry->value;
  }

 private:
  struct Entry {
    UnsealedTicket<Ticket> value;
    kcrypto::DesBlock key_bytes{};
    size_t sealed_size = 0;  // kUnmatched when the ciphertext did not fit
    std::array<uint8_t, kMaxSealed> sealed{};
  };
  static constexpr size_t kUnmatched = ~size_t{0};

  std::array<std::unique_ptr<Entry>, kSlots> entries_;
};

// Retransmit-safe reply memo, keyed by (claimed source, full request
// bytes). A client that never saw a reply resends the identical packet; a
// faulty network duplicates packets on its own. Either way the KDC must not
// issue twice: the duplicate gets the stored reply, byte for byte. Entries
// expire after a freshness window so the cache answers retransmissions, not
// history. Direct-mapped with full-bytes compare on lookup — a hash
// collision evicts, never mis-serves. Per-context like the other memos, so
// the serving path stays lock-free.
class KdcReplyCache {
 public:
  // The slot of (src, request): computed once per request and passed to
  // both its Get and its Put.
  static size_t Slot(const ksim::NetAddress& src, kerb::BytesView request) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint8_t b) { h = (h ^ b) * 1099511628211ull; };
    for (int i = 0; i < 4; ++i) {
      mix(static_cast<uint8_t>(src.host >> (8 * i)));
    }
    mix(static_cast<uint8_t>(src.port));
    mix(static_cast<uint8_t>(src.port >> 8));
    for (uint8_t b : request) {
      mix(b);
    }
    return static_cast<size_t>(h & (kSlots - 1));
  }

  // Returns the cached reply for a fresh duplicate, or nullptr.
  const kerb::Bytes* Get(size_t slot, const ksim::NetAddress& src, kerb::BytesView request,
                         ksim::Time now, ksim::Duration window) const {
    const Entry& entry = entries_[slot];
    if (!entry.used || entry.src_host != src.host || entry.src_port != src.port ||
        now - entry.stored_at > window || entry.request.size() != request.size() ||
        !std::equal(entry.request.begin(), entry.request.end(), request.begin())) {
      return nullptr;
    }
    return &entry.reply;
  }

  void Put(size_t slot, const ksim::NetAddress& src, kerb::BytesView request,
           kerb::BytesView reply, ksim::Time now) {
    Entry& entry = entries_[slot];
    entry.used = true;
    entry.src_host = src.host;
    entry.src_port = src.port;
    entry.request.assign(request.begin(), request.end());
    entry.reply.assign(reply.begin(), reply.end());
    entry.stored_at = now;
  }

 private:
  static constexpr size_t kSlots = 16;

  struct Entry {
    bool used = false;
    uint32_t src_host = 0;
    uint16_t src_port = 0;
    kerb::Bytes request;
    kerb::Bytes reply;
    ksim::Time stored_at = 0;
  };
  std::array<Entry, kSlots> entries_;
};

// Reusable encode buffers. After the first few requests every buffer has
// its high-water capacity and the encode path stops allocating (the one
// exception is the reply handed back to the network, which the caller
// owns).
struct KdcScratch {
  kerb::Bytes ticket_sealed;  // V5 only: V4 seals its ticket inside the reply
  kerb::Bytes body_sealed;
  kerb::Bytes pk_outer;  // DH-layer seal of body_sealed in the PK AS path
  kerb::Bytes reply;
};

// Everything one serving thread owns exclusively.
struct KdcContext {
  explicit KdcContext(kcrypto::Prng context_prng) : prng(context_prng) {}

  kcrypto::Prng prng;
  KdcKeyCache keys;
  // The presented TGTs each core has unsealed. KdcCore5 also puts each TGT
  // it mints, so a session's first TGS request hits, and its memo has room
  // for the live sessions of a busy context. The V4 core puts only what it
  // unseals; a cluster node rarely sees the same TGT twice, so its memo
  // keeps 16 slots.
  KdcUnsealMemo<Ticket4, 16> tgts4;
  KdcUnsealMemo<krb5::Ticket5, 1024> tgts5;
  KdcReplyCache replies;
  KdcScratch scratch;
};

// The serve frame both KdcCore4 and KdcCore5 derive from: the realm, its
// database and krbtgt principal, the clock, the PK-preauth group, the
// request counters, and every step of serving a request that does not
// depend on the protocol version — the generation-checked key lookup, the
// reply cache, the request/issue/deny trace framing, and the TGT unseal
// through the per-context memo with its kvno-ring fallback. Events carry
// the core's kobs source (kSrcKdc4 or kSrcKdc5). Nothing here is virtual:
// the cores call the frame, never the other way round.
class KdcServeFrame {
 public:
  // Enables the public-key preauthenticated AS variant (V4 MsgType::
  // kAsPkRequest, V5 kMsgAsPkReq) over `group`. Builds the group's cached
  // modexp engine — Montgomery context plus fixed-base g^x comb table — up
  // front, so every login the core serves afterwards reuses it. Call before
  // serving; the group is read-only once requests flow.
  void EnablePkPreauth(kcrypto::DhGroup group);

  const std::string& realm() const { return realm_; }
  KdcDatabase& database() { return db_; }

  uint64_t as_requests_served() const { return as_requests_.load(std::memory_order_relaxed); }
  uint64_t pk_as_requests_served() const {
    return pk_as_requests_.load(std::memory_order_relaxed);
  }
  uint64_t tgs_requests_served() const { return tgs_requests_.load(std::memory_order_relaxed); }
  uint64_t reply_cache_hits() const { return reply_cache_hits_.load(std::memory_order_relaxed); }

 protected:
  KdcServeFrame(kobs::Source source, ksim::HostClock clock, std::string realm, KdcDatabase db);

  // Serves one AS (`tgs` false) or TGS request: counts it, answers a fresh
  // duplicate from the reply cache (window <= 0 disables the cache), else
  // runs `body` — the core's checks and encode — and remembers a
  // successful reply for retransmission. With a kobs::Trace installed the
  // request is framed in request and issue/deny events.
  template <typename Body>
  kerb::Result<kerb::Bytes> Serve(bool tgs, const ksim::Message& msg, KdcContext& ctx,
                                  ksim::Duration reply_cache_window, Body&& body) {
    if (!kobs::Enabled()) {
      return CountAndServe(tgs, msg, ctx, reply_cache_window, body);
    }
    kobs::Emit(source_, tgs ? kobs::Ev::kKdcTgsRequest : kobs::Ev::kKdcAsRequest, clock_.Now(),
               msg.src.host, msg.payload.size());
    kerb::Result<kerb::Bytes> reply = CountAndServe(tgs, msg, ctx, reply_cache_window, body);
    if (reply.ok()) {
      kobs::Emit(source_, kobs::Ev::kKdcIssue, clock_.Now(), tgs ? 1 : 0, reply.value().size());
    } else {
      kobs::Emit(source_, kobs::Ev::kKdcDeny, clock_.Now(), tgs ? 1 : 0,
                 static_cast<uint64_t>(reply.error().code));
    }
    return reply;
  }

  // db_.Lookup through the context's generation-checked key cache: only a
  // miss reads the store and schedules the key.
  kerb::Result<kcrypto::DesKey> CachedLookup(const Principal& principal, KdcContext& ctx) const;

  // The DH group for one PK-preauth AS request, which it counts as served;
  // kUnsupported while PK preauth is off.
  kerb::Result<const kcrypto::DhGroup*> PkGroup();

  // Decodes a presented TGT sealed under `key` through `memo`, the
  // context's memo for its core's ticket type; `unseal(key, sealed)`
  // decodes on a miss. The same sealed TGT arrives on every request of a
  // client's session, so the decoded ticket and its scheduled session key
  // are reused (the caller still checks expiry against `now`). With
  // `ring_fallback` — a TGT of this realm, sealed under the krbtgt key — a
  // ticket that does not open under the current key is tried under each
  // older, unexpired version of the krbtgt ring: a TGT sealed before a TGS
  // key rotation keeps verifying until its natural expiry (the rotation
  // drain window). Entries are keyed by the key bytes, so one cached under
  // an old version keeps hitting after the current version moves on.
  template <typename Ticket, size_t kSlots, typename Unseal>
  kerb::Result<const UnsealedTicket<Ticket>*> UnsealTgt(const kcrypto::DesKey& key,
                                                        kerb::BytesView sealed,
                                                        bool ring_fallback, ksim::Time now,
                                                        KdcUnsealMemo<Ticket, kSlots>& memo,
                                                        Unseal&& unseal) const {
    const size_t slot = memo.Slot(sealed);
    const UnsealedTicket<Ticket>* tgt = memo.Get(slot, key.bytes(), sealed);
    if (kobs::Enabled()) {
      kobs::Emit(source_,
                 tgt != nullptr ? kobs::Ev::kKdcUnsealMemoHit : kobs::Ev::kKdcUnsealMemoMiss,
                 clock_.Now(), sealed.size());
    }
    if (tgt != nullptr) {
      return tgt;
    }
    if (auto unsealed = unseal(key, sealed); unsealed.ok()) {
      return memo.Put(slot, key.bytes(), sealed, std::move(unsealed.value()));
    }
    PrincipalEntry tgs_entry;
    if (ring_fallback && db_.store().LookupEntry(tgs_principal_, &tgs_entry)) {
      for (size_t i = 1; i < tgs_entry.keys.size(); ++i) {
        const KeyVersion& kv = tgs_entry.keys[i];
        if (kv.not_after != 0 && now > kv.not_after) {
          continue;
        }
        tgt = memo.Get(slot, kv.key, sealed);
        if (tgt == nullptr) {
          // The store holds the old version's bytes; schedule it only now
          // that the memo has missed.
          if (auto old_unsealed = unseal(kcrypto::DesKey(kv.key), sealed); old_unsealed.ok()) {
            tgt = memo.Put(slot, kv.key, sealed, std::move(old_unsealed.value()));
          }
        }
        if (tgt != nullptr) {
          if (kobs::Enabled()) {
            kobs::Emit(source_, kobs::Ev::kKvnoOldKeyAccept, now, kv.kvno, i);
          }
          return tgt;
        }
      }
    }
    return kerb::MakeError(kerb::ErrorCode::kAuthFailed, "ticket-granting ticket invalid");
  }

  const kobs::Source source_;
  const ksim::HostClock clock_;
  const std::string realm_;
  const Principal tgs_principal_;
  KdcDatabase db_;

 private:
  template <typename Body>
  kerb::Result<kerb::Bytes> CountAndServe(bool tgs, const ksim::Message& msg, KdcContext& ctx,
                                          ksim::Duration reply_cache_window, Body& body) {
    (tgs ? tgs_requests_ : as_requests_).fetch_add(1, std::memory_order_relaxed);
    if (reply_cache_window <= 0) {
      return body();
    }
    const size_t slot = KdcReplyCache::Slot(msg.src, msg.payload);
    if (const kerb::Bytes* cached = CachedReply(slot, msg, ctx, reply_cache_window)) {
      return *cached;
    }
    kerb::Result<kerb::Bytes> reply = body();
    if (reply.ok()) {
      RememberReply(slot, msg, reply.value(), ctx);
    }
    return reply;
  }

  // Serves a fresh duplicate from the context's reply cache.
  const kerb::Bytes* CachedReply(size_t slot, const ksim::Message& msg, KdcContext& ctx,
                                 ksim::Duration window);
  // Remembers a successful reply for retransmission.
  void RememberReply(size_t slot, const ksim::Message& msg, const kerb::Bytes& reply,
                     KdcContext& ctx);

  // DH group for PK preauth, engine pre-built; immutable while serving, so
  // worker threads share it without locks.
  std::optional<kcrypto::DhGroup> pk_group_;
  std::atomic<uint64_t> pk_as_requests_{0};
  std::atomic<uint64_t> as_requests_{0};
  std::atomic<uint64_t> tgs_requests_{0};
  std::atomic<uint64_t> reply_cache_hits_{0};
};

class KdcCore4 : public KdcServeFrame {
 public:
  using Options = KdcOptions;

  KdcCore4(ksim::HostClock clock, std::string realm, KdcDatabase db, KdcOptions options);

  // Serves `decoded`, the DecodeKdcRequest4 of msg.payload, which arrived on
  // the AS (`tgs` false) or the TGS port: a decode failure is the answer,
  // and a request of the other port's kind gets kBadFormat.
  kerb::Result<kerb::Bytes> Handle(bool tgs, const ksim::Message& msg,
                                   const kerb::Result<KdcRequest4>& decoded, KdcContext& ctx);
  kerb::Result<kerb::Bytes> HandleAs(const ksim::Message& msg, KdcContext& ctx) {
    return Handle(false, msg, DecodeKdcRequest4(msg.payload), ctx);
  }
  kerb::Result<kerb::Bytes> HandleTgs(const ksim::Message& msg, KdcContext& ctx) {
    return Handle(true, msg, DecodeKdcRequest4(msg.payload), ctx);
  }

  const KdcOptions& options() const { return options_; }

 private:
  // Protocol checks and reply encoding, on a request Handle has decoded.
  kerb::Result<kerb::Bytes> ServeAs(const ksim::Message& msg, const AsRequest4& req,
                                    KdcContext& ctx);
  kerb::Result<kerb::Bytes> ServeAsPk(const ksim::Message& msg, const AsPkRequest4& req,
                                      KdcContext& ctx);
  kerb::Result<kerb::Bytes> ServeTgs(const ksim::Message& msg, const TgsRequest4& req,
                                     KdcContext& ctx);

  // The TGT both AS paths issue: for `req`'s client at the claimed source
  // address, its lifetime quantized to V4 units, with a session key drawn
  // from the context PRNG.
  template <typename AsReq>
  Ticket4 MintTgt(const ksim::Message& msg, const AsReq& req, ksim::Time now,
                  KdcContext& ctx) const;

  KdcOptions options_;
};

}  // namespace krb4

#endif  // SRC_KRB4_KDCCORE_H_
