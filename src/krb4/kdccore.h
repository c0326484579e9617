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
// it and keep only their decoding, protocol checks and reply encoding.

#ifndef SRC_KRB4_KDCCORE_H_
#define SRC_KRB4_KDCCORE_H_

#include <algorithm>
#include <any>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "src/crypto/dh.h"
#include "src/crypto/prng.h"
#include "src/krb4/database.h"
#include "src/krb4/messages.h"
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

// Small direct-mapped cache of keys copied out of the principal store,
// validated against the store's generation counter so post-construction
// registrations (several attack scenarios add services mid-run) invalidate
// it automatically. Returns keys by value: a later insert may overwrite any
// slot, so references into the cache would dangle within one request.
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

// Memo of deterministic unseal results, keyed by (result type, sealing key,
// ciphertext). A KDC sees the same sealed TGT on every ticket-granting
// request a client makes for the lifetime of its login session; decrypting
// and decoding it is a pure function of key and ciphertext, so the decoded
// ticket can be reused instead of re-unsealed. Only constant-per-session
// blobs belong here — never authenticators or preauth data, which change
// per request in real traffic. Direct-mapped; the stored ciphertext and key
// bytes are compared in full on lookup, so a hash collision costs a miss,
// never a wrong ticket. Failures are not cached (garbage varies). One
// context serves either core, so an entry's type is part of its key: a V4
// ticket never answers a V5 lookup (std::any_cast checks it).
class KdcUnsealMemo {
 public:
  template <typename T>
  const T* Get(const kcrypto::DesKey& key, kerb::BytesView sealed) const {
    const Entry& entry = entries_[Slot(sealed)];
    if (!entry.used || entry.key_bytes != key.bytes() || entry.sealed.size() != sealed.size() ||
        !std::equal(entry.sealed.begin(), entry.sealed.end(), sealed.begin())) {
      return nullptr;
    }
    return std::any_cast<T>(&entry.value);
  }

  template <typename T>
  const T* Put(const kcrypto::DesKey& key, kerb::BytesView sealed, T value) {
    Entry& entry = entries_[Slot(sealed)];
    entry.used = true;
    entry.key_bytes = key.bytes();
    entry.sealed.assign(sealed.begin(), sealed.end());
    entry.value = std::move(value);
    return std::any_cast<T>(&entry.value);
  }

 private:
  static constexpr size_t kSlots = 16;

  static size_t Slot(kerb::BytesView sealed) {
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : sealed) {
      h = (h ^ b) * 1099511628211ull;
    }
    return static_cast<size_t>(h & (kSlots - 1));
  }

  struct Entry {
    bool used = false;
    kcrypto::DesBlock key_bytes{};
    kerb::Bytes sealed;
    std::any value;
  };
  std::array<Entry, kSlots> entries_;
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
  // Returns the cached reply for a fresh duplicate, or nullptr.
  const kerb::Bytes* Get(const ksim::NetAddress& src, kerb::BytesView request, ksim::Time now,
                         ksim::Duration window) const {
    const Entry& entry = entries_[Slot(src, request)];
    if (!entry.used || entry.src_host != src.host || entry.src_port != src.port ||
        now - entry.stored_at > window || entry.request.size() != request.size() ||
        !std::equal(entry.request.begin(), entry.request.end(), request.begin())) {
      return nullptr;
    }
    return &entry.reply;
  }

  void Put(const ksim::NetAddress& src, kerb::BytesView request, kerb::BytesView reply,
           ksim::Time now) {
    Entry& entry = entries_[Slot(src, request)];
    entry.used = true;
    entry.src_host = src.host;
    entry.src_port = src.port;
    entry.request.assign(request.begin(), request.end());
    entry.reply.assign(reply.begin(), reply.end());
    entry.stored_at = now;
  }

 private:
  static constexpr size_t kSlots = 16;

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
  kerb::Bytes ticket_plain;
  kerb::Bytes ticket_sealed;
  kerb::Bytes body_plain;
  kerb::Bytes body_sealed;
  kerb::Bytes pk_outer;  // DH-layer seal of body_sealed in the PK AS path
  kerb::Bytes reply;
};

// Everything one serving thread owns exclusively.
struct KdcContext {
  explicit KdcContext(kcrypto::Prng context_prng) : prng(context_prng) {}

  kcrypto::Prng prng;
  KdcKeyCache keys;
  KdcUnsealMemo unseals;
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
  // runs `body` — the core's decode, checks and encode — and remembers a
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

  // db_.Lookup through the context's generation-checked key cache.
  kerb::Result<kcrypto::DesKey> CachedLookup(const Principal& principal, KdcContext& ctx) const;

  // The DH group for one PK-preauth AS request, which it counts as served;
  // kUnsupported while PK preauth is off.
  kerb::Result<const kcrypto::DhGroup*> PkGroup();

  // Decodes a presented TGT sealed under `key` through the context's unseal
  // memo; `unseal(key, sealed)` decodes on a miss. The same sealed TGT
  // arrives on every request of a client's session, so the decoded ticket
  // is reused (the caller still checks expiry against `now`). With
  // `ring_fallback` — a TGT of this realm, sealed under the krbtgt key — a
  // ticket that does not open under the current key is tried under each
  // older, unexpired version of the krbtgt ring: a TGT sealed before a TGS
  // key rotation keeps verifying until its natural expiry (the rotation
  // drain window). Each candidate key gets its own memo slot, so entries
  // cached under an old version keep hitting after the current version
  // moves on.
  template <typename Ticket, typename Unseal>
  kerb::Result<const Ticket*> UnsealTgt(const kcrypto::DesKey& key, kerb::BytesView sealed,
                                        bool ring_fallback, ksim::Time now, KdcContext& ctx,
                                        Unseal&& unseal) const {
    const Ticket* tgt = ctx.unseals.Get<Ticket>(key, sealed);
    if (kobs::Enabled()) {
      kobs::Emit(source_,
                 tgt != nullptr ? kobs::Ev::kKdcUnsealMemoHit : kobs::Ev::kKdcUnsealMemoMiss,
                 clock_.Now(), sealed.size());
    }
    if (tgt != nullptr) {
      return tgt;
    }
    if (auto unsealed = unseal(key, sealed); unsealed.ok()) {
      return ctx.unseals.Put(key, sealed, std::move(unsealed.value()));
    }
    PrincipalEntry tgs_entry;
    if (ring_fallback && db_.store().LookupEntry(tgs_principal_, &tgs_entry)) {
      for (size_t i = 1; i < tgs_entry.keys.size(); ++i) {
        const KeyVersion& kv = tgs_entry.keys[i];
        if (kv.not_after != 0 && now > kv.not_after) {
          continue;
        }
        tgt = ctx.unseals.Get<Ticket>(kv.key, sealed);
        if (tgt == nullptr) {
          if (auto old_unsealed = unseal(kv.key, sealed); old_unsealed.ok()) {
            tgt = ctx.unseals.Put(kv.key, sealed, std::move(old_unsealed.value()));
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
    if (const kerb::Bytes* cached = CachedReply(msg, ctx, reply_cache_window)) {
      return *cached;
    }
    kerb::Result<kerb::Bytes> reply = body();
    if (reply.ok()) {
      RememberReply(msg, reply.value(), ctx, reply_cache_window);
    }
    return reply;
  }

  // Serves a fresh duplicate from the context's reply cache, if enabled.
  const kerb::Bytes* CachedReply(const ksim::Message& msg, KdcContext& ctx,
                                 ksim::Duration window);
  // Remembers a successful reply for retransmission, if enabled.
  void RememberReply(const ksim::Message& msg, const kerb::Bytes& reply, KdcContext& ctx,
                     ksim::Duration window);

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

  kerb::Result<kerb::Bytes> HandleAs(const ksim::Message& msg, KdcContext& ctx);
  kerb::Result<kerb::Bytes> HandleTgs(const ksim::Message& msg, KdcContext& ctx);

  const KdcOptions& options() const { return options_; }

 private:
  // Protocol checks and reply encoding, on a request HandleAs/HandleTgs has decoded.
  kerb::Result<kerb::Bytes> ServeAs(const ksim::Message& msg, const AsRequest4& req,
                                    KdcContext& ctx);
  kerb::Result<kerb::Bytes> ServeAsPk(const ksim::Message& msg, const AsPkRequest4& req,
                                      KdcContext& ctx);
  kerb::Result<kerb::Bytes> ServeTgs(const ksim::Message& msg, const TgsRequest4& req,
                                     KdcContext& ctx);

  // The TGT both AS paths issue: mints it for `req`'s client at the claimed
  // source address, seals it under `tgs_key`, and leaves the AS reply body
  // {K_c,tgs, {T_c,tgs}K_tgs, times} in ctx.scratch.body_plain. Draws the
  // session key from the context PRNG.
  template <typename AsReq>
  void MintTgt(const ksim::Message& msg, const AsReq& req, ksim::Time now,
               const kcrypto::DesKey& tgs_key, KdcContext& ctx);

  KdcOptions options_;
};

}  // namespace krb4

#endif  // SRC_KRB4_KDCCORE_H_
