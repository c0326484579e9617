#include "src/krb5/safepriv.h"

#include <cstdlib>

#include "src/crypto/checksum.h"
#include "src/krb5/messages.h"

namespace krb5 {

SecureChannel::SecureChannel(const kcrypto::DesKey& key, const ksim::HostClock* clock,
                             ChannelConfig config, uint32_t initial_seq)
    : key_(key),
      clock_(clock),
      config_(config),
      send_seq_(initial_seq),
      expect_seq_(initial_seq) {
  // The initial IV derives from the handshake material (here: the initial
  // sequence value), as the paper suggests: "Initial values for it should
  // be exchanged during (or derived from) the authentication handshake."
  send_iv_ = kcrypto::U64ToBlock(key_.EncryptBlock(initial_seq));
  recv_iv_ = send_iv_;
}

kerb::Bytes SecureChannel::SealMessage(kerb::BytesView data, kcrypto::Prng& prng) {
  auto seal = [&](auto msg) {
    msg.data.assign(data.begin(), data.end());
    if (config_.protection == ReplayProtection::kTimestamp) {
      msg.timestamp = clock_->Now();
    } else if (config_.protection == ReplayProtection::kSequence) {
      msg.seq = send_seq_++;
    }
    if (config_.protection == ReplayProtection::kChainedIv) {
      // Position is encoded in the IV itself — no field needed at all.
      kerb::Bytes sealed = Seal(key_, msg, config_.enc, prng, send_iv_);
      send_iv_ = NextChainedIv(key_, send_iv_);
      return sealed;
    }
    if (config_.private_messages) {
      return Seal(key_, msg, config_.enc, prng);
    }
    // KRB_SAFE: plaintext body plus a keyed collision-proof checksum.
    kerb::Bytes body = kenc::Encode(msg);
    kerb::Bytes checksum =
        kcrypto::ComputeChecksum(kcrypto::ChecksumType::kMd4Des, body, key_);
    kenc::Writer w;
    w.PutLengthPrefixed(body);
    w.PutBytes(checksum);
    return w.Take();
  };
  return config_.private_messages ? seal(PrivMessage5{}) : seal(SafeMessage5{});
}

kerb::Result<kerb::Bytes> SecureChannel::OpenMessage(kerb::BytesView sealed) {
  if (config_.protection == ReplayProtection::kChainedIv) {
    auto opened = Unseal<PrivMessage5>(key_, sealed, config_.enc, recv_iv_);
    if (!opened.ok()) {
      // Wrong IV position: a replay, a reordering, or a deletion upstream.
      ++replays_;
      return kerb::MakeError(kerb::ErrorCode::kReplay,
                             "message does not match the expected IV position");
    }
    recv_iv_ = NextChainedIv(key_, recv_iv_);
    return std::move(opened.value().data);
  }
  PrivMessage5 msg;
  if (config_.private_messages) {
    auto opened = Unseal<PrivMessage5>(key_, sealed, config_.enc);
    if (!opened.ok()) {
      return opened.error();
    }
    msg = std::move(opened.value());
  } else {
    kenc::Reader r(sealed);
    auto body = r.GetLengthPrefixed();
    if (!body.ok()) {
      return body.error();
    }
    auto checksum = r.GetBytes(16);
    if (!checksum.ok()) {
      return checksum.error();
    }
    if (!kcrypto::VerifyChecksum(kcrypto::ChecksumType::kMd4Des, body.value(),
                                 checksum.value(), key_)) {
      return kerb::MakeError(kerb::ErrorCode::kIntegrity, "KRB_SAFE checksum mismatch");
    }
    auto decoded = kenc::Decode<SafeMessage5>(body.value());
    if (!decoded.ok()) {
      return decoded.error();
    }
    // Both bodies share one layout; only the message type differs.
    SafeMessage5& safe = decoded.value();
    msg = {safe.timestamp, safe.seq, std::move(safe.data)};
  }

  if (config_.protection == ReplayProtection::kTimestamp) {
    if (!msg.timestamp.has_value()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "timestamp missing");
    }
    ksim::Time t = *msg.timestamp;
    ksim::Time now = clock_->Now();
    if (std::llabs(t - now) > config_.clock_skew_limit) {
      ++replays_;
      return kerb::MakeError(kerb::ErrorCode::kSkew, "message timestamp outside window");
    }
    // Prune, then check-and-insert. The cache the paper worries about.
    std::erase_if(seen_timestamps_,
                  [&](ksim::Time seen) { return seen < now - config_.clock_skew_limit; });
    if (!seen_timestamps_.insert(t).second) {
      ++replays_;
      return kerb::MakeError(kerb::ErrorCode::kReplay, "message timestamp replayed");
    }
  } else {
    if (!msg.seq.has_value()) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "sequence number missing");
    }
    if (*msg.seq < expect_seq_) {
      ++replays_;
      return kerb::MakeError(kerb::ErrorCode::kReplay, "sequence number reused");
    }
    if (*msg.seq > expect_seq_) {
      ++gaps_;
      return kerb::MakeError(kerb::ErrorCode::kReplay, "sequence gap: message deleted?");
    }
    ++expect_seq_;
  }
  return std::move(msg.data);
}

}  // namespace krb5
