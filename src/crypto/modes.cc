#include "src/crypto/modes.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace kcrypto {

kerb::Bytes Pkcs5Pad(kerb::BytesView data) {
  kerb::Bytes out(data.begin(), data.end());
  Pkcs5PadInPlace(out);
  return out;
}

void Pkcs5PadInPlace(kerb::Bytes& data) {
  size_t pad = 8 - (data.size() % 8);
  data.insert(data.end(), pad, static_cast<uint8_t>(pad));
}

kerb::Result<kerb::Bytes> Pkcs5Unpad(kerb::BytesView data) {
  auto size = Pkcs5UnpaddedSize(data);
  if (!size.ok()) {
    return size.error();
  }
  return kerb::Bytes(data.begin(), data.begin() + static_cast<ptrdiff_t>(size.value()));
}

kerb::Result<size_t> Pkcs5UnpaddedSize(kerb::BytesView data) {
  if (data.empty() || data.size() % 8 != 0) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "padded data not a multiple of 8");
  }
  uint8_t pad = data[data.size() - 1];
  if (pad == 0 || pad > 8 || pad > data.size()) {
    return kerb::MakeError(kerb::ErrorCode::kBadFormat, "bad pad length");
  }
  for (size_t i = data.size() - pad; i < data.size(); ++i) {
    if (data[i] != pad) {
      return kerb::MakeError(kerb::ErrorCode::kBadFormat, "inconsistent pad bytes");
    }
  }
  return data.size() - pad;
}

kerb::Bytes ZeroPadTo8(kerb::BytesView data) {
  kerb::Bytes out(data.begin(), data.end());
  out.resize((out.size() + 7) & ~size_t{7}, 0);
  return out;
}

// --- Primitives over spans of 64-bit blocks. -----------------------------

namespace {

// Working-set size for the decrypt-then-chain loops below: big enough to
// amortize the call, small enough to stay in L1.
constexpr size_t kBulkChunk = 64;

}  // namespace

void EcbEncryptBlocks(const DesKey& key, const uint64_t* in, uint64_t* out, size_t n) {
  key.EncryptBlocks2(in, out, n);
}

void CbcEncryptBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, uint64_t* out,
                      size_t n) {
  uint64_t chain = iv;
  for (size_t i = 0; i < n; ++i) {
    chain = key.EncryptBlock(in[i] ^ chain);
    out[i] = chain;
  }
}

void CbcDecryptBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, uint64_t* out,
                      size_t n) {
  // Unlike encryption, CBC decryption has no serial dependency through the
  // cipher: every D(C_i) is independent, only the final XOR chains. Decrypt
  // a chunk through the interleaved core, then chain. The ciphertext copy
  // also keeps in == out correct.
  uint64_t chain = iv;
  uint64_t c[kBulkChunk];
  uint64_t d[kBulkChunk];
  for (size_t base = 0; base < n; base += kBulkChunk) {
    const size_t m = std::min(kBulkChunk, n - base);
    std::memcpy(c, in + base, m * sizeof(uint64_t));
    key.DecryptBlocks2(c, d, m);
    for (size_t i = 0; i < m; ++i) {
      out[base + i] = d[i] ^ chain;
      chain = c[i];
    }
  }
}

void PcbcEncryptBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, uint64_t* out,
                       size_t n) {
  uint64_t chain = iv;  // holds P_{i-1} ^ C_{i-1}
  for (size_t i = 0; i < n; ++i) {
    uint64_t p = in[i];
    uint64_t c = key.EncryptBlock(p ^ chain);
    out[i] = c;
    chain = p ^ c;
  }
}

void PcbcDecryptBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, uint64_t* out,
                       size_t n) {
  // Same decrypt-then-chain split as CbcDecryptBlocks: P_i = D(C_i) ^ P_{i-1}
  // ^ C_{i-1}, and all the D(C_i) are independent.
  uint64_t chain = iv;
  uint64_t c[kBulkChunk];
  uint64_t d[kBulkChunk];
  for (size_t base = 0; base < n; base += kBulkChunk) {
    const size_t m = std::min(kBulkChunk, n - base);
    std::memcpy(c, in + base, m * sizeof(uint64_t));
    key.DecryptBlocks2(c, d, m);
    for (size_t i = 0; i < m; ++i) {
      uint64_t p = d[i] ^ chain;
      out[base + i] = p;
      chain = p ^ c[i];
    }
  }
}

uint64_t CbcMacBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, size_t n) {
  uint64_t chain = iv;
  for (size_t i = 0; i < n; ++i) {
    chain = key.EncryptBlock(in[i] ^ chain);
  }
  return chain;
}

// --- In-place byte-buffer transforms. ------------------------------------

namespace {

// Continues a CBC chain held in the IP domain (y = IP of the previous
// ciphertext block) over whole blocks in place; returns the final state.
uint64_t CbcChainInPlace(const DesKey& key, uint64_t y, uint8_t* data, size_t size) {
  for (size_t off = 0; off < size; off += 8) {
    y = key.EncryptRounds(y ^ InitialPermutation(LoadU64BE(data + off)));
    StoreU64BE(data + off, FinalPermutation(y));
  }
  return y;
}

// Continues a PCBC chain held in the IP domain over whole blocks in place:
// `y` is the previous output before FP and `prev` the previous plaintext
// block (0 and the IV at the start).
void PcbcChainInPlace(const DesKey& key, uint64_t y, uint64_t prev, uint8_t* data, size_t size) {
  for (size_t off = 0; off < size; off += 8) {
    const uint64_t p = LoadU64BE(data + off);
    y = key.EncryptRounds(y ^ InitialPermutation(p ^ prev));
    StoreU64BE(data + off, FinalPermutation(y));
    prev = p;
  }
}

}  // namespace

void EncryptEcbInPlace(const DesKey& key, uint8_t* data, size_t size) {
  assert(size % 8 == 0);
  uint64_t b[kBulkChunk];
  for (size_t off = 0; off < size; off += 8 * kBulkChunk) {
    const size_t m = std::min(kBulkChunk, (size - off) / 8);
    for (size_t i = 0; i < m; ++i) {
      b[i] = LoadU64BE(data + off + 8 * i);
    }
    key.EncryptBlocks2(b, b, m);
    for (size_t i = 0; i < m; ++i) {
      StoreU64BE(data + off + 8 * i, b[i]);
    }
  }
}

void DecryptEcbInPlace(const DesKey& key, uint8_t* data, size_t size) {
  assert(size % 8 == 0);
  uint64_t b[kBulkChunk];
  for (size_t off = 0; off < size; off += 8 * kBulkChunk) {
    const size_t m = std::min(kBulkChunk, (size - off) / 8);
    for (size_t i = 0; i < m; ++i) {
      b[i] = LoadU64BE(data + off + 8 * i);
    }
    key.DecryptBlocks2(b, b, m);
    for (size_t i = 0; i < m; ++i) {
      StoreU64BE(data + off + 8 * i, b[i]);
    }
  }
}

void EncryptCbcInPlace(const DesKey& key, const DesBlock& iv, uint8_t* data, size_t size) {
  assert(size % 8 == 0);
  CbcChainInPlace(key, InitialPermutation(BlockToU64(iv)), data, size);
}

void DecryptCbcInPlace(const DesKey& key, const DesBlock& iv, uint8_t* data, size_t size) {
  assert(size % 8 == 0);
  uint64_t chain = BlockToU64(iv);
  uint64_t c[kBulkChunk];
  uint64_t d[kBulkChunk];
  for (size_t off = 0; off < size; off += 8 * kBulkChunk) {
    const size_t m = std::min(kBulkChunk, (size - off) / 8);
    for (size_t i = 0; i < m; ++i) {
      c[i] = LoadU64BE(data + off + 8 * i);
    }
    key.DecryptBlocks2(c, d, m);
    for (size_t i = 0; i < m; ++i) {
      StoreU64BE(data + off + 8 * i, d[i] ^ chain);
      chain = c[i];
    }
  }
}

void EncryptPcbcInPlace(const DesKey& key, const DesBlock& iv, uint8_t* data, size_t size) {
  assert(size % 8 == 0);
  // C_i = E(P_i ^ P_{i-1} ^ C_{i-1}) in the IP domain: the chain carries
  // IP(P_i ^ P_{i-1}) ^ y_{i-1}, starting from P_0 = IV and y_0 = 0.
  PcbcChainInPlace(key, 0, BlockToU64(iv), data, size);
}

void DecryptPcbcInPlace(const DesKey& key, const DesBlock& iv, uint8_t* data, size_t size) {
  assert(size % 8 == 0);
  uint64_t chain = BlockToU64(iv);
  uint64_t c[kBulkChunk];
  uint64_t d[kBulkChunk];
  for (size_t off = 0; off < size; off += 8 * kBulkChunk) {
    const size_t m = std::min(kBulkChunk, (size - off) / 8);
    for (size_t i = 0; i < m; ++i) {
      c[i] = LoadU64BE(data + off + 8 * i);
    }
    key.DecryptBlocks2(c, d, m);
    for (size_t i = 0; i < m; ++i) {
      uint64_t p = d[i] ^ chain;
      StoreU64BE(data + off + 8 * i, p);
      chain = p ^ c[i];
    }
  }
}

void EncryptCbcPairInPlace(const DesKey& key_a, uint8_t* a, size_t a_size, const DesKey& key_b,
                           uint8_t* b, size_t b_size) {
  assert(a_size % 8 == 0 && b_size % 8 == 0);
  uint64_t ya = 0;  // IP of the zero IV
  uint64_t yb = 0;
  const size_t both = std::min(a_size, b_size);
  for (size_t off = 0; off < both; off += 8) {
    ya ^= InitialPermutation(LoadU64BE(a + off));
    yb ^= InitialPermutation(LoadU64BE(b + off));
    DesKey::EncryptRoundsPair(key_a, ya, key_b, yb);
    StoreU64BE(a + off, FinalPermutation(ya));
    StoreU64BE(b + off, FinalPermutation(yb));
  }
  // At most one of these has blocks left.
  CbcChainInPlace(key_a, ya, a + both, a_size - both);
  CbcChainInPlace(key_b, yb, b + both, b_size - both);
}

void EncryptPcbcNestedInPlace(const DesKey& inner_key, size_t inner_offset, size_t inner_size,
                              const DesKey& outer_key, uint8_t* data, size_t size) {
  assert(size % 8 == 0 && inner_size % 8 == 0);
  assert(inner_offset >= 8 && inner_offset + inner_size <= size);
  uint8_t* inner = data + inner_offset;
  uint64_t y_in = 0;  // both chains start from the zero IV
  uint64_t prev_in = 0;
  uint64_t y_out = 0;
  uint64_t prev_out = 0;
  // Outer block s ends before inner block s starts, and the outer stores of
  // steps < s end before either, so each load sees the serial order's bytes.
  for (size_t off = 0; off < inner_size; off += 8) {
    const uint64_t p_in = LoadU64BE(inner + off);
    const uint64_t p_out = LoadU64BE(data + off);
    y_in ^= InitialPermutation(p_in ^ prev_in);
    y_out ^= InitialPermutation(p_out ^ prev_out);
    DesKey::EncryptRoundsPair(inner_key, y_in, outer_key, y_out);
    StoreU64BE(inner + off, FinalPermutation(y_in));
    StoreU64BE(data + off, FinalPermutation(y_out));
    prev_in = p_in;
    prev_out = p_out;
  }
  PcbcChainInPlace(outer_key, y_out, prev_out, data + inner_size, size - inner_size);
}

// --- Allocating convenience wrappers. ------------------------------------

kerb::Bytes EncryptEcb(const DesKey& key, kerb::BytesView plaintext) {
  kerb::Bytes out(plaintext.begin(), plaintext.end());
  EncryptEcbInPlace(key, out.data(), out.size());
  return out;
}

kerb::Bytes DecryptEcb(const DesKey& key, kerb::BytesView ciphertext) {
  kerb::Bytes out(ciphertext.begin(), ciphertext.end());
  DecryptEcbInPlace(key, out.data(), out.size());
  return out;
}

kerb::Bytes EncryptCbc(const DesKey& key, const DesBlock& iv, kerb::BytesView plaintext) {
  kerb::Bytes out(plaintext.begin(), plaintext.end());
  EncryptCbcInPlace(key, iv, out.data(), out.size());
  return out;
}

kerb::Bytes DecryptCbc(const DesKey& key, const DesBlock& iv, kerb::BytesView ciphertext) {
  kerb::Bytes out(ciphertext.begin(), ciphertext.end());
  DecryptCbcInPlace(key, iv, out.data(), out.size());
  return out;
}

kerb::Bytes EncryptPcbc(const DesKey& key, const DesBlock& iv, kerb::BytesView plaintext) {
  kerb::Bytes out(plaintext.begin(), plaintext.end());
  EncryptPcbcInPlace(key, iv, out.data(), out.size());
  return out;
}

kerb::Bytes DecryptPcbc(const DesKey& key, const DesBlock& iv, kerb::BytesView ciphertext) {
  kerb::Bytes out(ciphertext.begin(), ciphertext.end());
  DecryptPcbcInPlace(key, iv, out.data(), out.size());
  return out;
}

DesBlock CbcMac(const DesKey& key, const DesBlock& iv, kerb::BytesView data) {
  // The CBC chain in the IP domain; only the final block pays for FP.
  uint64_t y = InitialPermutation(BlockToU64(iv));
  size_t full = data.size() & ~size_t{7};
  for (size_t off = 0; off < full; off += 8) {
    y = key.EncryptRounds(y ^ InitialPermutation(LoadU64BE(data.data() + off)));
  }
  // Trailing partial block, zero-padded. Empty input degenerates to exactly
  // one zero block — the MAC must never be the unencrypted IV.
  if (data.size() > full) {
    uint8_t last[8] = {0};
    std::memcpy(last, data.data() + full, data.size() - full);
    y = key.EncryptRounds(y ^ InitialPermutation(LoadU64BE(last)));
  } else if (data.empty()) {
    y = key.EncryptRounds(y);  // the zero block XORs to the chain itself
  }
  return U64ToBlock(FinalPermutation(y));
}

}  // namespace kcrypto
