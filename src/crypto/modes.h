// DES modes of operation: ECB, CBC (FIPS 81), and the nonstandard PCBC mode
// used by Kerberos Version 4.
//
// The paper's encryption-layer analysis hinges on the algebra of these
// modes:
//   * CBC: "prefixes of encryptions are encryptions of prefixes" (with the
//     same IV) — the basis of the inter-session chosen-plaintext attack on
//     the Draft 2 KRB_PRIV format (experiment E7).
//   * PCBC: interchanging two adjacent ciphertext blocks garbles only those
//     blocks; all later blocks decrypt correctly — the message-stream
//     modification weakness that led Version 5 to abandon PCBC (E8).
// Both properties are demonstrated by tests and experiments in this repo.
//
// Three API layers are provided:
//   * In-place byte-buffer transforms. These are allocation-free and are
//     what the protocol layers (enclayer, krbpriv) and the attack inner loops
//     use. Their serial chains (CBC and PCBC encryption, CBC-MAC) run in the
//     IP domain (see des.h).
//   * Primitives over uint64_t block spans. The chained ones step block by
//     block through DesKey::EncryptBlock, the textbook form, and the tests
//     hold the in-place chains to them.
//   * The original kerb::Bytes convenience wrappers, now a single
//     allocation plus an in-place transform.
//
// These functions provide raw modes with no integrity protection; integrity
// (checksums, confounders, rolling IVs) belongs to the encryption *layer*
// (src/hardened/enclayer.h), exactly as the paper recommends.

#ifndef SRC_CRYPTO_MODES_H_
#define SRC_CRYPTO_MODES_H_

#include <cstddef>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/crypto/des.h"

namespace kcrypto {

// Zero initialization vector — "assume the initial vector is fixed and
// public", the hint the paper gives for its chosen-ciphertext exercise.
constexpr DesBlock kZeroIv{};

// Appends PKCS#5-style padding (1..8 bytes, each equal to the pad length).
kerb::Bytes Pkcs5Pad(kerb::BytesView data);

// Appends PKCS#5 padding to `data` in place.
void Pkcs5PadInPlace(kerb::Bytes& data);

// Removes PKCS#5 padding; fails with kBadFormat on malformed padding.
kerb::Result<kerb::Bytes> Pkcs5Unpad(kerb::BytesView data);

// The length Pkcs5Unpad would return, without the copy; fails alike.
kerb::Result<size_t> Pkcs5UnpaddedSize(kerb::BytesView data);

// Appends zero bytes until the length is a multiple of 8 (Kerberos V4
// style; the plaintext must carry its own length field).
kerb::Bytes ZeroPadTo8(kerb::BytesView data);

// --- Primitives over spans of 64-bit blocks (FIPS bit order). -----------
//
// All of them allow in == out (in-place); CBC/PCBC decryption keeps the
// needed previous-ciphertext state in locals. None of them allocate.

void EcbEncryptBlocks(const DesKey& key, const uint64_t* in, uint64_t* out, size_t n);
void CbcEncryptBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, uint64_t* out,
                      size_t n);
void CbcDecryptBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, uint64_t* out,
                      size_t n);
void PcbcEncryptBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, uint64_t* out,
                       size_t n);
void PcbcDecryptBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, uint64_t* out,
                       size_t n);

// CBC-MAC over whole blocks: returns the final chaining value.
uint64_t CbcMacBlocks(const DesKey& key, uint64_t iv, const uint64_t* in, size_t n);

// --- In-place transforms over byte buffers (size must be a multiple of 8,
// asserted). The workhorses for the protocol layers: one pass, no copies. --

void EncryptEcbInPlace(const DesKey& key, uint8_t* data, size_t size);
void DecryptEcbInPlace(const DesKey& key, uint8_t* data, size_t size);
void EncryptCbcInPlace(const DesKey& key, const DesBlock& iv, uint8_t* data, size_t size);
void DecryptCbcInPlace(const DesKey& key, const DesBlock& iv, uint8_t* data, size_t size);
void EncryptPcbcInPlace(const DesKey& key, const DesBlock& iv, uint8_t* data, size_t size);
void DecryptPcbcInPlace(const DesKey& key, const DesBlock& iv, uint8_t* data, size_t size);

// Two independent CBC encryptions with the zero IV: `a` under `key_a` and
// `b` under `key_b`, byte-identical to two EncryptCbcInPlace calls. The
// rounds of both chains run interleaved over the shorter message, then the
// longer one finishes alone. The buffers must not overlap.
void EncryptCbcPairInPlace(const DesKey& key_a, uint8_t* a, size_t a_size, const DesKey& key_b,
                           uint8_t* b, size_t b_size);

// Two nested PCBC encryptions with the zero IV, in one pass over one buffer:
// byte-identical to EncryptPcbcInPlace(inner_key, kZeroIv, data +
// inner_offset, inner_size) followed by EncryptPcbcInPlace(outer_key,
// kZeroIv, data, size). This is the shape of a V4 KDC reply, whose sealed
// body carries the sealed ticket. With inner_offset >= 8, outer block s reads
// only inner ciphertext blocks < s, so step s runs inner block s and outer
// block s in lockstep; the outer chain finishes alone. Requires inner_offset
// >= 8 and inner_offset + inner_size <= size, both sizes multiples of 8.
void EncryptPcbcNestedInPlace(const DesKey& inner_key, size_t inner_offset, size_t inner_size,
                              const DesKey& outer_key, uint8_t* data, size_t size);

// --- Allocating convenience wrappers (copy once, transform in place). ----

// ECB. Input must be a multiple of 8 bytes (asserted).
kerb::Bytes EncryptEcb(const DesKey& key, kerb::BytesView plaintext);
kerb::Bytes DecryptEcb(const DesKey& key, kerb::BytesView ciphertext);

// CBC with explicit IV. Input must be a multiple of 8 bytes (asserted).
kerb::Bytes EncryptCbc(const DesKey& key, const DesBlock& iv, kerb::BytesView plaintext);
kerb::Bytes DecryptCbc(const DesKey& key, const DesBlock& iv, kerb::BytesView ciphertext);

// PCBC (propagating CBC), as used by Kerberos V4:
//   C_i = E(P_i ^ P_{i-1} ^ C_{i-1}),  with P_0 ^ C_0 = IV.
kerb::Bytes EncryptPcbc(const DesKey& key, const DesBlock& iv, kerb::BytesView plaintext);
kerb::Bytes DecryptPcbc(const DesKey& key, const DesBlock& iv, kerb::BytesView ciphertext);

// CBC-MAC (the DES "cipher block chaining checksum" of FIPS 113 flavor):
// returns the final CBC block over zero-padded data. Empty input is treated
// as one zero block, so the MAC is always the output of at least one
// encryption — never the raw IV.
DesBlock CbcMac(const DesKey& key, const DesBlock& iv, kerb::BytesView data);

}  // namespace kcrypto

#endif  // SRC_CRYPTO_MODES_H_
