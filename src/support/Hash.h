//===- support/Hash.h - Incremental word-at-a-time hashing -----*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one hasher behind every digest cundef keeps in memory: the
/// configuration fingerprints of the evaluation-order search
/// (core/Fingerprint.cpp; two interleavings whose configurations hash
/// equal at the same decision depth are treated as the same state, so
/// the search explores their common subtree once) and the content
/// addresses of the translation and result caches (TranslationKey,
/// ResultKey, the options and header-registry fingerprints).
///
/// It absorbs one 64-bit word per step, H = mix64(H ^ W), where mix64
/// is the full-avalanche splitmix64 finalizer: a scalar field costs one
/// mix whatever its width, and byte strings go in 8 bytes per step.
/// Each step is a bijection of the state for a fixed word, so two
/// inputs of equal length that differ in exactly one word never
/// collide, and every input bit reaches every digest bit. 64-bit digests make accidental
/// collisions (which would silently prune a genuinely distinct state,
/// or serve another program's cached result) astronomically unlikely at
/// search scales of <= millions of states. No digest leaves the
/// process, so the function may change freely between versions.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_HASH_H
#define CUNDEF_SUPPORT_HASH_H

#include <cstdint>
#include <cstring>
#include <string>

namespace cundef {

/// The splitmix64 finalizer: a full-avalanche 64-bit mix. Every input
/// bit flips each output bit with probability ~1/2. Besides driving
/// WordHasher, it is used wherever two quantities are combined into a
/// table key (the search's (depth, fingerprint) visited-set, per-byte
/// memory digests) so that structured inputs do not alias.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Incremental 64-bit hasher, one word per absorption step. Narrow
/// scalars are zero-extended to a word; callers that hash several
/// narrow fields pack them into one u64() call.
class WordHasher {
public:
  WordHasher() = default;
  /// Resumes from an earlier digest() (the digest is the whole state),
  /// as the k cell's prefix digests do.
  explicit WordHasher(uint64_t Digest) : H(Digest) {}

  void u64(uint64_t W) { H = mix64(H ^ W); }
  void u8(uint8_t V) { u64(V); }
  void u32(uint32_t V) { u64(V); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  /// Pointer identity. AST nodes and canonical types are shared by every
  /// machine of one search, so their addresses are stable tokens.
  void ptr(const void *P) { u64(reinterpret_cast<uintptr_t>(P)); }
  /// Absorbs \p Len bytes, 8 per step; a short tail is zero-padded to a
  /// word. Not length-prefixed: callers whose byte counts vary hash the
  /// length themselves (as str() does).
  void bytes(const void *Data, size_t Len) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (; Len >= 8; P += 8, Len -= 8) {
      uint64_t W;
      std::memcpy(&W, P, 8);
      u64(W);
    }
    if (Len) {
      uint64_t W = 0;
      std::memcpy(&W, P, Len);
      u64(W);
    }
  }
  /// Length-prefixed, so ("ab", "c") never collides with ("a", "bc").
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }

  uint64_t digest() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_HASH_H
