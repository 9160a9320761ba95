//===- core/Fingerprint.cpp - Configuration fingerprints ---------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// Configuration::fingerprint(): the state digest behind the parallel
// evaluation-order search's visited-set (core/Search.cpp). The digest
// must cover every cell whose content can influence future steps; AST
// nodes, declarations, and canonical types are hashed by address, which
// is a stable identity because every machine of one search shares the
// same AstContext.
//
// The digest is a WordHasher fold (support/Hash.h) over per-cell
// component digests. Each absorbed word costs one mix, so narrow fields
// share words and values and k items skip their zero fields
// (SparseRecord). Components that change on every step — the k stack,
// the sequencing sets, memory objects, frames — maintain their digests
// incrementally (prefix stacks, multiset sums, dirty-tracked caches),
// so fingerprint() costs O(state touched since the last fingerprint).
// fingerprintFull() recomputes every component from scratch and must
// produce the identical value; that equivalence is the correctness
// argument for all the caches, and tests assert it at every choice
// point of real runs.
//
//===----------------------------------------------------------------------===//

#include "core/Configuration.h"

#include "support/Hash.h"

#include <cassert>
#include <cstring>

using namespace cundef;

namespace {

/// (a, b) as one word, for the id pairs of the environment maps.
uint64_t pair32(uint32_t A, uint32_t B) {
  return static_cast<uint64_t>(A) | static_cast<uint64_t>(B) << 32;
}

/// A record absorbed sparsely: most fields of a Value or a k item are
/// zero (an Int value has no pointer, payload byte or window; an Expr
/// item has only its node). The first word carries the record's narrow
/// fields and one presence bit per wide field, and only the non-zero
/// wide fields follow, so the encoding stays injective while a typical
/// record costs two or three absorption steps instead of ten.
class SparseRecord {
public:
  /// Adds the next wide field (at most MaxWide per record).
  void add(uint64_t W) {
    assert(Slot < MaxWide && "too many wide fields");
    if (W) {
      Words[Count++] = W;
      Present |= 1u << Slot;
    }
    ++Slot;
  }
  /// \p Narrow must fit in the low 32 bits.
  void absorbInto(WordHasher &H, uint32_t Narrow) const {
    H.u64(Narrow | static_cast<uint64_t>(Present) << 32);
    for (unsigned I = 0; I < Count; ++I)
      H.u64(Words[I]);
  }

private:
  static constexpr unsigned MaxWide = 12;
  uint64_t Words[MaxWide];
  unsigned Count = 0, Slot = 0;
  uint32_t Present = 0;
};

uint64_t bitsOf(double F) {
  uint64_t Bits;
  std::memcpy(&Bits, &F, 8);
  return Bits;
}

void addByte(SparseRecord &R, const Byte &B) {
  uint64_t Words[2];
  std::memcpy(Words, &B, sizeof(Byte)); // no padding (mem/Byte.h)
  R.add(Words[0]);
  R.add(Words[1]);
}

void hashValue(WordHasher &H, const Value &V) {
  SparseRecord R;
  R.add(reinterpret_cast<uintptr_t>(V.Ty));
  R.add(V.Bits);
  R.add(bitsOf(V.F));
  R.add(V.Ptr.Base);
  R.add(static_cast<uint64_t>(V.Ptr.Offset));
  R.add(V.Ptr.RawInt);
  addByte(R, V.Payload);
  R.add(static_cast<uint64_t>(V.SubStart));
  R.add(V.SubLen);
  R.add(V.AggBytes.size());
  R.absorbInto(H, static_cast<uint32_t>(V.K) |
                      static_cast<uint32_t>(V.LvQuals) << 8 |
                      static_cast<uint32_t>(V.MissingReturn) << 16 |
                      static_cast<uint32_t>(V.Ptr.FromInteger) << 24);
  // Bytes have no padding, so a run of them is absorbed as its raw
  // words, two per byte.
  H.bytes(V.AggBytes.data(), V.AggBytes.size() * sizeof(Byte));
}

uint64_t frameDigest(const Frame &F) {
  WordHasher H;
  H.ptr(F.Fn);
  H.u64(F.Env.size());
  for (const auto &[Decl, Obj] : F.Env)
    H.u64(pair32(Decl, Obj));
  H.u64(F.ParamObjects.size());
  H.bytes(F.ParamObjects.data(), F.ParamObjects.size() * sizeof(uint32_t));
  H.u64(F.VarArgs.size());
  for (const Value &V : F.VarArgs)
    hashValue(H, V);
  return H.digest();
}

/// The cells that are cheap to hash in full every time (bounded by the
/// number of globals / functions / literals / live heap regions, not by
/// execution length). Shared by both fingerprint paths.
uint64_t smallCellsDigest(const Configuration &C) {
  WordHasher H;
  H.u64(C.Values.size());
  for (const Value &V : C.Values)
    hashValue(H, V);

  H.u64(C.GlobalEnv.size());
  for (const auto &[Decl, Obj] : C.GlobalEnv)
    H.u64(pair32(Decl, Obj));

  H.u64(C.FuncObjects.size());
  for (const auto &[Fn, Obj] : C.FuncObjects) {
    H.ptr(Fn);
    H.u32(Obj);
  }
  H.u64(C.LiteralObjects.size());
  for (const auto &[E, Obj] : C.LiteralObjects) {
    H.ptr(E);
    H.u32(Obj);
  }
  H.u64(C.HeapEffectiveTy.size());
  for (const auto &[Loc, Ty] : C.HeapEffectiveTy) {
    H.u32(Loc.first);
    H.i64(Loc.second);
    H.ptr(Ty);
  }

  H.u64(static_cast<uint64_t>(C.Status) |
        static_cast<uint64_t>(static_cast<uint32_t>(C.ExitCode)) << 8);
  H.u32(C.RandState);
  return H.digest();
}

uint64_t fingerprintWith(const Configuration &C, bool Full) {
  WordHasher H;
  H.u64(Full ? C.K.computeDigest() : C.K.digest());
  H.u64(Full ? C.LocsWrittenTo.computeDigest() : C.LocsWrittenTo.digest());
  H.u64(Full ? C.NotWritable.computeDigest() : C.NotWritable.digest());
  C.Mem.hashInto(H, Full);

  H.u64(C.CallStack.size());
  for (const Frame &F : C.CallStack) {
    if (Full) {
      H.u64(frameDigest(F));
      continue;
    }
    if (!F.DigestValid) {
      F.Digest = frameDigest(F);
      F.DigestValid = true;
    }
    H.u64(F.Digest);
  }

  H.u64(smallCellsDigest(C));
  return H.digest();
}

} // namespace

uint64_t cundef::kItemDigest(const KItem &Item) {
  WordHasher H;
  SparseRecord R;
  R.add(reinterpret_cast<uintptr_t>(Item.E));
  R.add(reinterpret_cast<uintptr_t>(Item.S));
  R.add(reinterpret_cast<uintptr_t>(Item.D));
  R.add(Item.Offset);
  R.add(reinterpret_cast<uintptr_t>(Item.Ty.Ty));
  R.add(reinterpret_cast<uintptr_t>(Item.Callee));
  // The sizes of the variable-length parts, which follow unprefixed.
  // An EvalOperands item's operand results are not part of it: they
  // wait on the value stack, which smallCellsDigest covers.
  R.add(pair32(Item.Perm.size(),
               static_cast<uint32_t>(Item.ObjectsToKill.size())));
  R.absorbInto(H, static_cast<uint32_t>(Item.K) |
                      static_cast<uint32_t>(Item.Idx) << 8 |
                      static_cast<uint32_t>(Item.Ty.Quals) << 16 |
                      static_cast<uint32_t>(Item.HasValue) << 24);
  H.bytes(Item.Perm.data(), Item.Perm.size());
  H.bytes(Item.ObjectsToKill.data(),
          Item.ObjectsToKill.size() * sizeof(uint32_t));
  return H.digest();
}

uint64_t Configuration::fingerprint() const {
  return fingerprintWith(*this, /*Full=*/false);
}

uint64_t Configuration::fingerprintFull() const {
  return fingerprintWith(*this, /*Full=*/true);
}
