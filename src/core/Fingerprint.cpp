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
// The digest is structured as an FNV-1a fold over per-cell component
// digests. Components that change on every step — the k stack, the
// sequencing sets, memory objects, frames — maintain their digests
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

using namespace cundef;

namespace {

void hashValue(Fnv1a &H, const Value &V) {
  H.u8(static_cast<uint8_t>(V.K));
  H.ptr(V.Ty);
  H.u64(V.Bits);
  H.f64(V.F);
  H.u32(V.Ptr.Base);
  H.i64(V.Ptr.Offset);
  H.u8(V.Ptr.FromInteger);
  H.u64(V.Ptr.RawInt);
  H.u8(V.LvQuals);
  H.u8(static_cast<uint8_t>(V.Payload.K));
  H.u8(V.Payload.Value);
  H.u32(V.Payload.Ptr.Base);
  H.i64(V.Payload.Ptr.Offset);
  H.u8(V.Payload.FragIndex);
  H.u8(V.Payload.FragCount);
  H.u64(V.AggBytes.size());
  for (const Byte &B : V.AggBytes) {
    H.u8(static_cast<uint8_t>(B.K));
    H.u8(B.Value);
    H.u32(B.Ptr.Base);
    H.i64(B.Ptr.Offset);
    H.u8(B.FragIndex);
    H.u8(B.FragCount);
  }
  H.u8(V.MissingReturn);
  H.i64(V.SubStart);
  H.u64(V.SubLen);
}

uint64_t frameDigest(const Frame &F) {
  Fnv1a H;
  H.ptr(F.Fn);
  H.u64(F.Env.size());
  for (const auto &[Decl, Obj] : F.Env) {
    H.u32(Decl);
    H.u32(Obj);
  }
  H.u64(F.ParamObjects.size());
  for (uint32_t Id : F.ParamObjects)
    H.u32(Id);
  H.u64(F.VarArgs.size());
  for (const Value &V : F.VarArgs)
    hashValue(H, V);
  return H.digest();
}

/// The cells that are cheap to hash in full every time (bounded by the
/// number of globals / functions / literals / live heap regions, not by
/// execution length). Shared by both fingerprint paths.
uint64_t smallCellsDigest(const Configuration &C) {
  Fnv1a H;
  H.u64(C.Values.size());
  for (const Value &V : C.Values)
    hashValue(H, V);

  H.u64(C.GlobalEnv.size());
  for (const auto &[Decl, Obj] : C.GlobalEnv) {
    H.u32(Decl);
    H.u32(Obj);
  }

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

  H.u8(static_cast<uint8_t>(C.Status));
  H.u32(static_cast<uint32_t>(C.ExitCode));
  H.u32(C.RandState);
  return H.digest();
}

uint64_t fingerprintWith(const Configuration &C, bool Full) {
  Fnv1a H;
  H.u64(Full || !C.K.tracking() ? C.K.computeDigest() : C.K.digest());
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
  Fnv1a H;
  H.u8(static_cast<uint8_t>(Item.K));
  H.ptr(Item.E);
  H.ptr(Item.S);
  H.u64(Item.Results.size());
  for (const Value &V : Item.Results)
    hashValue(H, V);
  H.u64(Item.Perm.size());
  H.bytes(Item.Perm.data(), Item.Perm.size());
  H.u8(Item.Idx);
  H.ptr(Item.D);
  H.u64(Item.Offset);
  H.ptr(Item.Ty.Ty);
  H.u8(Item.Ty.Quals);
  H.u64(Item.ObjectsToKill.size());
  for (uint32_t Id : Item.ObjectsToKill)
    H.u32(Id);
  H.ptr(Item.Callee);
  H.u8(Item.HasValue);
  return H.digest();
}

uint64_t Configuration::fingerprint() const {
  return fingerprintWith(*this, /*Full=*/false);
}

uint64_t Configuration::fingerprintFull() const {
  return fingerprintWith(*this, /*Full=*/true);
}
