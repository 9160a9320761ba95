//===- core/RulesMem.cpp - Memory access rules --------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// This file is the heart of the paper's techniques:
//  * the deref-safest rule with liveness and bounds side conditions
//    (section 4.1.2),
//  * the locsWrittenTo sequencing checks (4.2.1) and notWritable const
//    checks (4.2.2),
//  * symbolic pointer arithmetic and comparison (4.3.1), subObject
//    pointer fragmentation (4.3.2), and unknown bytes (4.3.3).
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include <cassert>
#include <cstring>

using namespace cundef;

uint64_t Machine::absAddr(SymPointer Ptr) const {
  if (Ptr.FromInteger)
    return Ptr.RawInt + static_cast<uint64_t>(Ptr.Offset);
  if (Ptr.Base == 0)
    return static_cast<uint64_t>(Ptr.Offset);
  const MemObject *Obj = Conf.Mem.find(Ptr.Base);
  if (!Obj)
    return 0;
  return Obj->ConcreteAddr + static_cast<uint64_t>(Ptr.Offset);
}

//===----------------------------------------------------------------------===//
// Dereference rule (paper 4.1.2, all three formulations)
//===----------------------------------------------------------------------===//

bool Machine::derefCheck(const Value &P, QualType Pointee, SourceLoc Loc) {
  assert(P.isPointer() && "derefCheck needs a pointer");
  for (ExecMonitor *M : Monitors)
    M->onDeref(*this, P, Pointee, Loc);

  if (!Opts.Strict)
    return true; // the permissive machine checks at access time

  if (Opts.Style == RuleStyle::PrecedenceChain) {
    RuleContext RC;
    RC.Operand0 = P;
    RC.Loc = Loc;
    const char *Applied = derefChain().apply(*this, RC);
    (void)Applied;
    return RC.ProducedResult;
  }
  if (Opts.Style == RuleStyle::Declarative) {
    // A monitor performed the checks via the event above.
    return Conf.Status == RunStatus::Running;
  }

  // deref-safest (side-condition style).
  if (Pointee.Ty->isVoid()) {
    flagUb(UbKind::DerefVoidPointer, Loc);
    return false;
  }
  if (P.Ptr.isNull()) {
    flagUb(UbKind::DerefNullPointer, Loc);
    return false;
  }
  if (P.Ptr.FromInteger) {
    flagUb(UbKind::DerefDanglingPointer, Loc);
    return false;
  }
  const MemObject *Obj = Conf.Mem.find(P.Ptr.Base);
  if (!Obj) {
    flagUb(UbKind::DerefDanglingPointer, Loc);
    return false;
  }
  if (Obj->State == ObjectState::Freed) {
    flagUb(UbKind::UseAfterFree, Loc);
    return false;
  }
  if (Obj->State == ObjectState::Dead) {
    flagUb(Obj->Storage == StorageKind::Auto ? UbKind::AccessDeadObject
                                             : UbKind::AccessDeadObject,
           Loc);
    return false;
  }
  uint64_t Len = Pointee.Ty->isCompleteObjectType()
                     ? Ctx.Types.sizeOf(Pointee)
                     : 1;
  if (P.Ptr.Offset < 0 ||
      static_cast<uint64_t>(P.Ptr.Offset) + Len > Obj->Size) {
    // A zero-size object holds nothing at all: any dereference is the
    // zero-size-allocation row (38), not a one-past-the-end access.
    flagUb(Obj->Size == 0 ? UbKind::ZeroSizeAllocationUse
           : static_cast<uint64_t>(P.Ptr.Offset) == Obj->Size
               ? UbKind::DerefOnePastEnd
               : UbKind::ReadOutOfBounds,
           Loc);
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Pointer arithmetic (paper 4.3.1; C11 6.5.6p8)
//===----------------------------------------------------------------------===//

bool Machine::pointerAdd(const Value &P, int64_t DeltaElems, SourceLoc Loc,
                         Value &Out) {
  assert(P.isPointer() && "pointerAdd needs a pointer");
  uint64_t ElemSize = 1;
  if (P.Ty->Pointee.Ty && P.Ty->Pointee.Ty->isCompleteObjectType())
    ElemSize = Ctx.Types.sizeOf(P.Ty->Pointee);
  int64_t DeltaBytes = DeltaElems * static_cast<int64_t>(ElemSize);

  if (P.Ptr.isNull()) {
    if (DeltaElems == 0) {
      Out = P;
      return true;
    }
    if (Opts.Strict && Opts.SymbolicPointers) {
      flagUb(UbKind::NullPointerArithmetic, Loc);
      return false;
    }
    Out = Value::makePointer(
        P.Ty, SymPointer::fromInteger(static_cast<uint64_t>(DeltaBytes)));
    return true;
  }
  if (P.Ptr.FromInteger) {
    SymPointer Moved = P.Ptr;
    Moved.Offset += DeltaBytes;
    Out = Value::makePointer(P.Ty, Moved);
    return true;
  }
  const MemObject *Obj = Conf.Mem.find(P.Ptr.Base);
  if (Opts.Strict && Opts.SymbolicPointers) {
    if (!Obj) {
      flagUb(UbKind::DerefDanglingPointer, Loc);
      return false;
    }
    if (!Obj->isAlive()) {
      // Using the value of a pointer whose object's lifetime ended.
      flagUbCode(53, Loc);
      return false;
    }
    int64_t NewOffset = P.Ptr.Offset + DeltaBytes;
    if (NewOffset < 0 ||
        static_cast<uint64_t>(NewOffset) > Obj->Size) {
      // One past the end is allowed; beyond is UB 13.
      flagUb(UbKind::PointerArithOutOfBounds, Loc);
      return false;
    }
    if (P.SubLen != 0 &&
        (NewOffset < P.SubStart ||
         NewOffset > P.SubStart + static_cast<int64_t>(P.SubLen))) {
      // Beyond the decayed inner array, though the enclosing object is
      // accessible (catalog row 64).
      flagUbCode(64, Loc);
      return false;
    }
  }
  SymPointer Moved = P.Ptr;
  Moved.Offset += DeltaBytes;
  Out = Value::makePointer(P.Ty, Moved);
  Out.SubStart = P.SubStart;
  Out.SubLen = P.SubLen;
  return true;
}

//===----------------------------------------------------------------------===//
// Resolution
//===----------------------------------------------------------------------===//

Machine::ResolvedLoc Machine::resolveStrict(SymPointer Ptr, uint64_t Len,
                                            SourceLoc Loc, bool ForWrite) {
  ResolvedLoc R;
  if (Ptr.isNull()) {
    flagUb(UbKind::DerefNullPointer, Loc);
    return R;
  }
  if (Ptr.FromInteger) {
    flagUb(UbKind::DerefDanglingPointer, Loc);
    return R;
  }
  switch (Conf.Mem.probe(Ptr.Base, Ptr.Offset, Len)) {
  case MemStatus::Ok:
    R.Obj = Ptr.Base;
    R.Offset = Ptr.Offset;
    R.Ok = true;
    return R;
  case MemStatus::NoObject:
    flagUb(UbKind::DerefDanglingPointer, Loc);
    return R;
  case MemStatus::Freed:
    flagUb(UbKind::UseAfterFree, Loc);
    return R;
  case MemStatus::Dead:
    flagUb(UbKind::AccessDeadObject, Loc);
    return R;
  case MemStatus::OutOfBounds: {
    const MemObject *Obj = Conf.Mem.find(Ptr.Base);
    if (Obj && Obj->Size == 0)
      flagUb(UbKind::ZeroSizeAllocationUse, Loc);
    else if (Obj && Ptr.Offset >= 0 &&
             static_cast<uint64_t>(Ptr.Offset) == Obj->Size)
      flagUb(UbKind::DerefOnePastEnd, Loc);
    else
      flagUb(ForWrite ? UbKind::WriteOutOfBounds : UbKind::ReadOutOfBounds,
             Loc);
    return R;
  }
  }
  return R;
}

Machine::ResolvedLoc Machine::resolvePermissive(SymPointer Ptr, uint64_t Len,
                                                SourceLoc Loc) {
  ResolvedLoc R;
  // In-bounds access to a (possibly dead) object: direct.
  if (!Ptr.FromInteger && Ptr.Base != 0) {
    const MemObject *Obj = Conf.Mem.find(Ptr.Base);
    if (Obj && Ptr.Offset >= 0 &&
        static_cast<uint64_t>(Ptr.Offset) + Len <= Obj->Size) {
      R.Obj = Ptr.Base;
      R.Offset = Ptr.Offset;
      R.Ok = true;
      return R;
    }
  }
  // Hardware semantics: chase the concrete address wherever it lands.
  uint64_t Addr = absAddr(Ptr);
  int64_t Offset = 0;
  uint32_t Obj = Conf.Mem.findByAddress(Addr, Offset);
  if (!Obj || static_cast<uint64_t>(Offset) + Len >
                  Conf.Mem.find(Obj)->Size) {
    fault("segmentation fault", Loc);
    return R;
  }
  R.Obj = Obj;
  R.Offset = Offset;
  R.Ok = true;
  return R;
}

//===----------------------------------------------------------------------===//
// Sequencing, const, and effective-type side conditions
//===----------------------------------------------------------------------===//

bool Machine::sequencingReadCheck(uint32_t Obj, int64_t Off, uint64_t Len,
                                  SourceLoc Loc) {
  if (!Opts.Strict || !Opts.TrackSequencing ||
      Opts.Style == RuleStyle::Declarative)
    return true;
  for (uint64_t I = 0; I < Len; ++I) {
    if (Conf.LocsWrittenTo.count({Obj, Off + static_cast<int64_t>(I)})) {
      flagUb(UbKind::UnsequencedSideEffect, Loc);
      return false;
    }
  }
  return true;
}

bool Machine::sequencingWriteCheck(uint32_t Obj, int64_t Off, uint64_t Len,
                                   SourceLoc Loc) {
  if (!Opts.Strict || !Opts.TrackSequencing ||
      Opts.Style == RuleStyle::Declarative) {
    return true;
  }
  for (uint64_t I = 0; I < Len; ++I) {
    if (Conf.LocsWrittenTo.count({Obj, Off + static_cast<int64_t>(I)})) {
      flagUb(UbKind::UnsequencedSideEffect, Loc);
      return false;
    }
  }
  for (uint64_t I = 0; I < Len; ++I)
    Conf.LocsWrittenTo.insert({Obj, Off + static_cast<int64_t>(I)});
  return true;
}

bool Machine::constWriteCheck(uint32_t Obj, int64_t Off, uint64_t Len,
                              SourceLoc Loc) {
  if (!Opts.Strict || !Opts.TrackConst)
    return true;
  for (uint64_t I = 0; I < Len; ++I) {
    if (Conf.NotWritable.count({Obj, Off + static_cast<int64_t>(I)})) {
      const MemObject *Object = Conf.Mem.find(Obj);
      flagUb(Object && Object->Storage == StorageKind::Literal
                 ? UbKind::ModifyStringLiteral
                 : UbKind::WriteThroughConstPointer,
             Loc);
      return false;
    }
  }
  return true;
}

const Type *Machine::layoutTypeAt(QualType DeclTy, uint64_t Off,
                                  uint64_t Len) const {
  const Type *T = DeclTy.Ty;
  if (!T)
    return nullptr;
  if (T->isScalar())
    return (Off == 0 && Len == Ctx.Types.sizeOf(DeclTy)) ? T : nullptr;
  if (T->isArray()) {
    uint64_t ElemSize = Ctx.Types.sizeOf(T->Pointee);
    if (ElemSize == 0)
      return nullptr;
    return layoutTypeAt(T->Pointee, Off % ElemSize, Len);
  }
  if (T->Kind == TypeKind::Union)
    return T; // any member type may alias a union
  if (T->Kind == TypeKind::Struct) {
    for (const FieldInfo &Field : T->Record->Fields) {
      uint64_t FieldSize = Ctx.Types.sizeOf(Field.Ty);
      if (Off >= Field.Offset && Off + Len <= Field.Offset + FieldSize)
        return layoutTypeAt(Field.Ty, Off - Field.Offset, Len);
    }
    return nullptr;
  }
  return nullptr;
}

/// Integer types of the same size whose signedness differs may alias
/// (C11 6.5p7, third bullet).
static bool sameSizeIntegers(const Type *A, const Type *B,
                             const TypeContext &Types) {
  return A->isIntegral() && B->isIntegral() &&
         Types.sizeOf(QualType(A)) == Types.sizeOf(QualType(B));
}

bool Machine::effectiveTypeCheck(uint32_t Obj, int64_t Off, QualType Ty,
                                 SourceLoc Loc, bool IsWrite) {
  if (!Opts.Strict || !Opts.CheckEffectiveTypes)
    return true;
  const Type *Access = Ty.Ty;
  if (Access->isCharacter())
    return true; // character-type access is always allowed
  const MemObject *Object = Conf.Mem.find(Obj);
  if (!Object)
    return true;
  if (Object->Storage == StorageKind::Heap) {
    uint64_t Len = Ctx.Types.sizeOf(QualType(Access));
    if (IsWrite) {
      // A non-character write re-types the region it covers
      // (C11 6.5p6): clear any overlapping records, then set ours.
      auto It = Conf.HeapEffectiveTy.lower_bound({Obj, 0});
      while (It != Conf.HeapEffectiveTy.end() && It->first.first == Obj) {
        int64_t RegionOff = It->first.second;
        uint64_t RegionLen = Ctx.Types.sizeOf(QualType(It->second));
        bool Overlaps = RegionOff < Off + static_cast<int64_t>(Len) &&
                        Off < RegionOff + static_cast<int64_t>(RegionLen);
        if (Overlaps)
          It = Conf.HeapEffectiveTy.erase(It);
        else
          ++It;
      }
      Conf.HeapEffectiveTy[{Obj, Off}] = Access;
      return true;
    }
    auto It = Conf.HeapEffectiveTy.find({Obj, Off});
    if (It == Conf.HeapEffectiveTy.end())
      return true; // untyped (or byte-copied) storage: allowed
    const Type *Eff = It->second;
    if (Eff == Access || sameSizeIntegers(Eff, Access, Ctx.Types) ||
        Ctx.Types.compatible(QualType(Eff), QualType(Access)))
      return true;
    flagUb(UbKind::StrictAliasingViolation, Loc);
    return false;
  }
  if (Object->DeclTy.isNull())
    return true;
  uint64_t Len = Ctx.Types.sizeOf(Ty);
  const Type *Declared = layoutTypeAt(Object->DeclTy, static_cast<uint64_t>(Off),
                                      Len);
  if (!Declared) {
    flagUb(UbKind::StrictAliasingViolation, Loc);
    return false;
  }
  if (Declared->Kind == TypeKind::Union)
    return true;
  if (Declared == Access || sameSizeIntegers(Declared, Access, Ctx.Types) ||
      Ctx.Types.compatible(QualType(Declared), QualType(Access)))
    return true;
  flagUb(UbKind::StrictAliasingViolation, Loc);
  return false;
}

//===----------------------------------------------------------------------===//
// Encoding and decoding (paper 4.3.2 / 4.3.3)
//===----------------------------------------------------------------------===//

uint8_t Machine::permissiveByteValue(const Byte &B, uint64_t Addr) const {
  switch (B.K) {
  case Byte::Kind::Concrete:
    return B.Value;
  case Byte::Kind::Unknown:
    // Deterministic garbage: a hash of the address, so reruns agree.
    return static_cast<uint8_t>((Addr * 2654435761u) >> 13);
  case Byte::Kind::PtrFrag: {
    uint64_t Raw = absAddr(B.ptr());
    return static_cast<uint8_t>(Raw >> (8 * B.FragIndex));
  }
  }
  return 0;
}

std::vector<Byte> Machine::encodeValue(const Value &V, uint64_t Size) const {
  std::vector<Byte> Bytes(Size, Byte::concrete(0));
  switch (V.K) {
  case Value::Kind::Int: {
    uint64_t Bits = V.Bits;
    for (uint64_t I = 0; I < Size; ++I)
      Bytes[I] = Byte::concrete(static_cast<uint8_t>(Bits >> (8 * I)));
    return Bytes;
  }
  case Value::Kind::Float: {
    if (Size == 4) {
      float F = static_cast<float>(V.F);
      uint32_t Bits;
      std::memcpy(&Bits, &F, 4);
      for (uint64_t I = 0; I < 4; ++I)
        Bytes[I] = Byte::concrete(static_cast<uint8_t>(Bits >> (8 * I)));
    } else {
      uint64_t Bits;
      std::memcpy(&Bits, &V.F, 8);
      for (uint64_t I = 0; I < Size && I < 8; ++I)
        Bytes[I] = Byte::concrete(static_cast<uint8_t>(Bits >> (8 * I)));
    }
    return Bytes;
  }
  case Value::Kind::Pointer: {
    if (V.Ptr.isNull())
      return Bytes; // all zero
    if (!Opts.PointerBytes || V.Ptr.FromInteger) {
      uint64_t Raw = absAddr(V.Ptr);
      for (uint64_t I = 0; I < Size; ++I)
        Bytes[I] = Byte::concrete(static_cast<uint8_t>(Raw >> (8 * I)));
      return Bytes;
    }
    // subObject fragmentation: the pointer can only be reassembled from
    // the complete, ordered set of its bytes.
    for (uint64_t I = 0; I < Size; ++I)
      Bytes[I] = Byte::ptrFrag(V.Ptr, static_cast<uint8_t>(I),
                               static_cast<uint8_t>(Size));
    return Bytes;
  }
  case Value::Kind::Opaque:
    Bytes[0] = V.Payload;
    return Bytes;
  case Value::Kind::Agg: {
    for (uint64_t I = 0; I < Size && I < V.AggBytes.size(); ++I)
      Bytes[I] = V.AggBytes[I];
    return Bytes;
  }
  case Value::Kind::Empty:
  case Value::Kind::LVal:
    break;
  }
  return Bytes;
}

bool Machine::decodeBytes(const std::vector<Byte> &Bytes, QualType Ty,
                          SourceLoc Loc, Value &Out) {
  const Type *T = Ty.Ty;
  if (T->isRecord() || T->isArray()) {
    Out = Value::makeAgg(T, Bytes);
    return true;
  }
  uint64_t Size = Bytes.size();

  bool AnyUnknown = false, AnyFrag = false, AllConcrete = true;
  for (const Byte &B : Bytes) {
    AnyUnknown |= B.isUnknown();
    AnyFrag |= B.isPtrFrag();
    AllConcrete &= B.isConcrete();
  }

  // Whole-pointer reconstruction (paper 4.3.2).
  if (AnyFrag && !AnyUnknown) {
    bool Complete = Bytes.size() == Bytes[0].FragCount;
    for (uint64_t I = 0; Complete && I < Size; ++I)
      Complete = Bytes[I].isPtrFrag() && Bytes[I].FragIndex == I &&
                 Bytes[I].FragBase == Bytes[0].FragBase &&
                 Bytes[I].FragOffset == Bytes[0].FragOffset;
    if (Complete) {
      if (T->isPointer()) {
        Out = Value::makePointer(T, Bytes[0].ptr());
        return true;
      }
      // Reading pointer bytes through a non-pointer, non-character
      // lvalue: strict machines reject (effective type checks usually
      // fire first); permissive machines see the raw address.
      if (Opts.Strict) {
        flagUb(UbKind::ReadIndeterminateValue, Loc);
        return false;
      }
      uint64_t Raw = absAddr(Bytes[0].ptr());
      Out = Value::makeInt(T, truncateBits(Raw, T, Ctx.Types));
      return true;
    }
  }

  // Character reads may carry any byte opaquely (paper 4.3.3: the
  // unsigned-character exemption).
  if (Size == 1 && (AnyUnknown || AnyFrag)) {
    if (!Opts.Strict || !Opts.UnknownBytes) {
      Out = Value::makeInt(T, permissiveByteValue(Bytes[0], 0));
      return true;
    }
    if (T->Kind == TypeKind::UChar ||
        (T->Kind == TypeKind::Char && !Ctx.Types.config().CharIsSigned)) {
      Out = Value::makeOpaque(T, Bytes[0]);
      return true;
    }
    flagUb(UbKind::ReadIndeterminateValue, Loc);
    return false;
  }

  if (AnyUnknown || AnyFrag) {
    if (Opts.Strict && Opts.UnknownBytes) {
      flagUb(UbKind::ReadIndeterminateValue, Loc);
      return false;
    }
    // Permissive: deterministic garbage per byte.
    uint64_t Bits = 0;
    for (uint64_t I = 0; I < Size && I < 8; ++I)
      Bits |= static_cast<uint64_t>(permissiveByteValue(Bytes[I], I))
              << (8 * I);
    if (T->isFloating()) {
      Out = Value::makeFloat(T, 0.0);
      return true;
    }
    if (T->isPointer()) {
      Out = Value::makePointer(T, SymPointer::fromInteger(Bits));
      return true;
    }
    Out = Value::makeInt(T, truncateBits(Bits, T, Ctx.Types));
    return true;
  }

  // All concrete.
  uint64_t Bits = 0;
  for (uint64_t I = 0; I < Size && I < 8; ++I)
    Bits |= static_cast<uint64_t>(Bytes[I].Value) << (8 * I);
  if (T->isFloating()) {
    double D;
    if (Ctx.Types.sizeOf(QualType(T)) == 4) {
      float F;
      uint32_t B32 = static_cast<uint32_t>(Bits);
      std::memcpy(&F, &B32, 4);
      D = F;
    } else {
      std::memcpy(&D, &Bits, 8);
    }
    Out = Value::makeFloat(T, D);
    return true;
  }
  if (T->isPointer()) {
    Out = Value::makePointer(T, Bits == 0 ? SymPointer::null()
                                          : SymPointer::fromInteger(Bits));
    return true;
  }
  Out = Value::makeInt(T, truncateBits(Bits, T, Ctx.Types));
  return true;
}

//===----------------------------------------------------------------------===//
// Load / store
//===----------------------------------------------------------------------===//

bool Machine::loadScalar(SymPointer Ptr, QualType Ty, SourceLoc Loc,
                         Value &Out) {
  for (ExecMonitor *M : Monitors)
    M->onRead(*this, Ptr, Ty, Loc);
  if (Opts.Strict && Opts.Style == RuleStyle::Declarative &&
      Conf.Status != RunStatus::Running)
    return false;
  uint64_t Len = Ctx.Types.sizeOf(Ty);
  ResolvedLoc R = Opts.Strict ? resolveStrict(Ptr, Len, Loc, false)
                              : resolvePermissive(Ptr, Len, Loc);
  if (!R.Ok)
    return false;
  if (!sequencingReadCheck(R.Obj, R.Offset, Len, Loc))
    return false;
  if (!effectiveTypeCheck(R.Obj, R.Offset, Ty, Loc, /*IsWrite=*/false))
    return false;
  std::vector<Byte> Bytes(Len);
  for (uint64_t I = 0; I < Len; ++I)
    Conf.Mem.readByte(R.Obj, R.Offset + static_cast<int64_t>(I), Bytes[I]);
  if (!Opts.Strict) {
    // Attach addresses for deterministic garbage.
    const MemObject *Obj = Conf.Mem.find(R.Obj);
    uint64_t Base = Obj->ConcreteAddr + static_cast<uint64_t>(R.Offset);
    for (uint64_t I = 0; I < Len; ++I)
      if (Bytes[I].isUnknown())
        Bytes[I] = Byte::concrete(permissiveByteValue(Bytes[I], Base + I));
  }
  return decodeBytes(Bytes, Ty, Loc, Out);
}

bool Machine::storeScalar(SymPointer Ptr, QualType Ty, const Value &V,
                          SourceLoc Loc, bool IsInit) {
  for (ExecMonitor *M : Monitors)
    M->onWrite(*this, Ptr, Ty, V, Loc);
  if (Opts.Strict && Opts.Style == RuleStyle::Declarative &&
      Conf.Status != RunStatus::Running)
    return false;
  uint64_t Len = Ctx.Types.sizeOf(Ty);
  ResolvedLoc R = Opts.Strict ? resolveStrict(Ptr, Len, Loc, true)
                              : resolvePermissive(Ptr, Len, Loc);
  if (!R.Ok)
    return false;
  if (!IsInit) {
    if (!constWriteCheck(R.Obj, R.Offset, Len, Loc))
      return false;
    if (!sequencingWriteCheck(R.Obj, R.Offset, Len, Loc))
      return false;
    if (!effectiveTypeCheck(R.Obj, R.Offset, Ty, Loc, /*IsWrite=*/true))
      return false;
  }
  std::vector<Byte> Bytes = encodeValue(V, Len);
  if (!Opts.UnknownBytes) {
    for (Byte &B : Bytes)
      if (B.isUnknown())
        B = Byte::concrete(0xCD);
  }
  for (uint64_t I = 0; I < Len; ++I)
    Conf.Mem.writeByte(R.Obj, R.Offset + static_cast<int64_t>(I), Bytes[I]);
  return true;
}

bool Machine::loadAgg(SymPointer Ptr, QualType Ty, SourceLoc Loc,
                      Value &Out) {
  for (ExecMonitor *M : Monitors)
    M->onRead(*this, Ptr, Ty, Loc);
  uint64_t Len = Ctx.Types.sizeOf(Ty);
  ResolvedLoc R = Opts.Strict ? resolveStrict(Ptr, Len, Loc, false)
                              : resolvePermissive(Ptr, Len, Loc);
  if (!R.Ok)
    return false;
  if (!sequencingReadCheck(R.Obj, R.Offset, Len, Loc))
    return false;
  // Copying a whole object copies unknown bytes and padding without
  // error (paper 4.3.3).
  std::vector<Byte> Bytes(Len);
  for (uint64_t I = 0; I < Len; ++I)
    Conf.Mem.readByte(R.Obj, R.Offset + static_cast<int64_t>(I), Bytes[I]);
  Out = Value::makeAgg(Ty.Ty, std::move(Bytes));
  return true;
}

bool Machine::storeAgg(SymPointer Ptr, QualType Ty, const Value &V,
                       SourceLoc Loc, bool IsInit) {
  for (ExecMonitor *M : Monitors)
    M->onWrite(*this, Ptr, Ty, V, Loc);
  uint64_t Len = Ctx.Types.sizeOf(Ty);
  ResolvedLoc R = Opts.Strict ? resolveStrict(Ptr, Len, Loc, true)
                              : resolvePermissive(Ptr, Len, Loc);
  if (!R.Ok)
    return false;
  if (!IsInit) {
    if (!constWriteCheck(R.Obj, R.Offset, Len, Loc))
      return false;
    if (!sequencingWriteCheck(R.Obj, R.Offset, Len, Loc))
      return false;
  }
  std::vector<Byte> Bytes = encodeValue(V, Len);
  for (uint64_t I = 0; I < Len; ++I)
    Conf.Mem.writeByte(R.Obj, R.Offset + static_cast<int64_t>(I), Bytes[I]);
  return true;
}

uint32_t Machine::allocHeap(uint64_t Size) {
  // The modelled heap refuses absurd requests (real malloc returns
  // NULL); 16 MiB is far beyond anything the corpora allocate.
  if (Size > (1ull << 24))
    return 0;
  uint32_t Id = Conf.Mem.create(StorageKind::Heap, Size, QualType(),
                                NoSymbol);
  for (ExecMonitor *M : Monitors)
    M->onAlloc(*this, *Conf.Mem.find(Id));
  return Id;
}

void Machine::runFree(const Value &PtrVal, SourceLoc Loc) {
  if (!PtrVal.isPointer()) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  SymPointer Ptr = PtrVal.Ptr;
  if (Ptr.isNull())
    return; // free(NULL) is a no-op (C11 7.22.3.3p2)

  uint32_t Target = 0;
  bool Valid = false;
  UbKind Kind = UbKind::FreeInvalidPointer;
  if (!Ptr.FromInteger) {
    const MemObject *Obj = Conf.Mem.find(Ptr.Base);
    if (Obj) {
      Target = Ptr.Base;
      if (Obj->Storage != StorageKind::Heap) {
        Kind = UbKind::FreeInvalidPointer;
      } else if (Obj->State == ObjectState::Freed) {
        Kind = UbKind::DoubleFree;
      } else if (Ptr.Offset != 0) {
        Kind = UbKind::FreeInvalidPointer; // not the start of the block
      } else {
        Valid = true;
      }
    }
  }
  for (ExecMonitor *M : Monitors)
    M->onFree(*this, Ptr, Target, Valid);
  if (!Valid) {
    if (Opts.Strict) {
      flagUb(Kind, Loc);
      return;
    }
    // Modelled libc: an invalid free corrupts silently; keep running.
    return;
  }
  Conf.Mem.markFreed(Target);
}

Value Machine::convertForMachine(const Value &V, const Type *To,
                                 SourceLoc Loc) {
  if (V.Ty == To || !To)
    return V;
  if (V.isAgg() || V.isEmpty() || V.isLValue())
    return V;
  if (V.isOpaque()) {
    if (To->isCharacter())
      return V; // still an opaque byte under a character type
    flagUb(UbKind::ReadIndeterminateValue, Loc);
    return Value::makeInt(To, 0);
  }
  CastKind CK;
  if (To->isBool())
    CK = CastKind::ToBool;
  else if (V.isInt() && To->isIntegral())
    CK = CastKind::IntegralCast;
  else if (V.isInt() && To->isFloating())
    CK = CastKind::IntToFloat;
  else if (V.isFloat() && To->isIntegral())
    CK = CastKind::FloatToInt;
  else if (V.isFloat() && To->isFloating())
    CK = CastKind::FloatCast;
  else if (V.isPointer() && To->isPointer())
    CK = CastKind::PointerCast;
  else if (V.isInt() && To->isPointer())
    CK = CastKind::IntToPointer;
  else if (V.isPointer() && To->isIntegral()) {
    return Value::makeInt(To, truncateBits(absAddr(V.Ptr), To, Ctx.Types));
  } else {
    // A shape mismatch a NoProto call cannot reconcile (UB 22).
    flagUb(UbKind::CallTypeMismatch, Loc);
    return Value::makeInt(Ctx.Types.intTy(), 0);
  }
  ConvOutcome Out = convertScalar(V, To, CK, Ctx.Types);
  if (Out.FloatToIntOverflow && Opts.Strict)
    flagUb(UbKind::FloatToIntOverflow, Loc);
  return Out.V;
}

//===----------------------------------------------------------------------===//
// Rule chains (paper section 4.5.1)
//===----------------------------------------------------------------------===//

namespace {

struct RuleChains {
  RuleChain Deref;
  RuleChain Div;
};

RuleChains buildRuleChains() {
  RuleChains Chains;
  // Division: the positive rule first, negative refinements after.
  // Chains are applied newest-first, so the negative rules win -- the
  // paper's "later rules must be applied before earlier rules".
  Chains.Div.add("div-int", [](Machine &M, RuleContext &RC) {
    const TypeContext &Types = M.ast().Types;
    const Type *Ty = RC.Operand0.Ty;
    ArithOutcome Out = evalIntBinary(BinaryOp::Div, RC.Operand0,
                                     RC.Operand1, Ty, Types);
    RC.Result = Out.V;
    RC.ProducedResult = true;
    return true;
  });
  Chains.Div.add("div-overflow", [](Machine &M, RuleContext &RC) {
    const TypeContext &Types = M.ast().Types;
    if (RC.Operand0.Ty->isUnsignedInteger(Types.config()))
      return false;
    if (RC.Operand1.asUnsigned(Types) == 0)
      return false; // let div-by-zero match
    if (!(RC.Operand0.asSigned(Types) == Types.minValueOf(RC.Operand0.Ty) &&
          RC.Operand1.asSigned(Types) == -1))
      return false;
    M.flagUb(UbKind::SignedOverflow, RC.Loc);
    return true;
  });
  Chains.Div.add("div-by-zero", [](Machine &M, RuleContext &RC) {
    const TypeContext &Types = M.ast().Types;
    if (RC.Operand1.asUnsigned(Types) != 0)
      return false;
    M.flagUb(UbKind::DivisionByZero, RC.Loc);
    return true;
  });

  // Dereference: the plain deref rule first (the paper's deref), then
  // the refinements; registration order is bounds < lifetime < forged <
  // null < void so that application order is void, null, forged,
  // lifetime, bounds, deref.
  Chains.Deref.add("deref", [](Machine &M, RuleContext &RC) {
    (void)M;
    RC.ProducedResult = true; // [L] : T
    return true;
  });
  Chains.Deref.add("deref-neg-bounds", [](Machine &M, RuleContext &RC) {
    const MemObject *Obj = M.config().Mem.find(RC.Operand0.Ptr.Base);
    if (!Obj)
      return false;
    QualType Pointee = RC.Operand0.Ty->Pointee;
    uint64_t Len = Pointee.Ty->isCompleteObjectType()
                       ? M.ast().Types.sizeOf(Pointee)
                       : 1;
    int64_t Off = RC.Operand0.Ptr.Offset;
    if (Off >= 0 && static_cast<uint64_t>(Off) + Len <= Obj->Size)
      return false;
    M.flagUb(Obj->Size == 0 ? UbKind::ZeroSizeAllocationUse
             : static_cast<uint64_t>(Off) == Obj->Size
                 ? UbKind::DerefOnePastEnd
                 : UbKind::ReadOutOfBounds,
             RC.Loc);
    return true;
  });
  Chains.Deref.add("deref-neg-lifetime", [](Machine &M, RuleContext &RC) {
    if (RC.Operand0.Ptr.Base == 0)
      return false; // null/forged handled by later (earlier-applied) rules
    const MemObject *Obj = M.config().Mem.find(RC.Operand0.Ptr.Base);
    if (!Obj) {
      M.flagUb(UbKind::DerefDanglingPointer, RC.Loc);
      return true;
    }
    if (Obj->State == ObjectState::Freed) {
      M.flagUb(UbKind::UseAfterFree, RC.Loc);
      return true;
    }
    if (Obj->State == ObjectState::Dead) {
      M.flagUb(UbKind::AccessDeadObject, RC.Loc);
      return true;
    }
    return false;
  });
  Chains.Deref.add("deref-neg-forged", [](Machine &M, RuleContext &RC) {
    if (!RC.Operand0.Ptr.FromInteger)
      return false;
    M.flagUb(UbKind::DerefDanglingPointer, RC.Loc);
    return true;
  });
  Chains.Deref.add("deref-neg-null", [](Machine &M, RuleContext &RC) {
    if (!RC.Operand0.Ptr.isNull())
      return false;
    M.flagUb(UbKind::DerefNullPointer, RC.Loc);
    return true;
  });
  Chains.Deref.add("deref-neg-void", [](Machine &M, RuleContext &RC) {
    if (!RC.Operand0.Ty->Pointee.Ty ||
        !RC.Operand0.Ty->Pointee.Ty->isVoid())
      return false;
    M.flagUb(UbKind::DerefVoidPointer, RC.Loc);
    return true;
  });
  return Chains;
}

const RuleChains &ruleChains() {
  static const RuleChains Chains = buildRuleChains();
  return Chains;
}

} // namespace

const RuleChain &Machine::derefChain() { return ruleChains().Deref; }
const RuleChain &Machine::divChain() { return ruleChains().Div; }

//===----------------------------------------------------------------------===//
// Raw byte helpers for the library builtins
//===----------------------------------------------------------------------===//

bool Machine::copyBytes(SymPointer Dst, SymPointer Src, uint64_t Len,
                        SourceLoc Loc, bool CheckOverlap) {
  if (Len == 0)
    return true;
  ResolvedLoc SrcR = Opts.Strict ? resolveStrict(Src, Len, Loc, false)
                                 : resolvePermissive(Src, Len, Loc);
  if (!SrcR.Ok)
    return false;
  ResolvedLoc DstR = Opts.Strict ? resolveStrict(Dst, Len, Loc, true)
                                 : resolvePermissive(Dst, Len, Loc);
  if (!DstR.Ok)
    return false;
  if (CheckOverlap && Opts.Strict && SrcR.Obj == DstR.Obj) {
    int64_t A = SrcR.Offset, B = DstR.Offset;
    int64_t L = static_cast<int64_t>(Len);
    if (A < B + L && B < A + L) {
      flagUb(UbKind::MemcpyOverlap, Loc);
      return false;
    }
  }
  if (!constWriteCheck(DstR.Obj, DstR.Offset, Len, Loc))
    return false;
  if (!sequencingWriteCheck(DstR.Obj, DstR.Offset, Len, Loc))
    return false;
  // Copy through a temporary so overlapping memmove behaves.
  std::vector<Byte> Buffer(Len);
  for (uint64_t I = 0; I < Len; ++I)
    Conf.Mem.readByte(SrcR.Obj, SrcR.Offset + static_cast<int64_t>(I),
                      Buffer[I]);
  for (uint64_t I = 0; I < Len; ++I)
    Conf.Mem.writeByte(DstR.Obj, DstR.Offset + static_cast<int64_t>(I),
                       Buffer[I]);
  return true;
}

bool Machine::setBytes(SymPointer Dst, uint8_t Value, uint64_t Len,
                       SourceLoc Loc) {
  if (Len == 0)
    return true;
  ResolvedLoc R = Opts.Strict ? resolveStrict(Dst, Len, Loc, true)
                              : resolvePermissive(Dst, Len, Loc);
  if (!R.Ok)
    return false;
  if (!constWriteCheck(R.Obj, R.Offset, Len, Loc))
    return false;
  if (!sequencingWriteCheck(R.Obj, R.Offset, Len, Loc))
    return false;
  for (uint64_t I = 0; I < Len; ++I)
    Conf.Mem.writeByte(R.Obj, R.Offset + static_cast<int64_t>(I),
                       Byte::concrete(Value));
  return true;
}

bool Machine::readCString(SymPointer Ptr, std::string &Out, SourceLoc Loc) {
  Out.clear();
  for (uint64_t I = 0;; ++I) {
    SymPointer At = Ptr;
    At.Offset += static_cast<int64_t>(I);
    ResolvedLoc R = Opts.Strict ? resolveStrict(At, 1, Loc, false)
                                : resolvePermissive(At, 1, Loc);
    if (!R.Ok) {
      // Walking off the end of the object: the argument was not a
      // string (UB 33) -- already reported as an out-of-bounds read.
      return false;
    }
    Byte B;
    Conf.Mem.readByte(R.Obj, R.Offset, B);
    if (Opts.Strict && Opts.UnknownBytes && !B.isConcrete()) {
      flagUb(UbKind::ReadIndeterminateValue, Loc);
      return false;
    }
    uint8_t Ch = B.isConcrete()
                     ? B.Value
                     : permissiveByteValue(
                           B, absAddr(At));
    if (Ch == 0)
      return true;
    Out += static_cast<char>(Ch);
    if (I > (1u << 20)) { // defensive bound
      flagUb(UbKind::StringFunctionBadArgument, Loc);
      return false;
    }
  }
}
