//===- mem/SymbolicMemory.cpp - The mem cell --------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "mem/SymbolicMemory.h"

#include <cassert>

using namespace cundef;

namespace {

/// Per-byte item hash for the commutative object digest: position and
/// content are mixed to full avalanche so that summing items cannot
/// cancel structured patterns (e.g. swapping two equal bytes, or the
/// same byte at two offsets).
uint64_t byteItemHash(uint32_t Id, uint64_t Offset, const Byte &B) {
  uint64_t Content = static_cast<uint64_t>(B.K);
  switch (B.K) {
  case Byte::Kind::Unknown:
    break;
  case Byte::Kind::Concrete:
    Content ^= static_cast<uint64_t>(B.Value) << 8;
    break;
  case Byte::Kind::PtrFrag:
    Content ^= mix64((static_cast<uint64_t>(B.Ptr.Base) << 32) ^
                     static_cast<uint64_t>(B.Ptr.Offset)) ^
               (static_cast<uint64_t>(B.Ptr.FromInteger) << 1) ^
               mix64(B.Ptr.RawInt ^ 0x9e3779b97f4a7c15ull) ^
               (static_cast<uint64_t>(B.FragIndex) << 16) ^
               (static_cast<uint64_t>(B.FragCount) << 24);
    break;
  }
  return mix64((static_cast<uint64_t>(Id) * 0x9e3779b97f4a7c15ull) ^
               (Offset + 1) ^ (Content << 20) ^ mix64(Content));
}

/// Metadata contribution of an object (everything but its bytes).
uint64_t metaHash(const MemObject &Obj) {
  Fnv1a H;
  H.u32(Obj.Id);
  H.u8(static_cast<uint8_t>(Obj.Storage));
  H.u8(static_cast<uint8_t>(Obj.State));
  H.u64(Obj.Size);
  if (Obj.isAlive()) {
    H.ptr(Obj.DeclTy.Ty);
    H.u8(Obj.DeclTy.Quals);
    H.u32(Obj.Name);
    H.u64(Obj.ConcreteAddr);
    H.ptr(Obj.Fn);
  }
  return mix64(H.digest());
}

} // namespace

uint64_t SymbolicMemory::assignAddress(StorageKind Storage, uint64_t Size) {
  auto AlignUp = [](uint64_t Value, uint64_t Align) {
    return (Value + Align - 1) / Align * Align;
  };
  switch (Storage) {
  case StorageKind::Global:
  case StorageKind::StaticLocal: {
    uint64_t Addr = AlignUp(GlobalCursor, 8);
    GlobalCursor = Addr + Size;
    return Addr;
  }
  case StorageKind::Function: {
    uint64_t Addr = AlignUp(FunctionCursor, 16);
    FunctionCursor = Addr + (Size ? Size : 1);
    return Addr;
  }
  case StorageKind::Literal: {
    uint64_t Addr = LiteralCursor;
    LiteralCursor = Addr + Size;
    return Addr;
  }
  case StorageKind::Heap: {
    uint64_t Addr = AlignUp(HeapCursor, 16);
    HeapCursor = Addr + (Size ? Size : 1);
    return Addr;
  }
  case StorageKind::Auto: {
    // The stack grows downward; keep objects contiguous so that the
    // permissive machine reproduces real stack-smashing behavior.
    StackCursor -= Size;
    StackCursor &= ~uint64_t(7); // 8-byte alignment
    return StackCursor;
  }
  }
  return 0;
}

uint32_t SymbolicMemory::create(StorageKind Storage, uint64_t Size,
                                QualType DeclTy, Symbol Name) {
  uint32_t Id = static_cast<uint32_t>(Objects.size() + 1);
  auto Obj = std::make_shared<MemObject>();
  Obj->Id = Id;
  Obj->Storage = Storage;
  Obj->Size = Size;
  Obj->DeclTy = DeclTy;
  Obj->Name = Name;
  Obj->ConcreteAddr = assignAddress(Storage, Size);
  Obj->Bytes.assign(Size, Byte::unknown());
  Objects.push_back(std::move(Obj));
  return Id;
}

uint32_t SymbolicMemory::createFunction(const FunctionDecl *Fn, Symbol Name) {
  uint32_t Id = create(StorageKind::Function, 1, QualType(), Name);
  mutate(Id)->Fn = Fn;
  return Id;
}

MemObject *SymbolicMemory::owned(std::shared_ptr<MemObject> &Slot) {
  if (Slot.use_count() > 1)
    Slot = std::make_shared<MemObject>(*Slot); // copy-on-write clone
  return Slot.get();
}

void SymbolicMemory::markDead(uint32_t Id) {
  MemObject *Obj = mutate(Id);
  assert(Obj && "killing unknown object");
  Obj->State = ObjectState::Dead;
}

void SymbolicMemory::markFreed(uint32_t Id) {
  MemObject *Obj = mutate(Id);
  assert(Obj && "freeing unknown object");
  Obj->State = ObjectState::Freed;
}

const MemObject *SymbolicMemory::find(uint32_t Id) const {
  // Id 0 wraps to UINT32_MAX, past any table.
  return Id - 1 < Objects.size() ? Objects[Id - 1].get() : nullptr;
}

MemObject *SymbolicMemory::mutate(uint32_t Id) {
  if (Id - 1 >= Objects.size())
    return nullptr;
  MemObject *Obj = owned(Objects[Id - 1]);
  Obj->DigestValid = false;
  return Obj;
}

MemStatus SymbolicMemory::probe(uint32_t Id, int64_t Offset,
                                uint64_t Len) const {
  const MemObject *Obj = find(Id);
  if (!Obj)
    return MemStatus::NoObject;
  if (Obj->State == ObjectState::Freed)
    return MemStatus::Freed;
  if (Obj->State == ObjectState::Dead)
    return MemStatus::Dead;
  if (Offset < 0 || static_cast<uint64_t>(Offset) + Len > Obj->Size)
    return MemStatus::OutOfBounds;
  return MemStatus::Ok;
}

MemStatus SymbolicMemory::readByte(uint32_t Id, int64_t Offset,
                                   Byte &Out) const {
  MemStatus Status = probe(Id, Offset, 1);
  if (Status != MemStatus::Ok)
    return Status;
  Out = find(Id)->Bytes[static_cast<size_t>(Offset)];
  return MemStatus::Ok;
}

MemStatus SymbolicMemory::writeByte(uint32_t Id, int64_t Offset,
                                    const Byte &In) {
  MemStatus Status = probe(Id, Offset, 1);
  if (Status != MemStatus::Ok)
    return Status;
  MemObject *Obj = owned(Objects[Id - 1]);
  Byte &Slot = Obj->Bytes[static_cast<size_t>(Offset)];
  // Keep the cached digest current by delta instead of invalidating:
  // the digest is a plain sum over per-byte item hashes, so one write
  // is one subtraction and one addition.
  if (Obj->DigestValid)
    Obj->Digest += byteItemHash(Id, static_cast<uint64_t>(Offset), In) -
                   byteItemHash(Id, static_cast<uint64_t>(Offset), Slot);
  Slot = In;
  return MemStatus::Ok;
}

uint32_t SymbolicMemory::findByAddress(uint64_t Addr,
                                       int64_t &OffsetOut) const {
  // Linear scan is acceptable: the permissive machine is used on small
  // generated tests, and correctness of the model matters more here
  // than lookup speed.
  for (const auto &Obj : Objects) {
    if (Addr >= Obj->ConcreteAddr && Addr < Obj->ConcreteAddr + Obj->Size) {
      OffsetOut = static_cast<int64_t>(Addr - Obj->ConcreteAddr);
      return Obj->Id;
    }
  }
  return 0;
}

unsigned SymbolicMemory::countAlive(StorageKind Storage) const {
  unsigned Count = 0;
  for (const auto &Obj : Objects)
    if (Obj->Storage == Storage && Obj->isAlive())
      ++Count;
  return Count;
}

uint64_t SymbolicMemory::computeDigest(const MemObject &Obj) {
  uint64_t Sum = metaHash(Obj);
  if (!Obj.isAlive())
    return Sum; // see the declaration: tombstone content is unreadable
  for (uint64_t I = 0; I < Obj.Bytes.size(); ++I)
    Sum += byteItemHash(Obj.Id, I, Obj.Bytes[I]);
  return Sum;
}

void SymbolicMemory::hashInto(Fnv1a &H, bool Full) const {
  H.u32(static_cast<uint32_t>(Objects.size() + 1)); // the next id
  H.u64(GlobalCursor);
  H.u64(FunctionCursor);
  H.u64(LiteralCursor);
  H.u64(HeapCursor);
  H.u64(StackCursor);
  H.u64(Objects.size());
  // Objects are independent, so their digests combine commutatively;
  // each per-object digest is cached and reused until the object is
  // mutated. The Full path recomputes everything and must agree — the
  // equivalence is what makes the cache safe (tests/test_search_fork).
  uint64_t Sum = 0;
  for (const auto &Obj : Objects) {
    if (Full) {
      Sum += computeDigest(*Obj);
      continue;
    }
    if (!Obj->DigestValid) {
      Obj->Digest = computeDigest(*Obj);
      Obj->DigestValid = true;
    }
    Sum += Obj->Digest;
  }
  H.u64(Sum);
}
