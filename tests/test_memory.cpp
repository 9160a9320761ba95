//===- tests/test_memory.cpp - Symbolic memory unit tests ----------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "mem/SymbolicMemory.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

TEST(SymbolicMemory, CreateAndAccess) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Auto, 8, QualType(), NoSymbol);
  ASSERT_NE(Id, 0u);
  const MemObject *Obj = Mem.find(Id);
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->Size, 8u);
  EXPECT_TRUE(Obj->isAlive());
  for (const Byte &B : Obj->Bytes)
    EXPECT_TRUE(B.isUnknown()) << "fresh storage is unknown(N)";
}

TEST(SymbolicMemory, ByteRoundTrip) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  EXPECT_EQ(Mem.writeByte(Id, 2, Byte::concrete(0xAB)), MemStatus::Ok);
  Byte Out;
  EXPECT_EQ(Mem.readByte(Id, 2, Out), MemStatus::Ok);
  EXPECT_TRUE(Out.isConcrete());
  EXPECT_EQ(Out.Value, 0xAB);
}

TEST(SymbolicMemory, BoundsChecked) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Auto, 4, QualType(), NoSymbol);
  Byte Out;
  EXPECT_EQ(Mem.readByte(Id, 4, Out), MemStatus::OutOfBounds);
  EXPECT_EQ(Mem.readByte(Id, -1, Out), MemStatus::OutOfBounds);
  EXPECT_EQ(Mem.probe(Id, 0, 5), MemStatus::OutOfBounds);
  EXPECT_EQ(Mem.probe(Id, 0, 4), MemStatus::Ok);
}

TEST(SymbolicMemory, LifetimeStates) {
  SymbolicMemory Mem;
  uint32_t Stack = Mem.create(StorageKind::Auto, 4, QualType(), NoSymbol);
  uint32_t Heap = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  Mem.markDead(Stack);
  Mem.markFreed(Heap);
  Byte Out;
  EXPECT_EQ(Mem.readByte(Stack, 0, Out), MemStatus::Dead);
  EXPECT_EQ(Mem.readByte(Heap, 0, Out), MemStatus::Freed);
  EXPECT_EQ(Mem.readByte(999, 0, Out), MemStatus::NoObject);
}

TEST(SymbolicMemory, TombstonesKeepBytes) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Heap, 2, QualType(), NoSymbol);
  Mem.writeByte(Id, 0, Byte::concrete(7));
  Mem.markFreed(Id);
  // The permissive machine still finds the object by address.
  const MemObject *Obj = Mem.find(Id);
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->Bytes[0].Value, 7);
}

TEST(SymbolicMemory, DistinctAddressRegions) {
  SymbolicMemory Mem;
  uint32_t Global = Mem.create(StorageKind::Global, 16, QualType(), NoSymbol);
  uint32_t Heap = Mem.create(StorageKind::Heap, 16, QualType(), NoSymbol);
  uint32_t Stack = Mem.create(StorageKind::Auto, 16, QualType(), NoSymbol);
  uint64_t G = Mem.find(Global)->ConcreteAddr;
  uint64_t H = Mem.find(Heap)->ConcreteAddr;
  uint64_t S = Mem.find(Stack)->ConcreteAddr;
  EXPECT_LT(G, H);
  EXPECT_LT(H, S);
}

TEST(SymbolicMemory, StackGrowsDownContiguously) {
  SymbolicMemory Mem;
  uint32_t First = Mem.create(StorageKind::Auto, 8, QualType(), NoSymbol);
  uint32_t Second = Mem.create(StorageKind::Auto, 8, QualType(), NoSymbol);
  EXPECT_GT(Mem.find(First)->ConcreteAddr, Mem.find(Second)->ConcreteAddr)
      << "later stack objects sit at lower addresses";
  // Overflowing the second object reaches the first: the stack-smash
  // model the permissive machine relies on.
  uint64_t Gap = Mem.find(First)->ConcreteAddr -
                 (Mem.find(Second)->ConcreteAddr + 8);
  EXPECT_LT(Gap, 8u);
}

TEST(SymbolicMemory, FindByAddress) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Heap, 10, QualType(), NoSymbol);
  uint64_t Addr = Mem.find(Id)->ConcreteAddr;
  int64_t Off = -1;
  EXPECT_EQ(Mem.findByAddress(Addr + 3, Off), Id);
  EXPECT_EQ(Off, 3);
  EXPECT_EQ(Mem.findByAddress(Addr + 10, Off), 0u) << "one past: no object";
  EXPECT_EQ(Mem.findByAddress(0, Off), 0u) << "null page unmapped";
}

TEST(SymbolicMemory, CountAlive) {
  SymbolicMemory Mem;
  uint32_t A = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  EXPECT_EQ(Mem.countAlive(StorageKind::Heap), 2u);
  Mem.markFreed(A);
  EXPECT_EQ(Mem.countAlive(StorageKind::Heap), 1u);
}

TEST(SymbolicMemory, UnallocatedIdsHaveNoObject) {
  // The table is indexed by id - 1: id 0 (null) and ids past the last
  // allocation must miss, not wrap or read past the end.
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  Byte Out;
  for (uint32_t Missing : {0u, Id + 1, 999u, UINT32_MAX}) {
    EXPECT_EQ(Mem.find(Missing), nullptr) << Missing;
    EXPECT_EQ(Mem.mutate(Missing), nullptr) << Missing;
    EXPECT_EQ(Mem.probe(Missing, 0, 1), MemStatus::NoObject) << Missing;
    EXPECT_EQ(Mem.readByte(Missing, 0, Out), MemStatus::NoObject) << Missing;
    EXPECT_EQ(Mem.writeByte(Missing, 0, Byte::concrete(1)),
              MemStatus::NoObject)
        << Missing;
  }
  EXPECT_EQ(Mem.objects().size(), 1u) << "misses allocate nothing";
}

TEST(SymbolicMemory, WriteAfterCopyLeavesOriginal) {
  SymbolicMemory Mem;
  uint32_t A = Mem.create(StorageKind::Global, 4, QualType(), NoSymbol);
  uint32_t B = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  Mem.writeByte(A, 0, Byte::concrete(1));
  SymbolicMemory Copy = Mem;
  EXPECT_EQ(Copy.find(A), Mem.find(A)) << "a copy shares every object";
  EXPECT_EQ(Copy.writeByte(A, 0, Byte::concrete(2)), MemStatus::Ok);
  Copy.mutate(B)->Bytes[1] = Byte::concrete(3);
  Copy.markFreed(B);
  Copy.create(StorageKind::Heap, 8, QualType(), NoSymbol);

  Byte Out;
  ASSERT_EQ(Mem.readByte(A, 0, Out), MemStatus::Ok);
  EXPECT_EQ(Out.Value, 1) << "writeByte cloned the shared object";
  ASSERT_EQ(Mem.readByte(B, 1, Out), MemStatus::Ok);
  EXPECT_TRUE(Out.isUnknown()) << "mutate cloned the shared object";
  EXPECT_EQ(Mem.objects().size(), 2u);
  ASSERT_EQ(Copy.readByte(A, 0, Out), MemStatus::Ok);
  EXPECT_EQ(Out.Value, 2);
  EXPECT_EQ(Copy.readByte(B, 1, Out), MemStatus::Freed);
}

TEST(SymbolicMemory, IncrementalHashEqualsFullAfterCopies) {
  SymbolicMemory Mem;
  uint32_t A = Mem.create(StorageKind::Global, 16, QualType(), NoSymbol);
  uint32_t B = Mem.create(StorageKind::Auto, 8, QualType(), NoSymbol);
  Mem.writeByte(A, 3, Byte::concrete(7));
  auto Hash = [](const SymbolicMemory &M, bool Full) {
    Fnv1a H;
    M.hashInto(H, Full);
    return H.digest();
  };
  const uint64_t Before = Hash(Mem, false); // fills the digest caches
  SymbolicMemory Copy = Mem;
  EXPECT_EQ(Hash(Copy, false), Before);

  // Write on both sides: byte deltas, a mutate, a kill and a new object.
  Mem.writeByte(A, 3, Byte::concrete(8));
  Mem.markDead(B);
  Copy.writeByte(A, 5, Byte::concrete(9));
  Copy.mutate(B)->Bytes[0] = Byte::concrete(4);
  Copy.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  for (const SymbolicMemory *M : {&Mem, &Copy})
    EXPECT_EQ(Hash(*M, false), Hash(*M, true));
  EXPECT_NE(Hash(Mem, false), Hash(Copy, false));
  EXPECT_NE(Hash(Mem, false), Before);
}

TEST(SymbolicMemory, ScansFollowIdOrder) {
  // findByAddress and countAlive scan the table in id order, on the
  // original and on a copy alike; dead and freed objects still resolve
  // by address but no longer count as alive.
  SymbolicMemory Mem;
  uint32_t G = Mem.create(StorageKind::Global, 8, QualType(), NoSymbol);
  uint32_t H1 = Mem.create(StorageKind::Heap, 8, QualType(), NoSymbol);
  uint32_t S = Mem.create(StorageKind::Auto, 8, QualType(), NoSymbol);
  uint32_t H2 = Mem.create(StorageKind::Heap, 8, QualType(), NoSymbol);
  Mem.markFreed(H1);
  Mem.markDead(S);
  SymbolicMemory Copy = Mem;
  for (const SymbolicMemory *M : {&Mem, &Copy}) {
    ASSERT_EQ(M->objects().size(), 4u);
    for (size_t I = 0; I < M->objects().size(); ++I)
      EXPECT_EQ(M->objects()[I]->Id, I + 1);
    for (uint32_t Id : {G, H1, S, H2}) {
      int64_t Off = -1;
      EXPECT_EQ(M->findByAddress(M->find(Id)->ConcreteAddr + 5, Off), Id);
      EXPECT_EQ(Off, 5);
    }
    EXPECT_EQ(M->countAlive(StorageKind::Heap), 1u);
    EXPECT_EQ(M->countAlive(StorageKind::Auto), 0u);
    EXPECT_EQ(M->countAlive(StorageKind::Global), 1u);
  }
}

TEST(Byte, Factories) {
  Byte U = Byte::unknown();
  EXPECT_TRUE(U.isUnknown());
  Byte C = Byte::concrete(42);
  EXPECT_TRUE(C.isConcrete());
  EXPECT_EQ(C.Value, 42);
  SymPointer P(7, 3);
  Byte F = Byte::ptrFrag(P, 1, 8);
  EXPECT_TRUE(F.isPtrFrag());
  EXPECT_EQ(F.Ptr, P);
  EXPECT_EQ(F.FragIndex, 1);
  EXPECT_EQ(F.FragCount, 8);
}

TEST(SymPointer, NullAndForged) {
  SymPointer Null = SymPointer::null();
  EXPECT_TRUE(Null.isNull());
  SymPointer Forged = SymPointer::fromInteger(0x1000);
  EXPECT_FALSE(Forged.isNull());
  EXPECT_TRUE(Forged.FromInteger);
  EXPECT_NE(Null, Forged);
  SymPointer Obj(3, 4);
  EXPECT_FALSE(Obj.isNull());
  EXPECT_EQ(Obj, SymPointer(3, 4));
  EXPECT_NE(Obj, SymPointer(3, 5));
  EXPECT_NE(Obj, SymPointer(4, 4));
}

} // namespace
