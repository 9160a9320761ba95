//===- support/SlabArena.cpp - Bump allocation in growing slabs -----------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "support/SlabArena.h"

#include <algorithm>

using namespace cundef;

SlabArena::~SlabArena() {
  for (Finalizer *F = Finalizers; F;) {
    Finalizer *Next = F->Next;
    F->Destroy(F);
    F = Next;
  }
  for (Slab *S = Last; S;) {
    Slab *Prev = S->Prev;
    ::operator delete(S);
    S = Prev;
  }
}

void *SlabArena::allocateSlow(size_t Size, size_t Align) {
  const size_t Next =
      Held < GrowAfterBytes ? SlabBytes : std::min(Held, MaxSlabBytes);
  // An object larger than that gets a slab of its own size.
  const size_t Bytes = std::max(Next, sizeof(Slab) + Size + Align);
  Slab *S = static_cast<Slab *>(::operator new(Bytes));
  S->Prev = Last;
  Last = S;
  Held += Bytes;
  Cur = reinterpret_cast<char *>(S + 1);
  End = reinterpret_cast<char *>(S) + Bytes;
  return allocate(Size, Align);
}
