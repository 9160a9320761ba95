//===- mem/SymbolicMemory.h - The mem cell ---------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The configuration's mem cell: a map from symbolic base ids to memory
/// objects, exactly the paper's "memory is a map from base addresses to
/// blocks of bytes; each base address represents the memory of a single
/// object" (section 4.3.1). Objects keep a tombstone after their
/// lifetime ends so dangling uses can be named precisely.
///
/// Every object additionally carries a *concrete* address. The strict
/// machine never looks at it; the permissive machine (the substrate for
/// the Valgrind-/CheckPointer-style baselines) uses it to give
/// out-of-bounds and forged pointers the meaning they would have on
/// real hardware.
///
/// Objects are held behind shared pointers with copy-on-write
/// semantics, in a table indexed by id - 1 (ids are dense). Copying a
/// SymbolicMemory (the evaluation-order search forks configurations at
/// choice points, paper section 2.5.2) costs one allocation for the
/// table plus one reference-count increment per object; the first
/// mutation through mutate()/writeByte() after a copy clones just the
/// touched object. Each object also caches its content digest, so
/// configuration fingerprints cost O(objects touched since the last
/// fingerprint) instead of O(total bytes).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_MEM_SYMBOLICMEMORY_H
#define CUNDEF_MEM_SYMBOLICMEMORY_H

#include "mem/Byte.h"
#include "support/Hash.h"
#include "support/StringInterner.h"
#include "types/Type.h"

#include <memory>
#include <vector>

namespace cundef {

enum class StorageKind : uint8_t {
  Global,
  StaticLocal,
  Auto,
  Heap,
  Literal,  ///< string literals (not writable)
  Function, ///< pseudo-objects giving functions addresses
};

/// Lifetime state of an object.
enum class ObjectState : uint8_t { Alive, Dead, Freed };

class FunctionDecl;

/// One memory object (the paper's obj(Len, ...)).
struct MemObject {
  uint32_t Id = 0;
  StorageKind Storage = StorageKind::Auto;
  ObjectState State = ObjectState::Alive;
  uint64_t Size = 0;
  QualType DeclTy;         ///< declared / effective type (may be null)
  Symbol Name = NoSymbol;  ///< for diagnostics
  uint64_t ConcreteAddr = 0;
  const FunctionDecl *Fn = nullptr; ///< for Function pseudo-objects
  std::vector<Byte> Bytes;

  bool isAlive() const { return State == ObjectState::Alive; }

  /// Cached content digest (a commutative sum over per-byte item hashes
  /// plus a metadata hash; see SymbolicMemory::hashInto). Valid only
  /// while DigestValid; mutate() clears it, writeByte() adjusts it by
  /// the touched byte's delta. Content-determined, so clones share it.
  mutable uint64_t Digest = 0;
  mutable bool DigestValid = false;
};

/// Result of a byte-level access.
enum class MemStatus : uint8_t {
  Ok,
  NoObject,    ///< base id was never allocated (or null)
  Dead,        ///< lifetime ended (scope exit)
  Freed,       ///< heap object already freed
  OutOfBounds, ///< offset outside [0, Size)
};

class SymbolicMemory {
public:
  SymbolicMemory() = default;

  /// Allocates a fresh object of \p Size bytes, all unknown().
  uint32_t create(StorageKind Storage, uint64_t Size, QualType DeclTy,
                  Symbol Name);

  /// Registers a pseudo-object for a function so it has an address.
  uint32_t createFunction(const FunctionDecl *Fn, Symbol Name);

  /// Ends the lifetime of an automatic object (scope exit).
  void markDead(uint32_t Id);
  /// Marks a heap object freed.
  void markFreed(uint32_t Id);

  /// Read-only lookup. Null when the id was never allocated.
  const MemObject *find(uint32_t Id) const;

  /// Mutable lookup with copy-on-write: if the object is shared with a
  /// forked configuration it is cloned first, so the writer never
  /// disturbs the other copy. Invalidates the object's cached digest
  /// (callers may rewrite bytes arbitrarily through the pointer).
  MemObject *mutate(uint32_t Id);

  /// Checked byte access. Out parameters untouched on failure.
  MemStatus readByte(uint32_t Id, int64_t Offset, Byte &Out) const;
  MemStatus writeByte(uint32_t Id, int64_t Offset, const Byte &In);
  /// Status an access *would* have, without performing it.
  MemStatus probe(uint32_t Id, int64_t Offset, uint64_t Len) const;

  /// Maps a concrete address to (object id, offset); used only by the
  /// permissive machine. Returns 0 when the address hits no object
  /// (a "segmentation fault" on the modelled hardware). Dead/freed
  /// objects still resolve -- exactly the danger being modelled.
  uint32_t findByAddress(uint64_t Addr, int64_t &OffsetOut) const;

  /// All objects in id order (object I has id I + 1), for tools (leak
  /// reporting, statistics).
  const std::vector<std::shared_ptr<MemObject>> &objects() const {
    return Objects;
  }

  /// Number of live allocations of the given storage kind.
  unsigned countAlive(StorageKind Storage) const;

  /// Mixes this cell's state into a configuration fingerprint (used by
  /// the evaluation-order search to deduplicate symmetric
  /// interleavings). Dead and freed objects contribute only their id,
  /// state and size: the strict machine can never legally read their
  /// bytes again, and their concrete addresses depend on allocation
  /// order, so hashing their content would make states that symmetric
  /// interleavings reach in common look distinct.
  ///
  /// Incremental: per-object digests are cached and only recomputed for
  /// objects touched through mutate() since the last call; writeByte
  /// maintains them by delta. \p Full recomputes everything from
  /// scratch, bypassing the caches — the reference the incremental path
  /// is tested against.
  void hashInto(WordHasher &H, bool Full = false) const;

private:
  uint64_t assignAddress(StorageKind Storage, uint64_t Size);
  /// The object's digest, recomputed from content (ignoring the cache).
  static uint64_t computeDigest(const MemObject &Obj);
  /// Clones \p Slot's object if it is shared with a forked copy.
  /// use_count() is a relaxed read, so a count of 1 orders nothing
  /// against another thread's last read of the object. The test is
  /// race-free only because a fork's snapshot outlives its run (see
  /// Machine's fork constructor): an inherited object never drops to
  /// one reference under a running fork, so it is never written in
  /// place.
  static MemObject *owned(std::shared_ptr<MemObject> &Slot);

  /// The object with id I lives at Objects[I - 1].
  std::vector<std::shared_ptr<MemObject>> Objects;
  // Concrete address cursors. The stack grows down, everything else up.
  uint64_t GlobalCursor = 0x00010000;
  uint64_t FunctionCursor = 0x01000000;
  uint64_t LiteralCursor = 0x08000000;
  uint64_t HeapCursor = 0x20000000;
  uint64_t StackCursor = 0x7fff0000;
};

} // namespace cundef

#endif // CUNDEF_MEM_SYMBOLICMEMORY_H
