//===- mem/Byte.h - Symbolic memory bytes ----------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's symbolic memory representation (section 4.3):
///
///  * Pointers are sym(B)+O base/offset pairs, never raw integers, so
///    pointers into different objects are incomparable (4.3.1).
///  * A pointer stored to memory is split into subObject(p, i) fragment
///    bytes that can only be reassembled from the complete set (4.3.2).
///  * Uninitialized storage holds unknown(N) bytes that may be copied
///    (e.g. struct padding through memcpy) but not used as values
///    except through unsigned-character lvalues (4.3.3).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_MEM_BYTE_H
#define CUNDEF_MEM_BYTE_H

#include <cassert>
#include <cstdint>
#include <type_traits>

namespace cundef {

/// A symbolic pointer value: sym(Base) + Offset. Base 0 with no integer
/// provenance is the null pointer. Pointers forged from integers keep
/// their raw value so the permissive (concrete) machine can still chase
/// them, while the strict machine treats them as invalid. Members are
/// ordered widest first, so the struct is 24 bytes, not 32.
struct SymPointer {
  int64_t Offset = 0;  ///< byte offset within the object
  uint64_t RawInt = 0; ///< original integer for FromInteger pointers
  uint32_t Base = 0;   ///< object id; 0 when null or integer-forged
  bool FromInteger = false;

  SymPointer() = default;
  SymPointer(uint32_t Base, int64_t Offset) : Offset(Offset), Base(Base) {}

  static SymPointer null() { return SymPointer(); }
  static SymPointer fromInteger(uint64_t Raw) {
    SymPointer P;
    P.FromInteger = true;
    P.RawInt = Raw;
    return P;
  }

  bool isNull() const { return Base == 0 && !FromInteger; }

  bool operator==(const SymPointer &Other) const {
    return Base == Other.Base && Offset == Other.Offset &&
           FromInteger == Other.FromInteger && RawInt == Other.RawInt;
  }
  bool operator!=(const SymPointer &Other) const { return !(*this == Other); }
};

/// One byte of symbolic memory, in 16 bytes: every object holds one per
/// modeled byte, and each Value embeds one, so forks, copy-on-write
/// clones, digests and snapshots move these by the thousand.
///
/// A pointer fragment stores its pointer as (FragBase, FragOffset)
/// only. Fragments are never integer-derived: the one producer,
/// Machine::encodeValue (core/RulesMem.cpp), stores a null or
/// integer-forged pointer as concrete address bytes, so FromInteger is
/// false and RawInt 0 in every fragment, and ptr() rebuilds the full
/// SymPointer from the two fields. ptrFrag() asserts this.
struct Byte {
  enum class Kind : uint8_t {
    Unknown,  ///< unknown(8): indeterminate content
    Concrete, ///< an ordinary numeric byte
    PtrFrag,  ///< subObject(ptr(), FragIndex) of FragCount
  };

  Kind K = Kind::Unknown;
  uint8_t Value = 0;
  uint8_t FragIndex = 0;
  uint8_t FragCount = 0;
  uint32_t FragBase = 0;  ///< PtrFrag: the pointer's object id
  int64_t FragOffset = 0; ///< PtrFrag: the pointer's offset

  static Byte unknown() { return Byte(); }
  static Byte concrete(uint8_t Value) {
    Byte B;
    B.K = Kind::Concrete;
    B.Value = Value;
    return B;
  }
  static Byte ptrFrag(SymPointer Ptr, uint8_t Index, uint8_t Count) {
    assert(!Ptr.FromInteger && Ptr.RawInt == 0 &&
           "pointer fragments are never integer-derived");
    Byte B;
    B.K = Kind::PtrFrag;
    B.FragIndex = Index;
    B.FragCount = Count;
    B.FragBase = Ptr.Base;
    B.FragOffset = Ptr.Offset;
    return B;
  }

  /// The fragment's pointer (meaningful for PtrFrag bytes).
  SymPointer ptr() const { return SymPointer(FragBase, FragOffset); }

  bool isUnknown() const { return K == Kind::Unknown; }
  bool isConcrete() const { return K == Kind::Concrete; }
  bool isPtrFrag() const { return K == Kind::PtrFrag; }
};

static_assert(sizeof(SymPointer) == 24, "SymPointer is 24 bytes");
// No padding: digests absorb a Byte as its two 8-byte words.
static_assert(sizeof(Byte) == 16, "a modeled byte is 16 bytes");
static_assert(std::has_unique_object_representations_v<Byte>,
              "Byte has no padding bytes");

} // namespace cundef

#endif // CUNDEF_MEM_BYTE_H
