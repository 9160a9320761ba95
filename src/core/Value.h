//===- core/Value.h - Runtime values ---------------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Values computed by the machine. Besides ordinary integers, floats
/// and sym(B)+O pointers, there are two kinds the undefinedness
/// semantics needs (paper section 4.3):
///
///  * LVal -- the paper's "[L] : T": a located lvalue produced by
///    dereference and name lookup; reading it is a separate rule.
///  * Opaque -- a value read through a character lvalue that carries a
///    raw memory byte (possibly unknown(8) or a subObject pointer
///    fragment). It can be stored back verbatim -- this is what makes
///    byte-wise struct and pointer copies work -- but using it in
///    arithmetic is undefined.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_VALUE_H
#define CUNDEF_CORE_VALUE_H

#include "ast/Ast.h"
#include "mem/Byte.h"

#include <string>

namespace cundef {

class Value {
public:
  enum class Kind : uint8_t {
    Empty,   ///< no value (void results)
    Int,     ///< integral value, bits truncated to the type's width
    Float,   ///< float/double
    Pointer, ///< sym(B)+O (object or function pseudo-object)
    LVal,    ///< a located lvalue [L] : T
    Opaque,  ///< a raw byte read through a character lvalue
    Agg,     ///< a struct/union rvalue: its bytes (may include unknowns)
  };

  // The one-byte members come first so that they share a word.
  Kind K = Kind::Empty;
  uint8_t LvQuals = QualNone; ///< LVal qualifier bits
  /// Set on the Empty value produced when a non-void function falls off
  /// its end; consuming it is UB 24.
  bool MissingReturn = false;
  const Type *Ty = nullptr; ///< canonical C type (null for Empty)
  uint64_t Bits = 0;        ///< Int payload (raw two's complement bits)
  double F = 0.0;           ///< Float payload
  SymPointer Ptr;           ///< Pointer / LVal payload
  Byte Payload;             ///< Opaque payload
  std::vector<Byte> AggBytes; ///< Agg payload
  /// Subobject window for pointers born from an array-to-pointer decay:
  /// [SubStart, SubStart + SubLen) in bytes within the object. While the
  /// pointer flows through an expression, arithmetic beyond the *inner*
  /// array is undefined even when the containing object is larger
  /// (catalog row 64, C11 6.5.6p8). SubLen == 0 means "whole object".
  int64_t SubStart = 0;
  uint64_t SubLen = 0;

  Value() = default;

  static Value empty() { return Value(); }
  static Value makeInt(const Type *Ty, uint64_t Bits) {
    Value V;
    V.K = Kind::Int;
    V.Ty = Ty;
    V.Bits = Bits;
    return V;
  }
  static Value makeFloat(const Type *Ty, double F) {
    Value V;
    V.K = Kind::Float;
    V.Ty = Ty;
    V.F = F;
    return V;
  }
  static Value makePointer(const Type *PtrTy, SymPointer Ptr) {
    Value V;
    V.K = Kind::Pointer;
    V.Ty = PtrTy;
    V.Ptr = Ptr;
    return V;
  }
  static Value makeLValue(SymPointer Ptr, QualType LvTy) {
    Value V;
    V.K = Kind::LVal;
    V.Ty = LvTy.Ty;
    V.LvQuals = LvTy.Quals;
    V.Ptr = Ptr;
    return V;
  }
  static Value makeOpaque(const Type *CharTy, Byte Payload) {
    Value V;
    V.K = Kind::Opaque;
    V.Ty = CharTy;
    V.Payload = Payload;
    return V;
  }
  static Value makeAgg(const Type *RecordTy, std::vector<Byte> Bytes) {
    Value V;
    V.K = Kind::Agg;
    V.Ty = RecordTy;
    V.AggBytes = std::move(Bytes);
    return V;
  }

  bool isEmpty() const { return K == Kind::Empty; }
  bool isInt() const { return K == Kind::Int; }
  bool isFloat() const { return K == Kind::Float; }
  bool isPointer() const { return K == Kind::Pointer; }
  bool isLValue() const { return K == Kind::LVal; }
  bool isOpaque() const { return K == Kind::Opaque; }
  bool isAgg() const { return K == Kind::Agg; }

  QualType lvalueType() const { return QualType(Ty, LvQuals); }

  /// Integer payload interpreted through the type's signedness.
  int64_t asSigned(const TypeContext &Types) const;
  uint64_t asUnsigned(const TypeContext &Types) const;

  /// Scalar truth value (for conditions). Opaque/Empty have none; the
  /// caller must have checked.
  bool truthy(const TypeContext &Types) const;
};

/// Result of an arithmetic step, carrying the undefined conditions the
/// side-condition rules test (paper section 4.1).
struct ArithOutcome {
  Value V;
  bool Overflow = false;      ///< signed overflow (UB 3)
  bool DivZero = false;       ///< division/remainder by zero (UB 1/2)
  bool ShiftTooWide = false;  ///< shift count out of range (UB 4)
  bool ShiftNegCount = false; ///< negative shift count (UB 32)
  bool ShiftOfNeg = false;    ///< left shift of negative value (UB 5)
};

/// Evaluates an integer binary operation in the given result type.
/// Relational/equality operators return int. \p Op must not be a
/// logical/comma operator.
ArithOutcome evalIntBinary(BinaryOp Op, const Value &L, const Value &R,
                           const Type *ResultTy, const TypeContext &Types);

/// Floating binary operation (divide by zero yields inf/nan, defined
/// behavior under Annex F; comparisons return int).
Value evalFloatBinary(BinaryOp Op, const Value &L, const Value &R,
                      const Type *ResultTy, const TypeContext &Types);

/// Result of a scalar conversion.
struct ConvOutcome {
  Value V;
  bool FloatToIntOverflow = false; ///< UB 26
};

/// Converts \p V to \p To per the cast kind semantics. Pointer casts
/// keep the symbolic pointer; int<->pointer casts record provenance.
ConvOutcome convertScalar(const Value &V, const Type *To, CastKind CK,
                          const TypeContext &Types);

/// Truncates raw bits into the representation width of \p Ty.
uint64_t truncateBits(uint64_t Bits, const Type *Ty,
                      const TypeContext &Types);

} // namespace cundef

#endif // CUNDEF_CORE_VALUE_H
