//===- core/Value.cpp - Runtime values --------------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "core/Value.h"

#include "support/Strings.h"

#include <cassert>
#include <cmath>

using namespace cundef;

uint64_t cundef::truncateBits(uint64_t Bits, const Type *Ty,
                              const TypeContext &Types) {
  unsigned Width = Types.bitWidthOf(Ty);
  if (Width >= 64)
    return Bits;
  return Bits & ((1ull << Width) - 1);
}

int64_t Value::asSigned(const TypeContext &Types) const {
  assert(isInt() && "asSigned on non-integer value");
  unsigned Width = Types.bitWidthOf(Ty);
  if (Width >= 64)
    return static_cast<int64_t>(Bits);
  uint64_t Mask = (1ull << Width) - 1;
  uint64_t Raw = Bits & Mask;
  if (!Ty->isUnsignedInteger(Types.config()) && (Raw >> (Width - 1)) != 0)
    Raw |= ~Mask;
  return static_cast<int64_t>(Raw);
}

uint64_t Value::asUnsigned(const TypeContext &Types) const {
  assert(isInt() && "asUnsigned on non-integer value");
  return truncateBits(Bits, Ty, Types);
}

bool Value::truthy(const TypeContext &Types) const {
  switch (K) {
  case Kind::Int:
    return asUnsigned(Types) != 0;
  case Kind::Float:
    return F != 0.0;
  case Kind::Pointer:
    return !Ptr.isNull() || (Ptr.FromInteger && Ptr.RawInt != 0);
  default:
    return false;
  }
}

/// Performs a signed operation in __int128 and reports overflow against
/// the result type's range.
static ArithOutcome signedOp(BinaryOp Op, int64_t A, int64_t B,
                             const Type *Ty, const TypeContext &Types) {
  ArithOutcome Out;
  __int128 Wide;
  switch (Op) {
  case BinaryOp::Add: Wide = (__int128)A + B; break;
  case BinaryOp::Sub: Wide = (__int128)A - B; break;
  case BinaryOp::Mul: Wide = (__int128)A * B; break;
  case BinaryOp::Div:
    if (B == 0) {
      Out.DivZero = true;
      Out.V = Value::makeInt(Ty, 0);
      return Out;
    }
    Wide = (__int128)A / B; // INT_MIN / -1 overflows; caught below
    break;
  case BinaryOp::Rem:
    if (B == 0) {
      Out.DivZero = true;
      Out.V = Value::makeInt(Ty, 0);
      return Out;
    }
    if (A == INT64_MIN && B == -1)
      Wide = (__int128)INT64_MAX + 1; // force the overflow report
    else
      Wide = (__int128)A % B;
    break;
  default:
    Wide = 0;
    break;
  }
  __int128 Min = Types.minValueOf(Ty);
  __int128 Max = static_cast<__int128>(Types.maxValueOf(Ty));
  if (Wide < Min || Wide > Max)
    Out.Overflow = true;
  Out.V = Value::makeInt(
      Ty, truncateBits(static_cast<uint64_t>(static_cast<int64_t>(Wide)), Ty,
                       Types));
  return Out;
}

ArithOutcome cundef::evalIntBinary(BinaryOp Op, const Value &L,
                                   const Value &R, const Type *ResultTy,
                                   const TypeContext &Types) {
  ArithOutcome Out;
  const TargetConfig &Config = Types.config();
  const Type *IntTy = Types.intTy();

  // Comparisons produce int regardless of operand type.
  switch (Op) {
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    bool Result;
    if (L.Ty->isUnsignedInteger(Config)) {
      uint64_t A = L.asUnsigned(Types), B = R.asUnsigned(Types);
      Result = Op == BinaryOp::Lt   ? A < B
               : Op == BinaryOp::Gt ? A > B
               : Op == BinaryOp::Le ? A <= B
               : Op == BinaryOp::Ge ? A >= B
               : Op == BinaryOp::Eq ? A == B
                                    : A != B;
    } else {
      int64_t A = L.asSigned(Types), B = R.asSigned(Types);
      Result = Op == BinaryOp::Lt   ? A < B
               : Op == BinaryOp::Gt ? A > B
               : Op == BinaryOp::Le ? A <= B
               : Op == BinaryOp::Ge ? A >= B
               : Op == BinaryOp::Eq ? A == B
                                    : A != B;
    }
    Out.V = Value::makeInt(IntTy, Result ? 1 : 0);
    return Out;
  }
  default:
    break;
  }

  // Shifts: count checked against the width of the (promoted) left
  // operand (C11 6.5.7p3-4).
  if (Op == BinaryOp::Shl || Op == BinaryOp::Shr) {
    unsigned Width = Types.bitWidthOf(ResultTy);
    int64_t Count = R.Ty->isUnsignedInteger(Config)
                        ? static_cast<int64_t>(R.asUnsigned(Types))
                        : R.asSigned(Types);
    if (Count < 0) {
      Out.ShiftNegCount = true;
      Count = 0;
    } else if (static_cast<uint64_t>(Count) >= Width) {
      Out.ShiftTooWide = true;
      Count = 0;
    }
    if (ResultTy->isUnsignedInteger(Config)) {
      uint64_t A = L.asUnsigned(Types);
      uint64_t Result = Op == BinaryOp::Shl ? (A << Count) : (A >> Count);
      Out.V = Value::makeInt(ResultTy, truncateBits(Result, ResultTy, Types));
      return Out;
    }
    int64_t A = L.asSigned(Types);
    if (Op == BinaryOp::Shl) {
      if (A < 0)
        Out.ShiftOfNeg = true;
      __int128 Wide = (__int128)A << Count;
      if (Wide > (__int128)Types.maxValueOf(ResultTy))
        Out.ShiftOfNeg = true; // value not representable (C11 6.5.7p4)
      Out.V = Value::makeInt(
          ResultTy,
          truncateBits(static_cast<uint64_t>(static_cast<int64_t>(Wide)),
                       ResultTy, Types));
      return Out;
    }
    // Right shift of negative values is implementation-defined; we use
    // an arithmetic shift when the target says so.
    int64_t Result;
    if (A < 0 && !Config.ArithmeticRightShift)
      Result = static_cast<int64_t>(L.asUnsigned(Types) >>
                                    static_cast<uint64_t>(Count));
    else
      Result = A >> Count;
    Out.V = Value::makeInt(
        ResultTy, truncateBits(static_cast<uint64_t>(Result), ResultTy,
                               Types));
    return Out;
  }

  if (ResultTy->isUnsignedInteger(Config)) {
    // Unsigned arithmetic wraps; only division by zero is undefined.
    uint64_t A = L.asUnsigned(Types), B = R.asUnsigned(Types);
    uint64_t Result = 0;
    switch (Op) {
    case BinaryOp::Add: Result = A + B; break;
    case BinaryOp::Sub: Result = A - B; break;
    case BinaryOp::Mul: Result = A * B; break;
    case BinaryOp::Div:
      if (B == 0) {
        Out.DivZero = true;
        break;
      }
      Result = A / B;
      break;
    case BinaryOp::Rem:
      if (B == 0) {
        Out.DivZero = true;
        break;
      }
      Result = A % B;
      break;
    case BinaryOp::BitAnd: Result = A & B; break;
    case BinaryOp::BitXor: Result = A ^ B; break;
    case BinaryOp::BitOr:  Result = A | B; break;
    default: assert(false && "unhandled unsigned integer operator");
    }
    Out.V = Value::makeInt(ResultTy, truncateBits(Result, ResultTy, Types));
    return Out;
  }

  switch (Op) {
  case BinaryOp::BitAnd:
  case BinaryOp::BitXor:
  case BinaryOp::BitOr: {
    uint64_t A = L.asUnsigned(Types), B = R.asUnsigned(Types);
    uint64_t Result = Op == BinaryOp::BitAnd   ? (A & B)
                      : Op == BinaryOp::BitXor ? (A ^ B)
                                               : (A | B);
    Out.V = Value::makeInt(ResultTy, truncateBits(Result, ResultTy, Types));
    return Out;
  }
  default:
    return signedOp(Op, L.asSigned(Types), R.asSigned(Types), ResultTy,
                    Types);
  }
}

Value cundef::evalFloatBinary(BinaryOp Op, const Value &L, const Value &R,
                              const Type *ResultTy,
                              const TypeContext &Types) {
  double A = L.F, B = R.F;
  switch (Op) {
  case BinaryOp::Add: return Value::makeFloat(ResultTy, A + B);
  case BinaryOp::Sub: return Value::makeFloat(ResultTy, A - B);
  case BinaryOp::Mul: return Value::makeFloat(ResultTy, A * B);
  case BinaryOp::Div: return Value::makeFloat(ResultTy, A / B);
  case BinaryOp::Lt:  return Value::makeInt(Types.intTy(), A < B);
  case BinaryOp::Gt:  return Value::makeInt(Types.intTy(), A > B);
  case BinaryOp::Le:  return Value::makeInt(Types.intTy(), A <= B);
  case BinaryOp::Ge:  return Value::makeInt(Types.intTy(), A >= B);
  case BinaryOp::Eq:  return Value::makeInt(Types.intTy(), A == B);
  case BinaryOp::Ne:  return Value::makeInt(Types.intTy(), A != B);
  default:
    assert(false && "unhandled floating operator");
    return Value::makeFloat(ResultTy, 0.0);
  }
}

ConvOutcome cundef::convertScalar(const Value &V, const Type *To,
                                  CastKind CK, const TypeContext &Types) {
  ConvOutcome Out;
  switch (CK) {
  case CastKind::ToVoid:
    Out.V = Value::empty();
    return Out;
  case CastKind::ToBool: {
    bool Truth = V.truthy(Types);
    Out.V = Value::makeInt(Types.boolTy(), Truth ? 1 : 0);
    return Out;
  }
  case CastKind::IntegralCast: {
    // Out-of-range conversion to a signed type is implementation-
    // defined (C11 6.3.1.3p3); ours truncates two's complement.
    Out.V = Value::makeInt(To, truncateBits(V.Bits, To, Types));
    return Out;
  }
  case CastKind::IntToFloat: {
    double D = V.Ty->isUnsignedInteger(Types.config())
                   ? static_cast<double>(V.asUnsigned(Types))
                   : static_cast<double>(V.asSigned(Types));
    Out.V = Value::makeFloat(To, D);
    return Out;
  }
  case CastKind::FloatToInt: {
    double D = V.F;
    double Min = static_cast<double>(Types.minValueOf(To));
    double Max = To->isUnsignedInteger(Types.config())
                     ? static_cast<double>(Types.maxValueOf(To))
                     : static_cast<double>(
                           static_cast<int64_t>(Types.maxValueOf(To)));
    if (std::isnan(D) || D <= Min - 1.0 || D >= Max + 1.0)
      Out.FloatToIntOverflow = true; // UB 26 (C11 6.3.1.4p1)
    int64_t I = Out.FloatToIntOverflow ? 0 : static_cast<int64_t>(D);
    Out.V = Value::makeInt(To, truncateBits(static_cast<uint64_t>(I), To,
                                            Types));
    return Out;
  }
  case CastKind::FloatCast: {
    double D = V.F;
    if (To->Kind == TypeKind::Float)
      D = static_cast<float>(D);
    Out.V = Value::makeFloat(To, D);
    return Out;
  }
  case CastKind::PointerCast:
  case CastKind::NullToPointer: {
    if (V.isPointer()) {
      Out.V = Value::makePointer(To, V.Ptr);
      return Out;
    }
    // Null pointer constant: integer zero.
    Out.V = Value::makePointer(To, SymPointer::null());
    return Out;
  }
  case CastKind::IntToPointer: {
    uint64_t Raw = V.asUnsigned(Types);
    Out.V = Value::makePointer(To, Raw == 0 ? SymPointer::null()
                                            : SymPointer::fromInteger(Raw));
    return Out;
  }
  case CastKind::PointerToInt: {
    // The concrete address is attached by the machine (it knows the
    // memory); this fallback covers forged and null pointers.
    uint64_t Raw = V.Ptr.FromInteger
                       ? V.Ptr.RawInt + static_cast<uint64_t>(V.Ptr.Offset)
                       : 0;
    Out.V = Value::makeInt(To, truncateBits(Raw, To, Types));
    return Out;
  }
  case CastKind::LValueToRValue:
  case CastKind::ArrayDecay:
  case CastKind::FunctionDecay:
    assert(false && "handled by the machine, not convertScalar");
    return Out;
  }
  return Out;
}
