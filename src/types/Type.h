//===- types/Type.h - C type system ---------------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C type system: canonical types uniqued by a TypeContext, qualified
/// types as (Type*, qualifier bits) pairs, record/enum layout, integer
/// promotion and the usual arithmetic conversions. Types are immutable
/// once built except that record and enum types are completed in place
/// when their definition is seen (C's incomplete-type mechanism).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TYPES_TYPE_H
#define CUNDEF_TYPES_TYPE_H

#include "support/SlabArena.h"
#include "support/StringInterner.h"
#include "types/TargetConfig.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cundef {

class Type;
class TypeContext;

/// Qualifier bits (C11 6.7.3).
enum Qualifier : uint8_t {
  QualNone = 0,
  QualConst = 1,
  QualVolatile = 2,
  QualRestrict = 4,
};

/// A possibly-qualified reference to a canonical type.
struct QualType {
  const Type *Ty = nullptr;
  uint8_t Quals = QualNone;

  QualType() = default;
  explicit QualType(const Type *Ty, uint8_t Quals = QualNone)
      : Ty(Ty), Quals(Quals) {}

  bool isNull() const { return Ty == nullptr; }
  bool isConst() const { return Quals & QualConst; }
  bool isVolatile() const { return Quals & QualVolatile; }

  QualType withConst() const { return QualType(Ty, Quals | QualConst); }
  QualType withQuals(uint8_t Q) const { return QualType(Ty, Quals | Q); }
  QualType unqualified() const { return QualType(Ty); }

  const Type *operator->() const { return Ty; }

  /// Identity including qualifiers.
  bool operator==(const QualType &Other) const {
    return Ty == Other.Ty && Quals == Other.Quals;
  }
  bool operator!=(const QualType &Other) const { return !(*this == Other); }
};

enum class TypeKind : uint8_t {
  Void,
  Bool,
  Char,   // plain char: distinct type; signedness from TargetConfig
  SChar,
  UChar,
  Short,
  UShort,
  Int,
  UInt,
  Long,
  ULong,
  LongLong,
  ULongLong,
  Float,
  Double,
  Enum,
  Pointer,
  Array,
  Struct,
  Union,
  Function,
};

/// A member of a struct or union, with its computed layout offset.
struct FieldInfo {
  Symbol Name = NoSymbol;
  QualType Ty;
  uint64_t Offset = 0; ///< bytes from the start of the record
};

/// Definition payload of a struct/union type. Mutated exactly once, when
/// the record is completed.
struct RecordInfo {
  bool IsUnion = false;
  Symbol Tag = NoSymbol;
  bool Complete = false;
  std::vector<FieldInfo> Fields;
  uint64_t Size = 0;
  uint64_t Align = 1;

  /// Index of field \p Name or -1.
  int fieldIndex(Symbol Name) const {
    for (size_t I = 0; I < Fields.size(); ++I)
      if (Fields[I].Name == Name)
        return static_cast<int>(I);
    return -1;
  }
};

/// Definition payload of an enum type.
struct EnumInfo {
  Symbol Tag = NoSymbol;
  bool Complete = false;
};

/// A canonical (unqualified) C type. Instances are owned and uniqued by
/// TypeContext; compare by pointer identity.
class Type {
public:
  TypeKind Kind;

  // Pointer pointee or array element.
  QualType Pointee;
  // Array extent.
  uint64_t ArraySize = 0;
  bool ArraySizeKnown = false;
  // Function signature.
  QualType ReturnType;
  std::vector<QualType> ParamTypes;
  bool Variadic = false;
  bool NoProto = false; ///< declared with () — unchecked call (pre-C23)
  // Record / enum payloads (owned by TypeContext).
  RecordInfo *Record = nullptr;
  EnumInfo *Enum = nullptr;

  explicit Type(TypeKind Kind) : Kind(Kind) {}

  bool isVoid() const { return Kind == TypeKind::Void; }
  bool isBool() const { return Kind == TypeKind::Bool; }
  bool isInteger() const {
    return Kind >= TypeKind::Bool && Kind <= TypeKind::ULongLong;
  }
  bool isEnum() const { return Kind == TypeKind::Enum; }
  /// Integer or enum (both behave as integers in expressions).
  bool isIntegral() const { return isInteger() || isEnum(); }
  bool isFloating() const {
    return Kind == TypeKind::Float || Kind == TypeKind::Double;
  }
  bool isArithmetic() const { return isIntegral() || isFloating(); }
  bool isPointer() const { return Kind == TypeKind::Pointer; }
  bool isArray() const { return Kind == TypeKind::Array; }
  bool isFunction() const { return Kind == TypeKind::Function; }
  bool isRecord() const {
    return Kind == TypeKind::Struct || Kind == TypeKind::Union;
  }
  bool isScalar() const { return isArithmetic() || isPointer(); }
  /// Unsigned integer type (enum counts as its underlying signed int).
  bool isUnsignedInteger(const TargetConfig &Config) const;
  /// Signed integer type.
  bool isSignedInteger(const TargetConfig &Config) const {
    return isIntegral() && !isUnsignedInteger(Config) &&
           Kind != TypeKind::Bool;
  }
  /// Character types (char, signed char, unsigned char), C11 6.2.5p15.
  bool isCharacter() const {
    return Kind == TypeKind::Char || Kind == TypeKind::SChar ||
           Kind == TypeKind::UChar;
  }
  bool isVoidPointer() const {
    return isPointer() && Pointee.Ty && Pointee.Ty->isVoid();
  }
  bool isFunctionPointer() const {
    return isPointer() && Pointee.Ty && Pointee.Ty->isFunction();
  }
  /// Object types are complete non-function types (C11 6.2.5p1).
  bool isCompleteObjectType() const {
    if (isVoid() || isFunction())
      return false;
    if (isRecord())
      return Record->Complete;
    if (isEnum())
      return Enum->Complete;
    if (isArray())
      return ArraySizeKnown;
    return true;
  }

  /// Conversion rank for integer promotions (C11 6.3.1.1p1).
  unsigned integerRank() const;
};

/// Owns and uniques all types for one translation unit. Its types live
/// in its slab arena, which the unit's AST nodes share (ast/Ast.h).
///
/// A context may continue a frozen base (a compile continuing from a
/// header prelude, frontend/Prelude.h): it shares the base's builtin
/// and pointer types, consults the base's uniquing tables before its
/// own, and never writes to the base, so every type stays
/// pointer-identical across the two layers.
class TypeContext {
public:
  /// \p Base, when given, must outlive this context, must not change
  /// while it does, and must have the same \p Config.
  explicit TypeContext(const TargetConfig &Config,
                       const TypeContext *Base = nullptr);

  const TargetConfig &config() const { return Config; }

  // Builtin types.
  const Type *voidTy() const { return Builtins[(int)TypeKind::Void]; }
  const Type *boolTy() const { return Builtins[(int)TypeKind::Bool]; }
  const Type *charTy() const { return Builtins[(int)TypeKind::Char]; }
  const Type *scharTy() const { return Builtins[(int)TypeKind::SChar]; }
  const Type *ucharTy() const { return Builtins[(int)TypeKind::UChar]; }
  const Type *shortTy() const { return Builtins[(int)TypeKind::Short]; }
  const Type *ushortTy() const { return Builtins[(int)TypeKind::UShort]; }
  const Type *intTy() const { return Builtins[(int)TypeKind::Int]; }
  const Type *uintTy() const { return Builtins[(int)TypeKind::UInt]; }
  const Type *longTy() const { return Builtins[(int)TypeKind::Long]; }
  const Type *ulongTy() const { return Builtins[(int)TypeKind::ULong]; }
  const Type *longLongTy() const { return Builtins[(int)TypeKind::LongLong]; }
  const Type *ulongLongTy() const {
    return Builtins[(int)TypeKind::ULongLong];
  }
  const Type *floatTy() const { return Builtins[(int)TypeKind::Float]; }
  const Type *doubleTy() const { return Builtins[(int)TypeKind::Double]; }
  /// size_t for this target (unsigned long on LP64).
  const Type *sizeTy() const {
    return Config.PointerSize == 8 ? ulongTy() : uintTy();
  }
  /// ptrdiff_t for this target.
  const Type *ptrdiffTy() const {
    return Config.PointerSize == 8 ? longTy() : intTy();
  }
  /// The pointer types libc builtins return, uniqued when the context
  /// is built so a machine reading a frozen context never creates one.
  const Type *charPtrTy() const { return CharPtr; }
  const Type *voidPtrTy() const { return VoidPtr; }
  const Type *constVoidPtrTy() const { return ConstVoidPtr; }

  /// Builtin by kind (only for non-derived kinds).
  const Type *builtin(TypeKind Kind) const {
    assert(Kind <= TypeKind::Double && "not a builtin kind");
    return Builtins[(int)Kind];
  }

  const Type *getPointer(QualType Pointee);
  const Type *getArray(QualType Element, uint64_t Size, bool SizeKnown);
  const Type *getFunction(QualType Return, std::vector<QualType> Params,
                          bool Variadic, bool NoProto);
  /// Creates a fresh (incomplete) struct/union type; identity-based.
  Type *createRecord(bool IsUnion, Symbol Tag);
  /// Creates a fresh (incomplete) enum type.
  Type *createEnum(Symbol Tag);
  /// Computes layout (field offsets, size, align) and marks complete.
  void completeRecord(Type *RecordTy, std::vector<FieldInfo> Fields);
  /// Whether any struct, union or enum type was created here.
  bool hasTagTypes() const { return HasTagTypes; }

  /// The unit's slab arena: its types, and the AST nodes of the
  /// AstContext around it.
  SlabArena &slabs() { return Slabs; }

  /// Size in bytes of a complete object type.
  uint64_t sizeOf(QualType Ty) const;
  uint64_t sizeOf(const Type *Ty) const { return sizeOf(QualType(Ty)); }
  /// Alignment requirement in bytes.
  uint64_t alignOf(QualType Ty) const;

  /// Integer promotions (C11 6.3.1.1p2): small integer types promote to
  /// int (or unsigned int).
  QualType promote(QualType Ty) const;
  /// Usual arithmetic conversions (C11 6.3.1.8); both must be arithmetic.
  QualType usualArithmetic(QualType Lhs, QualType Rhs) const;

  /// Numeric limits for an integral type under this target.
  uint64_t maxValueOf(const Type *Ty) const;
  int64_t minValueOf(const Type *Ty) const;
  unsigned bitWidthOf(const Type *Ty) const;

  /// Whether two types are compatible for our purposes (same canonical
  /// structure; qualifiers on the outermost level ignored).
  bool compatible(QualType A, QualType B) const;

  /// Renders a type for diagnostics ("const int *", "int [4]", ...).
  std::string typeName(QualType Ty, const StringInterner &Interner) const;

private:
  const Type *makeBuiltin(TypeKind Kind);

  /// Declared first: the uniquing tables below point into it.
  SlabArena Slabs;
  TargetConfig Config;
  const TypeContext *Base;
  bool HasTagTypes = false;
  const Type *Builtins[(int)TypeKind::Double + 1] = {};
  const Type *CharPtr = nullptr, *VoidPtr = nullptr, *ConstVoidPtr = nullptr;
  std::map<std::pair<const Type *, uint8_t>, const Type *> PointerTypes;
  std::map<std::tuple<const Type *, uint8_t, uint64_t, bool>, const Type *>
      ArrayTypes;
};

} // namespace cundef

#endif // CUNDEF_TYPES_TYPE_H
