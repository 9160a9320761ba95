//===- tests/test_types.cpp - Type system unit tests --------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "types/Type.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

class TypesTest : public ::testing::Test {
protected:
  TypeContext Types{TargetConfig::lp64()};
};

TEST_F(TypesTest, BuiltinSizesLp64) {
  EXPECT_EQ(Types.sizeOf(Types.charTy()), 1u);
  EXPECT_EQ(Types.sizeOf(Types.shortTy()), 2u);
  EXPECT_EQ(Types.sizeOf(Types.intTy()), 4u);
  EXPECT_EQ(Types.sizeOf(Types.longTy()), 8u);
  EXPECT_EQ(Types.sizeOf(Types.longLongTy()), 8u);
  EXPECT_EQ(Types.sizeOf(Types.floatTy()), 4u);
  EXPECT_EQ(Types.sizeOf(Types.doubleTy()), 8u);
  EXPECT_EQ(Types.sizeOf(Types.getPointer(QualType(Types.intTy()))), 8u);
}

TEST_F(TypesTest, Ilp32Pointers) {
  TypeContext T32{TargetConfig::ilp32()};
  EXPECT_EQ(T32.sizeOf(T32.getPointer(QualType(T32.intTy()))), 4u);
  EXPECT_EQ(T32.sizeOf(T32.longTy()), 4u);
  EXPECT_EQ(T32.sizeTy(), T32.uintTy());
}

TEST_F(TypesTest, PointerTypesAreUniqued) {
  const Type *P1 = Types.getPointer(QualType(Types.intTy()));
  const Type *P2 = Types.getPointer(QualType(Types.intTy()));
  EXPECT_EQ(P1, P2);
  const Type *PC =
      Types.getPointer(QualType(Types.intTy(), QualConst));
  EXPECT_NE(P1, PC) << "pointee qualifiers distinguish pointer types";
}

TEST_F(TypesTest, ArrayTypesAreUniqued) {
  const Type *A1 = Types.getArray(QualType(Types.intTy()), 4, true);
  const Type *A2 = Types.getArray(QualType(Types.intTy()), 4, true);
  const Type *A3 = Types.getArray(QualType(Types.intTy()), 5, true);
  EXPECT_EQ(A1, A2);
  EXPECT_NE(A1, A3);
  EXPECT_EQ(Types.sizeOf(A1), 16u);
}

TEST_F(TypesTest, IntegerPromotions) {
  EXPECT_EQ(Types.promote(QualType(Types.charTy())).Ty, Types.intTy());
  EXPECT_EQ(Types.promote(QualType(Types.shortTy())).Ty, Types.intTy());
  EXPECT_EQ(Types.promote(QualType(Types.ushortTy())).Ty, Types.intTy());
  EXPECT_EQ(Types.promote(QualType(Types.boolTy())).Ty, Types.intTy());
  EXPECT_EQ(Types.promote(QualType(Types.intTy())).Ty, Types.intTy());
  EXPECT_EQ(Types.promote(QualType(Types.uintTy())).Ty, Types.uintTy());
  EXPECT_EQ(Types.promote(QualType(Types.longTy())).Ty, Types.longTy());
}

TEST_F(TypesTest, UsualArithmeticConversions) {
  auto Common = [&](const Type *A, const Type *B) {
    return Types.usualArithmetic(QualType(A), QualType(B)).Ty;
  };
  EXPECT_EQ(Common(Types.intTy(), Types.intTy()), Types.intTy());
  EXPECT_EQ(Common(Types.charTy(), Types.charTy()), Types.intTy());
  EXPECT_EQ(Common(Types.intTy(), Types.uintTy()), Types.uintTy());
  EXPECT_EQ(Common(Types.intTy(), Types.longTy()), Types.longTy());
  EXPECT_EQ(Common(Types.uintTy(), Types.longTy()), Types.longTy())
      << "long can represent every unsigned int value on LP64";
  EXPECT_EQ(Common(Types.ulongTy(), Types.longTy()), Types.ulongTy());
  EXPECT_EQ(Common(Types.intTy(), Types.doubleTy()), Types.doubleTy());
  EXPECT_EQ(Common(Types.floatTy(), Types.intTy()), Types.floatTy());
  EXPECT_EQ(Common(Types.floatTy(), Types.doubleTy()), Types.doubleTy());
}

TEST_F(TypesTest, LimitsOfTypes) {
  EXPECT_EQ(Types.maxValueOf(Types.intTy()), 2147483647u);
  EXPECT_EQ(Types.minValueOf(Types.intTy()), -2147483648ll);
  EXPECT_EQ(Types.maxValueOf(Types.ucharTy()), 255u);
  EXPECT_EQ(Types.minValueOf(Types.uintTy()), 0);
  EXPECT_EQ(Types.maxValueOf(Types.boolTy()), 1u);
}

TEST_F(TypesTest, LimitsOfSixtyFourBitTypes) {
  // The signed minimum of a 64-bit type is INT64_MIN itself; negating
  // 2^63 to get it would overflow (a UBSan tree aborts there).
  EXPECT_EQ(Types.minValueOf(Types.longTy()), INT64_MIN);
  EXPECT_EQ(Types.minValueOf(Types.longLongTy()), INT64_MIN);
  EXPECT_EQ(Types.maxValueOf(Types.longTy()), uint64_t(INT64_MAX));
  EXPECT_EQ(Types.maxValueOf(Types.longLongTy()), uint64_t(INT64_MAX));
  EXPECT_EQ(Types.maxValueOf(Types.ulongLongTy()), UINT64_MAX);
  TypeContext TW{TargetConfig::wideInt()};
  EXPECT_EQ(TW.minValueOf(TW.intTy()), INT64_MIN);
  EXPECT_EQ(TW.maxValueOf(TW.intTy()), uint64_t(INT64_MAX));
}

TEST_F(TypesTest, CharSignednessIsConfigurable) {
  EXPECT_TRUE(Types.charTy()->isSignedInteger(Types.config()));
  TargetConfig Unsigned = TargetConfig::lp64();
  Unsigned.CharIsSigned = false;
  TypeContext TU(Unsigned);
  EXPECT_TRUE(TU.charTy()->isUnsignedInteger(TU.config()));
}

TEST_F(TypesTest, RecordLayout) {
  Type *Rec = Types.createRecord(false, NoSymbol);
  std::vector<FieldInfo> Fields(3);
  Fields[0].Ty = QualType(Types.charTy());
  Fields[1].Ty = QualType(Types.doubleTy());
  Fields[2].Ty = QualType(Types.shortTy());
  Types.completeRecord(Rec, Fields);
  EXPECT_EQ(Rec->Record->Fields[0].Offset, 0u);
  EXPECT_EQ(Rec->Record->Fields[1].Offset, 8u) << "double aligns to 8";
  EXPECT_EQ(Rec->Record->Fields[2].Offset, 16u);
  EXPECT_EQ(Rec->Record->Size, 24u) << "tail padding to alignment";
  EXPECT_EQ(Rec->Record->Align, 8u);
}

TEST_F(TypesTest, UnionLayout) {
  Type *Un = Types.createRecord(true, NoSymbol);
  std::vector<FieldInfo> Fields(2);
  Fields[0].Ty = QualType(Types.intTy());
  Fields[1].Ty = QualType(Types.doubleTy());
  Types.completeRecord(Un, Fields);
  EXPECT_EQ(Un->Record->Fields[0].Offset, 0u);
  EXPECT_EQ(Un->Record->Fields[1].Offset, 0u);
  EXPECT_EQ(Un->Record->Size, 8u);
}

TEST_F(TypesTest, Compatibility) {
  QualType Int{Types.intTy()};
  QualType IntPtr{Types.getPointer(Int)};
  QualType ConstIntPtr{
      Types.getPointer(QualType(Types.intTy(), QualConst))};
  EXPECT_TRUE(Types.compatible(Int, Int));
  EXPECT_TRUE(Types.compatible(IntPtr, IntPtr));
  EXPECT_FALSE(Types.compatible(IntPtr, ConstIntPtr))
      << "pointee qualification differs";
  EXPECT_FALSE(Types.compatible(Int, QualType(Types.longTy())));

  const Type *F1 = Types.getFunction(Int, {Int}, false, false);
  const Type *F2 = Types.getFunction(Int, {Int}, false, false);
  const Type *F3 = Types.getFunction(Int, {Int, Int}, false, false);
  const Type *FNoProto = Types.getFunction(Int, {}, false, true);
  EXPECT_TRUE(Types.compatible(QualType(F1), QualType(F2)));
  EXPECT_FALSE(Types.compatible(QualType(F1), QualType(F3)));
  EXPECT_TRUE(Types.compatible(QualType(F1), QualType(FNoProto)))
      << "unprototyped declarations are compatible via return type";
}

TEST_F(TypesTest, DistinctRecordsIncompatible) {
  Type *A = Types.createRecord(false, NoSymbol);
  Type *B = Types.createRecord(false, NoSymbol);
  Types.completeRecord(A, {});
  Types.completeRecord(B, {});
  EXPECT_FALSE(Types.compatible(QualType(A), QualType(B)));
}

TEST_F(TypesTest, TypeNames) {
  StringInterner Interner;
  EXPECT_EQ(Types.typeName(QualType(Types.intTy(), QualConst), Interner),
            "const int");
  EXPECT_EQ(Types.typeName(QualType(Types.getPointer(QualType(
                               Types.charTy(), QualConst))),
                           Interner),
            "const char *");
}

TEST_F(TypesTest, WideIntConfig) {
  TypeContext TW{TargetConfig::wideInt()};
  EXPECT_EQ(TW.sizeOf(TW.intTy()), 8u);
  EXPECT_EQ(TW.bitWidthOf(TW.intTy()), 64u);
}

} // namespace
