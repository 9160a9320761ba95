//===- tests/test_ub_sequence.cpp - Sequencing undefinedness -----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The locsWrittenTo cell (paper 4.2.1): unsequenced writes/reads of the
// same scalar, sequence points, and evaluation-order search.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace cundef;

namespace {

TEST(UbSequence, TwoWritesInOneExpression) {
  expectUb("int main(void) { int x = 0; return (x = 1) + (x = 2); }",
           UbKind::UnsequencedSideEffect);
}

TEST(UbSequence, WriteAndReadSearchFindsIt) {
  expectUb("int main(void) { int x = 1; return x + x++; }",
           UbKind::UnsequencedSideEffect, /*SearchRuns=*/8);
}

TEST(UbSequence, DoubleIncrementSameVariable) {
  expectUb("int main(void) { int i = 0; return i++ + i++; }",
           UbKind::UnsequencedSideEffect);
}

TEST(UbSequence, IEqualsIPlusPlus) {
  expectUb("int main(void) { int i = 0; i = i++; return i; }",
           UbKind::UnsequencedSideEffect, /*SearchRuns=*/8);
}

TEST(UbSequence, SelfAssignPlusOneIsDefined) {
  // x = x + 1 is fine: the write is sequenced after both value
  // computations (C11 6.5.16p3).
  expectClean("int main(void) { int x = 4; x = x + 1; return x - 5; }");
}

TEST(UbSequence, CompoundAssignReadIsSequenced) {
  expectClean("int main(void) { int x = 4; x += x; return x - 8; }");
}

TEST(UbSequence, SeparateStatementsAreSequenced) {
  expectClean("int main(void) { int x = 0; x = 1; x = 2;"
              " return x + x - 4; }");
}

TEST(UbSequence, CommaOperatorSequences) {
  expectClean("int main(void) { int x = 0;"
              " return (x = 1, x = 2, x - 2); }");
}

TEST(UbSequence, LogicalAndSequences) {
  expectClean("int main(void) { int x = 0;"
              " return ((x = 1) && (x = 2)) ? x - 2 : 1; }");
}

TEST(UbSequence, LogicalOrShortCircuits) {
  // The rhs write never happens when the lhs is true.
  expectClean("int main(void) { int x = 0;"
              " return ((x = 1) || (x = 2)) ? x - 1 : 1; }");
}

TEST(UbSequence, ConditionalSequencesArms) {
  expectClean("int main(void) { int x = 0;"
              " return (x = 1) ? (x = 2) - 2 : (x = 3); }");
}

TEST(UbSequence, DistinctObjectsNoConflict) {
  expectClean("int main(void) { int x = 0; int y = 0;"
              " return (x = 1) + (y = 2) - 3; }");
}

TEST(UbSequence, CallArgumentsUnsequenced) {
  expectUb("static int f(int a, int b) { return a + b; }\n"
           "int main(void) { int x = 0; return f(x = 1, x = 2); }",
           UbKind::UnsequencedSideEffect);
}

TEST(UbSequence, CallsThemselvesAreSequenced) {
  // Two calls in one expression are indeterminately sequenced, not
  // unsequenced: the writes inside them do not conflict (C11 6.5.2.2p10).
  expectClean("int g;\n"
              "static int set(int v) { g = v; return v; }\n"
              "int main(void) { return set(1) + set(2) - 3; }");
}

TEST(UbSequence, DifferentArrayElementsOk) {
  expectClean("int main(void) { int a[2];"
              " return (a[0] = 1) + (a[1] = 2) - 3; }");
}

TEST(UbSequence, SameArrayElementConflicts) {
  expectUb("int main(void) { int a[2];"
           " return (a[0] = 1) + (a[0] = 2); }",
           UbKind::UnsequencedSideEffect);
}

TEST(UbSequence, ForLoopHeadersAreSequenced) {
  expectClean("int main(void) {\n"
              "  int acc = 0; int i;\n"
              "  for (i = 0; i < 4; i++) { acc += i; }\n"
              "  return acc - 6;\n}\n");
}

TEST(UbSequence, OrderSearchRequiredForOneDirection) {
  // Left-to-right alone misses this; the searched right-to-left order
  // writes d before the division (paper 2.5.2).
  expectUb("int d = 5;\n"
           "int setDenom(int x) { return d = x; }\n"
           "int main(void) { return (10 / d) + setDenom(0); }",
           UbKind::DivisionByZero, /*SearchRuns=*/16);
}

/// Expects the order search alone to find an unsequenced access: the
/// static passes are off, as with kcc --no-static.
void expectSearchFindsUnsequenced(const std::string &Source) {
  Driver Drv(AnalysisRequest::Builder()
                 .searchRuns(64)
                 .staticChecks(false)
                 .buildOrDie());
  DriverOutcome O = Drv.runSource(Source, "seq.c");
  ASSERT_TRUE(O.CompileOk) << O.CompileErrors << "\nsource:\n" << Source;
  EXPECT_TRUE(O.StaticUb.empty()) << Source;
  ASSERT_FALSE(O.DynamicUb.empty()) << "clean\nsource:\n" << Source;
  EXPECT_EQ(ubCode(O.DynamicUb.front().Kind),
            ubCode(UbKind::UnsequencedSideEffect))
      << Source;
}

// A sequence point inside an operand clears locsWrittenTo, so an
// operand list that contains one is a choice point even though nothing
// in it writes memory. In each program below the read through p hits
// the pending write to x only when the inner list runs `*p` first: the
// witness is 0 0 0 1, whose last decision flips that inner list.

TEST(UbSequence, AliasedReadAfterCommaNeedsTheInnerFlip) {
  expectSearchFindsUnsequenced(
      "int x;\n"
      "int main(void) { int *p = &x;\n"
      "  int y = (x = 1) + ((0, 0) + *p); return y; }\n");
}

TEST(UbSequence, AliasedReadAfterLogicalAndNeedsTheInnerFlip) {
  expectSearchFindsUnsequenced(
      "int x;\n"
      "int main(void) { int *p = &x;\n"
      "  int y = (x = 1) + ((1 && 1) + *p); return y; }\n");
}

TEST(UbSequence, AliasedReadAfterConditionalNeedsTheInnerFlip) {
  expectSearchFindsUnsequenced(
      "int x;\n"
      "int main(void) { int *p = &x;\n"
      "  int y = (x = 1) + ((0 ? 0 : 0) + *p); return y; }\n");
}

TEST(UbSequence, VolatileAliasedReadNeedsTheInnerFlip) {
  expectSearchFindsUnsequenced(
      "volatile int x;\n"
      "int main(void) { volatile int *p = &x;\n"
      "  int y = (x = 1) + ((0, 0) + *p); return y; }\n");
}

TEST(UbSequence, ForcedListFollowsTheOrderPolicy) {
  // `*p + 1 / z` is order-free, so it is one forced decision, but it is
  // still evaluated in the policy's order: left to right dereferences
  // null first, right to left divides by zero first. The search reports
  // the code its first run hits.
  const char *Source = "int main(void) { int *p = 0; int z = 0;\n"
                       "  return *p + 1 / z; }\n";
  const std::pair<EvalOrderKind, UbKind> Expected[] = {
      {EvalOrderKind::LeftToRight, UbKind::DerefNullPointer},
      {EvalOrderKind::RightToLeft, UbKind::DivisionByZero}};
  for (const auto &[Order, Kind] : Expected) {
    for (unsigned Runs : {1u, 64u}) {
      Driver Drv(AnalysisRequest::Builder()
                     .order(Order)
                     .searchRuns(Runs)
                     .staticChecks(false)
                     .buildOrDie());
      DriverOutcome O = Drv.runSource(Source, "order.c");
      ASSERT_FALSE(O.DynamicUb.empty()) << Runs;
      EXPECT_EQ(ubCode(O.DynamicUb.front().Kind), ubCode(Kind)) << Runs;
    }
  }
}

} // namespace
