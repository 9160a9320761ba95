//===- tests/test_styles.cpp - Specification style equivalence -----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The paper's three specification styles (side conditions 4.1,
// inclusion/exclusion precedence chains 4.5.1, declarative monitors
// 4.5.2) must agree on every verdict.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

struct Verdict {
  bool Flagged;
  uint16_t Code;
};

Verdict runWithStyle(const char *Source, RuleStyle Style) {
  // staticChecks off isolates the dynamic rules.
  Driver Drv(AnalysisRequest::Builder()
                 .style(Style)
                 .staticChecks(false)
                 .buildOrDie());
  DriverOutcome O = Drv.runSource(Source, "style.c");
  EXPECT_TRUE(O.CompileOk) << O.CompileErrors;
  if (O.DynamicUb.empty())
    return {false, 0};
  return {true, ubCode(O.DynamicUb.front().Kind)};
}

void expectAllStylesAgree(const char *Source, bool ExpectFlagged,
                          uint16_t ExpectCode = 0) {
  for (RuleStyle Style : {RuleStyle::SideConditions,
                          RuleStyle::PrecedenceChain,
                          RuleStyle::Declarative}) {
    Verdict V = runWithStyle(Source, Style);
    EXPECT_EQ(V.Flagged, ExpectFlagged)
        << "style " << static_cast<int>(Style) << "\n" << Source;
    if (ExpectFlagged && ExpectCode) {
      EXPECT_EQ(V.Code, ExpectCode)
          << "style " << static_cast<int>(Style) << "\n" << Source;
    }
  }
}

TEST(Styles, DivisionByZero) {
  expectAllStylesAgree("int main(void) { int d = 0; return 3 / d; }", true,
                       ubCode(UbKind::DivisionByZero));
}

TEST(Styles, DivisionOk) {
  expectAllStylesAgree("int main(void) { int d = 3; return (9 / d) - 3; }",
                       false);
}

TEST(Styles, NullDeref) {
  expectAllStylesAgree("int main(void) { int *p = 0; return *p; }", true,
                       ubCode(UbKind::DerefNullPointer));
}

TEST(Styles, VoidDeref) {
  expectAllStylesAgree(
      "int main(void) { int x = 1; void *p = &x; *p; return 0; }", true,
      ubCode(UbKind::DerefVoidPointer));
}

TEST(Styles, DanglingDeref) {
  expectAllStylesAgree(
      "#include <stdlib.h>\n"
      "int main(void) {\n"
      "  int *p = (int*)malloc(sizeof(int));\n"
      "  if (!p) { return 1; }\n"
      "  free(p);\n  return *p;\n}\n",
      true, ubCode(UbKind::UseAfterFree));
}

TEST(Styles, ValidDerefOk) {
  expectAllStylesAgree(
      "int main(void) { int x = 5; int *p = &x; return *p - 5; }", false);
}

TEST(Styles, Unsequenced) {
  expectAllStylesAgree(
      "int main(void) { int x = 0; return (x = 1) + (x = 2); }", true,
      ubCode(UbKind::UnsequencedSideEffect));
}

TEST(Styles, SequencedOk) {
  expectAllStylesAgree(
      "int main(void) { int x = 0; x = 1; x = 2; return x - 2; }", false);
}

TEST(Styles, Overflow) {
  expectAllStylesAgree(
      "int main(void) { int x = 2147483647; return (x + 1) != 0; }", true,
      ubCode(UbKind::SignedOverflow));
}

TEST(Styles, OutOfBoundsDeref) {
  expectAllStylesAgree(
      "int main(void) { int a[2]; a[0] = 1; int *p = a + 2; return *p; }",
      true, ubCode(UbKind::DerefOnePastEnd));
}

TEST(Styles, PrecedenceChainShape) {
  // The chains themselves: positive rule registered first, negative
  // refinements after (applied newest-first).
  StringInterner Interner;
  AstContext Ctx(TargetConfig::lp64(), Interner);
  UbSink Sink;
  MachineOptions Opts;
  Machine M(Ctx, Opts, Sink);
  auto DerefNames = M.derefChain().names();
  ASSERT_GE(DerefNames.size(), 5u);
  EXPECT_EQ(DerefNames.front(), "deref") << "positive rule first";
  EXPECT_EQ(DerefNames.back(), "deref-neg-void")
      << "most-refined negative rule last (applied first)";
  auto DivNames = M.divChain().names();
  ASSERT_EQ(DivNames.size(), 3u);
  EXPECT_EQ(DivNames.front(), "div-int");
  EXPECT_EQ(DivNames.back(), "div-by-zero");
}

TEST(Styles, MachinesShareOneRuleChainPair) {
  // The chains are stateless and independent of MachineOptions, so
  // every machine, whatever its style, applies the same pair.
  StringInterner Interner;
  AstContext Ctx(TargetConfig::lp64(), Interner);
  UbSink Sink;
  MachineOptions Chain;
  Chain.Style = RuleStyle::PrecedenceChain;
  MachineOptions Decl;
  Decl.Style = RuleStyle::Declarative;
  Machine A(Ctx, Chain, Sink);
  Machine B(Ctx, Decl, Sink);
  EXPECT_EQ(&A.derefChain(), &B.derefChain());
  EXPECT_EQ(&A.divChain(), &B.divChain());
  EXPECT_NE(&A.derefChain(), &A.divChain());

  // A declarative-style run, after chain-style machines exist, still
  // reports its undefinedness through its own monitors.
  Verdict V = runWithStyle("int main(void) { int d = 0; return 3 / d; }",
                           RuleStyle::Declarative);
  EXPECT_TRUE(V.Flagged);
  EXPECT_EQ(V.Code, ubCode(UbKind::DivisionByZero));
}

} // namespace
