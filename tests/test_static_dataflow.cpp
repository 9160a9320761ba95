//===- tests/test_static_dataflow.cpp - CFG + dataflow layer -------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The flow-sensitive static layer in isolation: CFG construction
// (static/Cfg.h) pinned by shape goldens, the three abstract domains
// (static/Domains.h) driven to fixpoints through real sources, the
// must/may verdict split, and the layer's determinism contract — the
// findings are a pure function of the AST, byte-identical across
// schedulers, worker counts, and translation-cache state.
//
//===----------------------------------------------------------------------===//

#include "AstPrinter.h"
#include "TestUtil.h"

#include "static/Cfg.h"

#include <algorithm>

using namespace cundef;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// Compiles \p Source and renders the CFG of \p Fn via Cfg::dump — the
/// golden-test surface.
std::string cfgDump(const std::string &Source, const char *Fn = "main") {
  Driver Drv;
  Driver::Compiled C = Drv.compile(Source, "t.c");
  EXPECT_TRUE(C->ok()) << C->errors() << "\nsource:\n" << Source;
  if (!C->ok())
    return "";
  const FunctionDecl *F = C->ast().TU.findFunction(C->interner().lookup(Fn));
  EXPECT_TRUE(F && F->Body) << "no definition of " << Fn;
  if (!F || !F->Body)
    return "";
  return dumpCfg(Cfg::build(F), C->interner());
}

/// Static *must* findings of the flow layer only (Domain set by one of
/// the three dataflow domains; the syntactic checker's rows are
/// excluded so these tests pin the dataflow half alone).
std::vector<UbReport> flowMust(const std::string &Source) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(Source, "t.c");
  EXPECT_TRUE(C->ok()) << C->errors() << "\nsource:\n" << Source;
  std::vector<UbReport> Out;
  for (const UbReport &R : C->staticUb())
    if (std::string(R.Domain) != "syntactic")
      Out.push_back(R);
  return Out;
}

/// Flow-layer *may* hints (never part of the verdict).
std::vector<UbReport> flowHints(const std::string &Source) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(Source, "t.c");
  EXPECT_TRUE(C->ok()) << C->errors() << "\nsource:\n" << Source;
  return C->staticHints();
}

bool hasCode(const std::vector<UbReport> &Reports, unsigned Code) {
  for (const UbReport &R : Reports)
    if (ubCode(R.Kind) == Code)
      return true;
  return false;
}

/// Renders every static finding (must then may) to one comparable
/// string: code@line:col verdict/domain.
std::string renderStatic(const DriverOutcome &O) {
  std::string Out;
  auto Add = [&](const UbReport &R) {
    Out += std::to_string(ubCode(R.Kind)) + "@" + std::to_string(R.Loc.Line) +
           ":" + std::to_string(R.Loc.Col) + " " +
           (R.Verdict == FindingVerdict::Must ? "must" : "may") + "/" +
           R.Domain + "\n";
  };
  for (const UbReport &R : O.StaticUb)
    Add(R);
  for (const UbReport &R : O.StaticHints)
    Add(R);
  return Out;
}

//===----------------------------------------------------------------------===//
// CFG shape goldens
//===----------------------------------------------------------------------===//

TEST(CfgShape, StraightLineIsOneBlock) {
  EXPECT_EQ(cfgDump("int main(void) { int x = 1; int y = 2;"
                    " return x + y; }"),
            "cfg main: blocks=3 entry=B0 exit=B1\n"
            "  B0: stmts=3 -> B1\n"
            "  B1: exit\n"
            "  B2: -> B1\n");
}

TEST(CfgShape, IfElseDiamond) {
  EXPECT_EQ(cfgDump("int main(void) {\n"
                    "  int x = 1;\n"
                    "  if (x) { x = 2; } else { x = 3; }\n"
                    "  return x;\n"
                    "}"),
            "cfg main: blocks=6 entry=B0 exit=B1\n"
            "  B0: stmts=1 if -> B2 B4\n"
            "  B1: exit\n"
            "  B2: stmts=1 -> B3\n"
            "  B3: stmts=1 -> B1\n"
            "  B4: stmts=1 -> B3\n"
            "  B5: -> B1\n");
}

TEST(CfgShape, ShortCircuitAndDecomposesIntoAtomicConditions) {
  // `a && b` in branch position becomes two conditional blocks, each
  // with an atomic leaf condition: B0 tests `a` (false edge bypasses
  // `b` entirely), B4 tests `b`.
  EXPECT_EQ(cfgDump("int main(void) {\n"
                    "  int a = 1, b = 2;\n"
                    "  if (a && b) { return 1; }\n"
                    "  return 0;\n"
                    "}"),
            "cfg main: blocks=7 entry=B0 exit=B1\n"
            "  B0: stmts=1 if -> B4 B3\n"
            "  B1: exit\n"
            "  B2: stmts=1 -> B1\n"
            "  B3: stmts=1 -> B1\n"
            "  B4: if -> B2 B3\n"
            "  B5: -> B3\n"
            "  B6: -> B1\n");
}

TEST(CfgShape, TernaryInBranchPositionForksTheCondition) {
  // `a ? b : c` as an if-condition: B0 tests `a` and dispatches to the
  // two arm-condition blocks B4 (`b`) and B5 (`c`), both of which
  // branch to the common then/else targets.
  EXPECT_EQ(cfgDump("int main(void) {\n"
                    "  int a = 1, b = 0, c = 1;\n"
                    "  if (a ? b : c) { return 1; }\n"
                    "  return 0;\n"
                    "}"),
            "cfg main: blocks=8 entry=B0 exit=B1\n"
            "  B0: stmts=1 if -> B4 B5\n"
            "  B1: exit\n"
            "  B2: stmts=1 -> B1\n"
            "  B3: stmts=1 -> B1\n"
            "  B4: if -> B2 B3\n"
            "  B5: if -> B2 B3\n"
            "  B6: -> B3\n"
            "  B7: -> B1\n");
}

TEST(CfgShape, WhileLoopBackEdge) {
  EXPECT_EQ(cfgDump("int main(void) {\n"
                    "  int i = 0;\n"
                    "  while (i < 10) { i = i + 1; }\n"
                    "  return i;\n"
                    "}"),
            "cfg main: blocks=6 entry=B0 exit=B1\n"
            "  B0: stmts=1 -> B2\n"
            "  B1: exit\n"
            "  B2: if -> B3 B4\n"
            "  B3: stmts=1 -> B2\n"
            "  B4: stmts=1 -> B1\n"
            "  B5: -> B1\n");
}

TEST(CfgShape, ForLoopHasDedicatedIncrementBlock) {
  // B4 is the increment block (the ForStmt in its statement list stands
  // for the increment expression — static/Dataflow.h's convention).
  EXPECT_EQ(cfgDump("int main(void) {\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < 4; i++) { s = s + i; }\n"
                    "  return s;\n"
                    "}"),
            "cfg main: blocks=7 entry=B0 exit=B1\n"
            "  B0: stmts=2 -> B2\n"
            "  B1: exit\n"
            "  B2: if -> B3 B5\n"
            "  B3: stmts=1 -> B4\n"
            "  B4: stmts=1 -> B2\n"
            "  B5: stmts=1 -> B1\n"
            "  B6: -> B1\n");
}

TEST(CfgShape, SwitchDispatchWithFallthroughAndDefault) {
  // One switch terminator with labeled edges; case 2's block falls
  // through into case 3's (B4 -> B5) with no re-dispatch.
  EXPECT_EQ(cfgDump("int main(void) {\n"
                    "  int x = 2, r = 0;\n"
                    "  switch (x) {\n"
                    "  case 1: r = 1; break;\n"
                    "  case 2: r = 2;\n"
                    "  case 3: r = r + 3; break;\n"
                    "  default: r = 9;\n"
                    "  }\n"
                    "  return r;\n"
                    "}"),
            "cfg main: blocks=11 entry=B0 exit=B1\n"
            "  B0: stmts=1 switch -> B3(case 1) B4(case 2) B5(case 3) "
            "B6(default)\n"
            "  B1: exit\n"
            "  B2: stmts=1 -> B1\n"
            "  B3: stmts=1 -> B2\n"
            "  B4: stmts=1 -> B5\n"
            "  B5: stmts=1 -> B2\n"
            "  B6: stmts=1 -> B2\n"
            "  B7: -> B3\n"
            "  B8: -> B4\n"
            "  B9: -> B6\n"
            "  B10: -> B1\n");
}

TEST(CfgShape, GotoFormsBackEdgeThroughLabelBlock) {
  EXPECT_EQ(cfgDump("int main(void) {\n"
                    "  int i = 0;\n"
                    "again:\n"
                    "  i = i + 1;\n"
                    "  if (i < 3) goto again;\n"
                    "  return i;\n"
                    "}"),
            "cfg main: blocks=7 entry=B0 exit=B1\n"
            "  B0: stmts=1 -> B2\n"
            "  B1: exit\n"
            "  B2: stmts=1 if -> B3 B4\n"
            "  B3: -> B2\n"
            "  B4: stmts=1 -> B1\n"
            "  B5: -> B4\n"
            "  B6: -> B1\n");
}

TEST(CfgShape, RpoIsDeterministicAndStartsAtEntry) {
  const std::string Source = "int main(void) {\n"
                             "  int s = 0;\n"
                             "  for (int i = 0; i < 4; i++) {\n"
                             "    if (i == 2) continue;\n"
                             "    s = s + i;\n"
                             "  }\n"
                             "  return s;\n"
                             "}";
  Driver Drv;
  Driver::Compiled C = Drv.compile(Source, "t.c");
  ASSERT_TRUE(C->ok()) << C->errors();
  const FunctionDecl *F =
      C->ast().TU.findFunction(C->interner().lookup("main"));
  ASSERT_TRUE(F && F->Body);

  Cfg A = Cfg::build(F);
  Cfg B = Cfg::build(F);
  EXPECT_EQ(dumpCfg(A, C->interner()), dumpCfg(B, C->interner()))
      << "equal ASTs must produce equal graphs";
  EXPECT_EQ(A.rpo(), B.rpo());

  ASSERT_FALSE(A.rpo().empty());
  EXPECT_EQ(A.rpo().front(), A.entry());
  std::vector<BlockId> Sorted = A.rpo();
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(std::adjacent_find(Sorted.begin(), Sorted.end()), Sorted.end())
      << "RPO visits each reachable block exactly once";
  // Exit is reachable here, and every RPO id is a real block.
  EXPECT_NE(std::find(A.rpo().begin(), A.rpo().end(), A.exit()),
            A.rpo().end());
  for (BlockId Id : A.rpo())
    EXPECT_LT(Id, A.size());
}

//===----------------------------------------------------------------------===//
// Nullness domain
//===----------------------------------------------------------------------===//

TEST(NullnessFlow, UnconditionalNullDerefIsMust) {
  std::vector<UbReport> Must =
      flowMust("int main(void) { int *p = 0; return *p; }");
  ASSERT_TRUE(hasCode(Must, 6));
  for (const UbReport &R : Must)
    if (ubCode(R.Kind) == 6) {
      EXPECT_EQ(R.Verdict, FindingVerdict::Must);
      EXPECT_STREQ(R.Domain, "nullness");
    }
}

TEST(NullnessFlow, GuardRefinesAwayTheDeref) {
  // The true edge of `if (p)` proves p non-null: no finding anywhere.
  const std::string Source = "int main(void) {\n"
                             "  int *p = 0;\n"
                             "  if (p) { return *p; }\n"
                             "  return 0;\n"
                             "}";
  EXPECT_FALSE(hasCode(flowMust(Source), 6));
  EXPECT_FALSE(hasCode(flowHints(Source), 6));
}

TEST(NullnessFlow, BranchJoinDemotesToMayHint) {
  // p is null on one path and non-null on the other; after the join the
  // deref is possible-but-not-certain — a triage hint, not a verdict.
  const std::string Source = "int main(void) {\n"
                             "  int x = 1;\n"
                             "  int *p = 0;\n"
                             "  if (x) { p = &x; }\n"
                             "  return *p;\n"
                             "}";
  EXPECT_FALSE(hasCode(flowMust(Source), 6));
  std::vector<UbReport> Hints = flowHints(Source);
  ASSERT_TRUE(hasCode(Hints, 6));
  for (const UbReport &R : Hints)
    if (ubCode(R.Kind) == 6)
      EXPECT_EQ(R.Verdict, FindingVerdict::May);
}

TEST(NullnessFlow, AddressTakenPointerIsNeverTracked) {
  // &p escapes p: aliased mutation could rewrite it, so the domain must
  // not claim the deref — soundness discipline over precision.
  const std::string Source = "int f(int **h) { *h = (int *)0; return 0; }\n"
                             "int main(void) {\n"
                             "  int *p = 0;\n"
                             "  f(&p);\n"
                             "  return p ? *p : 0;\n"
                             "}";
  EXPECT_FALSE(hasCode(flowMust(Source), 6));
}

//===----------------------------------------------------------------------===//
// Initialization domain
//===----------------------------------------------------------------------===//

TEST(InitFlow, UninitializedReadIsMust) {
  std::vector<UbReport> Must =
      flowMust("int main(void) { int x; return x; }");
  ASSERT_TRUE(hasCode(Must, 19));
  for (const UbReport &R : Must)
    if (ubCode(R.Kind) == 19)
      EXPECT_STREQ(R.Domain, "init");
}

TEST(InitFlow, UninitializedPointerUseGetsItsOwnCode) {
  EXPECT_TRUE(hasCode(flowMust("int main(void) { int *p; return *p; }"),
                      30));
}

TEST(InitFlow, AssignmentOnEveryPathIsClean) {
  const std::string Source = "int main(void) {\n"
                             "  int a = 1;\n"
                             "  int x;\n"
                             "  if (a) { x = 1; } else { x = 2; }\n"
                             "  return x;\n"
                             "}";
  EXPECT_FALSE(hasCode(flowMust(Source), 19));
  EXPECT_FALSE(hasCode(flowHints(Source), 19));
}

TEST(InitFlow, AssignmentOnOnePathIsMayHint) {
  // The init lattice alone cannot rule the else path out, so the read
  // joins to maybe-initialized: hint, not verdict.
  const std::string Source = "int main(void) {\n"
                             "  int a = 1;\n"
                             "  int x;\n"
                             "  if (a) { x = 1; }\n"
                             "  return x;\n"
                             "}";
  EXPECT_FALSE(hasCode(flowMust(Source), 19));
  EXPECT_TRUE(hasCode(flowHints(Source), 19));
}

//===----------------------------------------------------------------------===//
// Interval domain
//===----------------------------------------------------------------------===//

TEST(IntervalFlow, FlowPropagatedZeroDivisorIsMust) {
  // The zero reaches the division through an assignment chain the
  // syntactic checker cannot see.
  std::vector<UbReport> Must =
      flowMust("int main(void) { int d = 5; d = d - 5; return 1 / d; }");
  ASSERT_TRUE(hasCode(Must, 1));
  for (const UbReport &R : Must)
    if (ubCode(R.Kind) == 1)
      EXPECT_STREQ(R.Domain, "interval");
}

TEST(IntervalFlow, ComparisonGuardRefinesTheInterval) {
  // d == [0,0] makes the true edge of `d != 0` infeasible: the guarded
  // division is unreachable and must produce nothing.
  const std::string Source = "int main(void) {\n"
                             "  int d = 0;\n"
                             "  if (d != 0) { return 1 / d; }\n"
                             "  return 0;\n"
                             "}";
  EXPECT_FALSE(hasCode(flowMust(Source), 1));
  EXPECT_FALSE(hasCode(flowHints(Source), 1));
}

TEST(IntervalFlow, OversizedAndNegativeShiftCounts) {
  EXPECT_TRUE(hasCode(flowMust("int main(void) { int s = 33;"
                               " return 1 << s; }"),
                      4));
  EXPECT_TRUE(hasCode(flowMust("int main(void) { int s = -1;"
                               " return 1 << s; }"),
                      32));
  EXPECT_FALSE(hasCode(flowMust("int main(void) { int s = 3;"
                                " return 1 << s; }"),
                      4));
}

TEST(IntervalFlow, ConstantIndexOutOfBoundsAtPointerFormation) {
  // &a[5] with a 3-element array: code 13 at formation (C11 6.5.6p8),
  // matching the machine's code assignment.
  EXPECT_TRUE(hasCode(flowMust("int main(void) { int a[3]; int i = 5;\n"
                               "  a[i] = 1; return 0; }"),
                      13));
  EXPECT_FALSE(hasCode(flowMust("int main(void) { int a[3]; int i = 2;\n"
                                "  a[i] = 1; return a[i]; }"),
                      13));
}

TEST(IntervalFlow, WideningTerminatesUnboundedLoops) {
  // The interval of i grows every sweep; without widening the fixpoint
  // would climb to the loop bound one sweep at a time. The assertion is
  // simply that compilation converges and stays quiet.
  const std::string Source = "int main(void) {\n"
                             "  int s = 0;\n"
                             "  for (int i = 0; i < 1000000; i++) {\n"
                             "    s = i - i;\n"
                             "  }\n"
                             "  return s;\n"
                             "}";
  EXPECT_FALSE(hasCode(flowMust(Source), 3));
  EXPECT_FALSE(hasCode(flowMust(Source), 1));
}

//===----------------------------------------------------------------------===//
// Determinism: the findings are a pure function of the AST
//===----------------------------------------------------------------------===//

// One source with findings from all three domains plus a may hint.
const char *DeterminismSource =
    "int main(void) {\n"
    "  int a = 1;\n"
    "  int x;\n"
    "  if (a) { x = 1; }\n"
    "  int d = 5; d = d - 5;\n"
    "  int *p = 0;\n"
    "  int r = x + 1 / d;\n"
    "  return r + *p;\n"
    "}";

/// DeterminismSource's outcome on an engine forced to \p Workers search
/// workers (past the hardware clamp, so 8 really means 8).
DriverOutcome runOnPool(unsigned Workers) {
  EngineConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.ClampWorkersToHardware = false;
  AnalysisEngine Eng(Cfg);
  AnalysisRequest Req = AnalysisRequest::Builder().searchRuns(8).buildOrDie();
  return Eng.submit(Req, DeterminismSource, "det.c").take();
}

TEST(FlowDeterminism, IdenticalAcrossWorkerCounts) {
  DriverOutcome One = runOnPool(1);
  DriverOutcome Eight = runOnPool(8);
  ASSERT_TRUE(One.CompileOk && Eight.CompileOk);
  EXPECT_FALSE(renderStatic(One).empty());
  EXPECT_EQ(renderStatic(One), renderStatic(Eight));
}

TEST(FlowDeterminism, IdenticalAcrossTranslationCacheStates) {
  AnalysisRequest Req = AnalysisRequest::Builder().buildOrDie();

  EngineConfig Off;
  Off.TranslationCacheEntries = 0;
  AnalysisEngine Cold(Off);
  DriverOutcome Uncached =
      Cold.submit(Req, DeterminismSource, "det.c").take();
  ASSERT_TRUE(Uncached.CompileOk);
  EXPECT_FALSE(Uncached.TranslationCacheHit);

  AnalysisEngine Warm;
  DriverOutcome Miss = Warm.submit(Req, DeterminismSource, "det.c").take();
  DriverOutcome Hit = Warm.submit(Req, DeterminismSource, "det.c").take();
  EXPECT_TRUE(Hit.TranslationCacheHit) << "second submit must hit";

  EXPECT_FALSE(renderStatic(Uncached).empty());
  EXPECT_EQ(renderStatic(Uncached), renderStatic(Miss));
  EXPECT_EQ(renderStatic(Uncached), renderStatic(Hit));
}

} // namespace
