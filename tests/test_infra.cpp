//===- tests/test_infra.cpp - Supporting infrastructure tests -----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// AST printing, the order chooser, configuration rendering, the tool
// comparison renderer, header registry, and cross-target execution.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "AstPrinter.h"
#include "core/EvalOrder.h"
#include "core/Machine.h"
#include "driver/ToolRunner.h"
#include "libc/Headers.h"

using namespace cundef;

namespace {

TEST(AstPrinter, StableExpressionDump) {
  Driver Drv;
  Driver::Compiled C =
      Drv.compile("int v = (1 + 2) * 3;\nint main(void) { return 0; }",
                  "p.c");
  ASSERT_TRUE(C->ok());
  AstPrinter Printer(C->ast());
  ASSERT_FALSE(C->ast().TU.Globals.empty());
  std::string Dump = Printer.print(C->ast().TU.Globals[0]->Init);
  EXPECT_EQ(Dump, "(binary *\n"
                  "  (binary +\n"
                  "    (int 1)\n"
                  "    (int 2)\n"
                  "  )\n"
                  "  (int 3)\n"
                  ")\n");
}

TEST(AstPrinter, FunctionAndStatementDump) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(
      "int main(void) { int x = 1; if (x) { return x; } return 0; }",
      "p.c");
  ASSERT_TRUE(C->ok());
  AstPrinter Printer(C->ast());
  std::string Dump = Printer.print(C->ast().TU.Functions[0]);
  EXPECT_NE(Dump.find("(function main"), std::string::npos);
  EXPECT_NE(Dump.find("(if"), std::string::npos);
  EXPECT_NE(Dump.find("(return"), std::string::npos);
}

TEST(EvalOrder, PoliciesProducePermutations) {
  OrderChooser Ltr(EvalOrderKind::LeftToRight, 1);
  EXPECT_EQ(Ltr.choose(3), (std::vector<uint8_t>{0, 1, 2}));
  OrderChooser Rtl(EvalOrderKind::RightToLeft, 1);
  EXPECT_EQ(Rtl.choose(3), (std::vector<uint8_t>{2, 1, 0}));
  OrderChooser Rand(EvalOrderKind::Random, 7);
  std::vector<uint8_t> P = Rand.choose(4);
  std::vector<uint8_t> Sorted = P;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(Sorted, (std::vector<uint8_t>{0, 1, 2, 3}))
      << "a permutation, whatever the order";
}

TEST(EvalOrder, ReplayOverridesPolicy) {
  OrderChooser Chooser(EvalOrderKind::LeftToRight, 1);
  Chooser.setReplay({1, 0});
  EXPECT_EQ(Chooser.choose(2), (std::vector<uint8_t>{1, 0}));
  EXPECT_EQ(Chooser.choose(2), (std::vector<uint8_t>{0, 1}));
  // Replay exhausted: the policy takes over.
  EXPECT_EQ(Chooser.choose(2), (std::vector<uint8_t>{0, 1}));
  ASSERT_EQ(Chooser.trace().size(), 3u);
  EXPECT_EQ(Chooser.trace()[0].first, 1);
  EXPECT_EQ(Chooser.trace()[0].second, 2);
}

TEST(EvalOrder, SingleOperandHasNoAlternative) {
  OrderChooser Chooser(EvalOrderKind::LeftToRight, 1);
  Chooser.choose(1);
  ASSERT_EQ(Chooser.trace().size(), 1u);
  EXPECT_EQ(Chooser.trace()[0].second, 1) << "arity 1: nothing to search";
}

TEST(Configuration, DescribeCellsNamesPaperCells) {
  Driver Drv;
  Driver::Compiled C =
      Drv.compile("int g = 1;\nint main(void) { return 0; }", "c.c");
  ASSERT_TRUE(C->ok());
  UbSink Sink;
  MachineOptions Opts;
  Machine M(C->ast(), Opts, Sink);
  M.run();
  std::string Cells = M.config().describeCells();
  for (const char *Cell : {"<T>", "<k>", "<genv>", "<mem>",
                           "<locsWrittenTo>", "<notWritable>", "<control>",
                           "<env>", "<callStack>"})
    EXPECT_NE(Cells.find(Cell), std::string::npos) << Cell;
}

TEST(ToolRunner, ComparisonRendersAllTools) {
  std::vector<ComparisonRow> Rows =
      compareTools("int main(void) { int d = 0; return 1 / d; }", "c.c");
  ASSERT_EQ(Rows.size(), 4u);
  std::string Table = renderComparison(Rows);
  for (const char *Name : {"kcc", "MemGrind", "PtrCheck", "ValueAnalysis"})
    EXPECT_NE(Table.find(Name), std::string::npos);
  EXPECT_NE(Table.find("UNDEFINED"), std::string::npos);
}

TEST(Headers, RegistryServesStandardHeaders) {
  HeaderRegistry Registry;
  registerStandardHeaders(Registry);
  for (const char *Name : {"stdio.h", "stdlib.h", "string.h", "stddef.h",
                           "limits.h", "stdbool.h"})
    EXPECT_NE(Registry.find(Name), nullptr) << Name;
  EXPECT_EQ(Registry.find("threads.h"), nullptr);
}

TEST(Headers, UserHeadersResolve) {
  Driver Drv;
  Drv.headers().add("config.h", "#define ANSWER 42\n");
  DriverOutcome O = Drv.runSource("#include <config.h>\n"
                                  "int main(void) { return ANSWER - 42; }",
                                  "t.c");
  EXPECT_TRUE(O.CompileOk) << O.CompileErrors;
  EXPECT_EQ(O.ExitCode, 0);
}

TEST(Targets, Ilp32ExecutesWithNarrowTypes) {
  Driver Drv(
      AnalysisRequest::Builder().target(TargetConfig::ilp32()).buildOrDie());
  DriverOutcome O = Drv.runSource(
      "int main(void) {\n"
      "  return (int)sizeof(long) - 4 + (int)sizeof(int*) - 4;\n}\n",
      "t.c");
  EXPECT_TRUE(O.CompileOk) << O.CompileErrors;
  EXPECT_FALSE(O.anyUb()) << O.renderReport();
  EXPECT_EQ(O.ExitCode, 0);
}

TEST(Targets, Ilp32PointerBytesStillReassemble) {
  Driver Drv(
      AnalysisRequest::Builder().target(TargetConfig::ilp32()).buildOrDie());
  DriverOutcome O = Drv.runSource(
      "int main(void) {\n"
      "  int x = 9; int *p = &x; int *q;\n"
      "  unsigned char *from = (unsigned char*)&p;\n"
      "  unsigned char *to = (unsigned char*)&q;\n"
      "  unsigned i;\n"
      "  for (i = 0; i < sizeof p; i++) { to[i] = from[i]; }\n"
      "  return *q - 9;\n}\n",
      "t.c");
  EXPECT_FALSE(O.anyUb()) << O.renderReport();
  EXPECT_EQ(O.ExitCode, 0) << "4 fragment bytes suffice on ILP32";
}

TEST(Machine, StepCountAdvances) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(
      "int main(void) { int s = 0; int i;"
      " for (i = 0; i < 10; i++) { s += i; } return s - 45; }",
      "t.c");
  ASSERT_TRUE(C->ok());
  UbSink Sink;
  MachineOptions Opts;
  Machine M(C->ast(), Opts, Sink);
  EXPECT_EQ(M.run(), RunStatus::Completed);
  EXPECT_GT(M.config().Steps, 100u);
  EXPECT_EQ(M.config().ExitCode, 0);
}

TEST(Machine, StepLimitStopsRunawayPrograms) {
  Driver Drv;
  Driver::Compiled C =
      Drv.compile("int main(void) { while (1) { } return 0; }", "t.c");
  ASSERT_TRUE(C->ok());
  UbSink Sink;
  MachineOptions Opts;
  Opts.StepLimit = 5000;
  Machine M(C->ast(), Opts, Sink);
  EXPECT_EQ(M.run(), RunStatus::StepLimit)
      << "the guard() undecidability bound (paper 2.6)";
}

} // namespace
