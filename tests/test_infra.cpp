//===- tests/test_infra.cpp - Supporting infrastructure tests -----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// AST printing, the order chooser, configuration rendering, the k
// cell's lazy digests, the tool comparison renderer, header registry,
// and cross-target execution.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "AstPrinter.h"
#include "core/EvalOrder.h"
#include "core/Machine.h"
#include "driver/ToolRunner.h"
#include "libc/Headers.h"

#include <random>

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

/// The operand indices of \p Order, in evaluation order.
static std::vector<uint8_t> indices(const OperandOrder &Order) {
  return std::vector<uint8_t>(Order.begin(), Order.end());
}

TEST(EvalOrder, PoliciesProducePermutations) {
  OrderChooser Ltr(EvalOrderKind::LeftToRight, 1);
  EXPECT_EQ(indices(Ltr.choose(3)), (std::vector<uint8_t>{0, 1, 2}));
  OrderChooser Rtl(EvalOrderKind::RightToLeft, 1);
  EXPECT_EQ(indices(Rtl.choose(3)), (std::vector<uint8_t>{2, 1, 0}));
  OrderChooser Rand(EvalOrderKind::Random, 7);
  std::vector<uint8_t> P = indices(Rand.choose(4));
  std::vector<uint8_t> Sorted = P;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(Sorted, (std::vector<uint8_t>{0, 1, 2, 3}))
      << "a permutation, whatever the order";
}

TEST(EvalOrder, ReplayOverridesPolicy) {
  OrderChooser Chooser(EvalOrderKind::LeftToRight, 1);
  Chooser.setReplay({1, 0});
  EXPECT_EQ(indices(Chooser.choose(2)), (std::vector<uint8_t>{1, 0}));
  EXPECT_EQ(indices(Chooser.choose(2)), (std::vector<uint8_t>{0, 1}));
  // Replay exhausted: the policy takes over.
  EXPECT_EQ(indices(Chooser.choose(2)), (std::vector<uint8_t>{0, 1}));
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

TEST(EvalOrder, OrdersCopyAndMoveInlineAndSpilled) {
  for (unsigned N : {0u, 2u, 7u, 8u, OperandOrder::MaxOperands}) {
    OperandOrder Order(N);
    std::reverse(Order.data(), Order.data() + N);
    OperandOrder Copy(Order);
    EXPECT_EQ(indices(Copy), indices(Order)) << N;
    OperandOrder Moved(std::move(Copy));
    EXPECT_EQ(indices(Moved), indices(Order)) << N;
    EXPECT_EQ(Copy.size(), 0u) << "a moved-from order is empty";
    Copy = Moved;
    Moved = OperandOrder(3);
    EXPECT_EQ(indices(Copy), indices(Order)) << N;
    EXPECT_EQ(indices(Moved), (std::vector<uint8_t>{0, 1, 2})) << N;
    if (N)
      EXPECT_EQ(Copy[N - 1], 0) << N;
  }
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

/// A k item with fabricated node pointers: kItemDigest hashes them as
/// identities and never dereferences them.
KItem randomItem(std::mt19937 &Rng) {
  auto Node = [&] { return reinterpret_cast<const Expr *>(8 * (Rng() % 64 + 1)); };
  switch (Rng() % 4) {
  case 0:
    return KItem::expr(Node());
  case 1: {
    KItem Item = KItem::forExpr(KKind::EvalOperands, Node());
    Item.Perm = OperandOrder(Rng() % 12 + 1); // some spill
    Item.Idx = static_cast<uint8_t>(Rng() % Item.Perm.size());
    return Item;
  }
  case 2: {
    KItem Item = KItem::simple(KKind::LeaveBlock);
    Item.ObjectsToKill.assign(Rng() % 3, static_cast<uint32_t>(Rng()));
    return Item;
  }
  default:
    return KItem::simple(KKind::SeqPoint);
  }
}

TEST(KCell, LazyDigestsMatchFullRecomputation) {
  // Eager is fingerprinted after every operation; Lazy, which sees the
  // same operations, only now and then, so its prefix digests lag by
  // many items when it is copied, popped below its hashed prefix,
  // updated in place, or pushed onto again. Both must always agree with a from-scratch
  // recomputation, and so must copies that then diverge.
  for (unsigned Seed = 1; Seed <= 20; ++Seed) {
    std::mt19937 Rng(Seed);
    KCell Eager, Lazy;
    for (unsigned Op = 0; Op < 400; ++Op) {
      switch (Rng() % 7) {
      case 0:
      case 1:
      case 2: {
        KItem Item = randomItem(Rng);
        Eager.push_back(Item);
        Lazy.push_back(std::move(Item));
        break;
      }
      case 3:
        if (!Eager.empty()) {
          EXPECT_EQ(kItemDigest(Eager.take()), kItemDigest(Lazy.take()));
        }
        break;
      case 4:
        if (!Eager.empty()) {
          Eager.pop_back();
          Lazy.pop_back();
        }
        break;
      case 5:
        // Advance the top item in place, as an operand list does.
        if (!Eager.empty()) {
          ++Eager.mutableBack().Idx;
          ++Lazy.mutableBack().Idx;
        }
        break;
      case 6: {
        // Copy, diverge the copy, and carry on with a second copy.
        KCell Fork(Lazy);
        Fork.push_back(randomItem(Rng));
        EXPECT_EQ(Fork.digest(), Fork.computeDigest()) << "seed " << Seed;
        KCell Again;
        Again = Lazy;
        Lazy = std::move(Again);
        // Moved-from cells are empty and usable again.
        KCell Moved(std::move(Fork));
        EXPECT_EQ(Moved.digest(), Moved.computeDigest()) << "seed " << Seed;
        for (KCell *Empty : {&Again, &Fork}) {
          EXPECT_TRUE(Empty->empty());
          Empty->push_back(randomItem(Rng));
          EXPECT_EQ(Empty->digest(), Empty->computeDigest())
              << "seed " << Seed;
        }
        break;
      }
      }
      ASSERT_EQ(Eager.digest(), Eager.computeDigest())
          << "seed " << Seed << " op " << Op;
      if (Rng() % 8 == 0) {
        ASSERT_EQ(Lazy.digest(), Lazy.computeDigest())
            << "seed " << Seed << " op " << Op;
        ASSERT_EQ(Lazy.digest(), Eager.digest());
      }
    }
    EXPECT_EQ(Lazy.size(), Eager.size());
    EXPECT_EQ(Lazy.digest(), Eager.digest());
  }
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
                           "limits.h", "stdbool.h"}) {
    const LexedHeader *Header = Registry.lexed(Name);
    ASSERT_NE(Header, nullptr) << Name;
    EXPECT_FALSE(Header->Tokens.empty()) << Name;
    EXPECT_TRUE(Header->Diags.empty()) << Name;
  }
  EXPECT_EQ(Registry.lexed("threads.h"), nullptr);
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
