//===- tests/test_search.cpp - Evaluation-order search tests -------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "core/Search.h"
#include "driver/Driver.h"

#include "../bench/BenchUtil.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

SearchResult searchSource(const char *Source, unsigned MaxRuns = 64,
                          Driver::Compiled *Keep = nullptr) {
  static std::vector<Driver::Compiled> Keeper;
  Driver Drv;
  Driver::Compiled C = Drv.compile(Source, "s.c");
  EXPECT_TRUE(C->ok()) << C->errors();
  MachineOptions Opts;
  OrderSearch Search(C->ast(), Opts, MaxRuns);
  SearchResult R = Search.run();
  if (Keep)
    *Keep = C;
  else
    Keeper.push_back(C); // keep the AST alive for reports
  return R;
}

TEST(Search, PaperExampleFoundOnReversedOrder) {
  SearchResult R = searchSource(
      "int d = 5;\n"
      "int setDenom(int x) { return d = x; }\n"
      "int main(void) { return (10 / d) + setDenom(0); }\n");
  EXPECT_TRUE(R.UbFound);
  ASSERT_FALSE(R.Reports.empty());
  EXPECT_EQ(R.Reports.front().Kind, UbKind::DivisionByZero);
  EXPECT_GE(R.RunsExplored, 2u) << "the default order is defined";
  EXPECT_FALSE(R.Witness.empty());
}

TEST(Search, DefinedProgramExhaustsCleanly) {
  SearchResult R = searchSource(
      "static int f(void) { return 1; }\n"
      "static int g(void) { return 2; }\n"
      "int main(void) { return f() + g() - 3; }\n");
  EXPECT_FALSE(R.UbFound);
  EXPECT_EQ(R.LastStatus, RunStatus::Completed);
}

TEST(Search, FirstRunUbNeedsNoSearch) {
  SearchResult R = searchSource(
      "int main(void) { int d = 0; return 1 / d; }\n");
  EXPECT_TRUE(R.UbFound);
  EXPECT_EQ(R.RunsExplored, 1u);
  EXPECT_TRUE(R.Witness.empty()) << "default order is the witness";
}

TEST(Search, TwoFlipDependenceFound) {
  SearchResult R = searchSource(
      "int a = 1;\n"
      "int set(int v) { a = v; return 0; }\n"
      "int main(void) { return (8 / a) + (set(0) + set(1)); }\n");
  EXPECT_TRUE(R.UbFound) << "needs the outer AND inner order reversed";
}

TEST(Search, BudgetIsRespected) {
  SearchResult R = searchSource(
      "static int f(int a, int b) { return a + b; }\n"
      "int main(void) {\n"
      "  int t = 0; int i;\n"
      "  for (i = 0; i < 6; i++) { t += f(i, i + 1) + f(i, i); }\n"
      "  return t > 0 ? 0 : 1;\n}\n",
      /*MaxRuns=*/5);
  EXPECT_FALSE(R.UbFound);
  EXPECT_LE(R.RunsExplored, 5u);
}

TEST(Search, ReplayIsDeterministic) {
  // Replaying the recorded witness must reproduce the same verdict.
  Driver Drv;
  Driver::Compiled C = Drv.compile(
      "int d = 5;\n"
      "int setDenom(int x) { return d = x; }\n"
      "int main(void) { return (10 / d) + setDenom(0); }\n",
      "replay.c");
  ASSERT_TRUE(C->ok());
  MachineOptions Opts;
  OrderSearch Search(C->ast(), Opts, 64);
  SearchResult R = Search.run();
  ASSERT_TRUE(R.UbFound);

  for (int Round = 0; Round < 3; ++Round) {
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    M.setReplayDecisions(R.Witness);
    RunStatus Status = M.run();
    EXPECT_EQ(Status, RunStatus::UbDetected);
    ASSERT_FALSE(Sink.all().empty());
    EXPECT_EQ(Sink.all().front().Kind, UbKind::DivisionByZero);
  }
}

TEST(Search, OrderPoliciesDiffer) {
  // Right-to-left alone already finds the paper's example.
  Driver Drv;
  Driver::Compiled C = Drv.compile(
      "int d = 5;\n"
      "int setDenom(int x) { return d = x; }\n"
      "int main(void) { return (10 / d) + setDenom(0); }\n",
      "rtl.c");
  ASSERT_TRUE(C->ok());

  MachineOptions Ltr;
  Ltr.Order = EvalOrderKind::LeftToRight;
  UbSink SinkL;
  Machine ML(C->ast(), Ltr, SinkL);
  EXPECT_EQ(ML.run(), RunStatus::Completed);
  EXPECT_TRUE(SinkL.empty());

  MachineOptions Rtl;
  Rtl.Order = EvalOrderKind::RightToLeft;
  UbSink SinkR;
  Machine MR(C->ast(), Rtl, SinkR);
  EXPECT_EQ(MR.run(), RunStatus::UbDetected);
  EXPECT_TRUE(SinkR.has(UbKind::DivisionByZero));
}

//===----------------------------------------------------------------------===//
// Parallel search: determinism, deduplication, cancellation.
//===----------------------------------------------------------------------===//

namespace {

/// The paper's order-dependent division by zero.
const char *PaperSource =
    "int d = 5;\n"
    "int setDenom(int x) { return d = x; }\n"
    "int main(void) { return (10 / d) + setDenom(0); }\n";

SearchResult searchWith(const Driver::Compiled &C, SearchOptions SO) {
  MachineOptions Opts;
  OrderSearch Search(C->ast(), Opts, SO);
  return Search.run();
}

} // namespace

TEST(ParallelSearch, WitnessDeterministicAcrossJobCounts) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(PaperSource, "jobs.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 64;

  SO.Jobs = 1;
  SearchResult R1 = searchWith(C, SO);
  ASSERT_TRUE(R1.UbFound);

  for (unsigned Jobs : {2u, 4u, 8u}) {
    SO.Jobs = Jobs;
    // Repeat each parallel configuration: thread scheduling must never
    // leak into the verdict or the witness.
    for (int Round = 0; Round < 3; ++Round) {
      SearchResult R = searchWith(C, SO);
      EXPECT_TRUE(R.UbFound) << "jobs=" << Jobs;
      EXPECT_EQ(R.Witness, R1.Witness) << "jobs=" << Jobs;
      ASSERT_FALSE(R.Reports.empty());
      EXPECT_EQ(R.Reports.front().Kind, R1.Reports.front().Kind);
      EXPECT_EQ(R.Reports.front().Loc.Line, R1.Reports.front().Loc.Line);
    }
  }
}

TEST(ParallelSearch, PaperExampleFoundWithJobsAndDedup) {
  // Regression: the (10/d) + setDenom(0) order must survive both the
  // dedup pruning and parallel scheduling.
  Driver Drv;
  Driver::Compiled C = Drv.compile(PaperSource, "paper_par.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 64;
  SO.Jobs = 4;
  SO.Dedup = true;
  SearchResult R = searchWith(C, SO);
  ASSERT_TRUE(R.UbFound);
  EXPECT_EQ(R.Reports.front().Kind, UbKind::DivisionByZero);
  EXPECT_FALSE(R.Witness.empty());
}

TEST(ParallelSearch, DedupPreservesVerdictAndReports) {
  // Same fingerprint => same future: pruning duplicates may change how
  // many runs execute, never what is found.
  for (const char *Source :
       {PaperSource,
        "int a = 1;\n"
        "int set(int v) { a = v; return 0; }\n"
        "int main(void) { return (8 / a) + (set(0) + set(1)); }\n",
        "int main(void) { int x = 1; return x + x++; }\n",
        "static int f(void) { return 1; }\n"
        "static int g(void) { return 2; }\n"
        "int main(void) { return f() + g() - 3; }\n"}) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "dedup.c");
    ASSERT_TRUE(C->ok());
    SearchOptions On, Off;
    On.MaxRuns = Off.MaxRuns = 4096; // ample: enumeration may need more
    On.Dedup = true;
    Off.Dedup = false;
    SearchResult ROn = searchWith(C, On);
    SearchResult ROff = searchWith(C, Off);
    EXPECT_EQ(ROn.UbFound, ROff.UbFound) << Source;
    EXPECT_EQ(ROn.Witness, ROff.Witness) << Source;
    ASSERT_EQ(ROn.Reports.size(), ROff.Reports.size()) << Source;
    for (size_t I = 0; I < ROn.Reports.size(); ++I) {
      EXPECT_EQ(ROn.Reports[I].Kind, ROff.Reports[I].Kind);
      EXPECT_EQ(ROn.Reports[I].Loc.Line, ROff.Reports[I].Loc.Line);
    }
  }
}

TEST(ParallelSearch, DedupCollapsesSymmetricInterleavings) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(cundef_bench::symmetricSums(5), "sym.c");
  ASSERT_TRUE(C->ok()) << C->errors();
  SearchOptions On, Off;
  On.MaxRuns = Off.MaxRuns = 20000;
  On.Dedup = true;
  Off.Dedup = false;
  SearchResult ROn = searchWith(C, On);
  SearchResult ROff = searchWith(C, Off);
  EXPECT_FALSE(ROn.UbFound);
  EXPECT_FALSE(ROff.UbFound);
  EXPECT_GT(ROn.DedupHits, 0u) << "symmetric states must collide";
  EXPECT_LT(ROn.RunsExplored, ROff.RunsExplored)
      << "dedup must prune the exponential interleaving space";
}

TEST(ParallelSearch, ParallelWitnessReplaysDeterministically) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(PaperSource, "replay_par.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 64;
  SO.Jobs = 4;
  SearchResult R = searchWith(C, SO);
  ASSERT_TRUE(R.UbFound);
  for (int Round = 0; Round < 3; ++Round) {
    MachineOptions Opts;
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    M.setReplayDecisions(R.Witness);
    EXPECT_EQ(M.run(), RunStatus::UbDetected);
    ASSERT_FALSE(Sink.all().empty());
    EXPECT_EQ(Sink.all().front().Kind, UbKind::DivisionByZero);
  }
}

TEST(ParallelSearch, FingerprintIsReplayStable) {
  // The dedup's foundation: identical decision prefixes must produce
  // identical configuration fingerprints in independent machines.
  Driver Drv;
  Driver::Compiled C = Drv.compile(cundef_bench::symmetricSums(2), "fp.c");
  ASSERT_TRUE(C->ok());
  MachineOptions Opts;
  auto FinalFp = [&](std::vector<uint8_t> Decisions) {
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    M.setReplayDecisions(std::move(Decisions));
    M.run();
    return M.configFingerprint();
  };
  EXPECT_EQ(FinalFp({}), FinalFp({}));
  EXPECT_EQ(FinalFp({1}), FinalFp({1}));
  // Commuting interleavings converge to the same final configuration
  // even though they took different decisions: that equality is exactly
  // what the visited-set exploits.
  EXPECT_EQ(FinalFp({}), FinalFp({1}));
}

TEST(ParallelSearch, DriverThreadsSearchJobs) {
  Driver Drv(AnalysisRequest::Builder()
                 .searchRuns(64)
                 .searchJobs(4)
                 .buildOrDie());
  DriverOutcome O = Drv.runSource(PaperSource, "drv.c");
  ASSERT_TRUE(O.CompileOk);
  EXPECT_FALSE(O.DynamicUb.empty());
  EXPECT_FALSE(O.SearchWitness.empty());
  EXPECT_EQ(O.DynamicUb.front().Kind, UbKind::DivisionByZero);

  // The same outcome with one job: verdict and witness agree.
  Driver Drv1(AnalysisRequest::Builder().searchRuns(64).buildOrDie());
  DriverOutcome O1 = Drv1.runSource(PaperSource, "drv1.c");
  EXPECT_EQ(O1.SearchWitness, O.SearchWitness);
}

TEST(Search, RandomOrderIsSeedDeterministic) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(
      "static int f(int a, int b) { return a * 10 + b; }\n"
      "int main(void) { int x = 0; return f(x = 1, x = 2) > 0 ? 0 : 1; }\n",
      "rand.c");
  ASSERT_TRUE(C->ok());
  auto RunSeed = [&](uint32_t Seed) {
    MachineOptions Opts;
    Opts.Order = EvalOrderKind::Random;
    Opts.Seed = Seed;
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    M.run();
    return Sink.size();
  };
  EXPECT_EQ(RunSeed(42), RunSeed(42)) << "same seed, same verdict";
}

} // namespace
