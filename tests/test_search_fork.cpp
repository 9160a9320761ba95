//===- tests/test_search_fork.cpp - Fork-vs-replay equivalence ----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The fork engine (core/Search.h: children resume from configuration
// snapshots captured at their choice points) must be observationally
// identical to forced prefix replay: same decision traces, same
// fingerprint streams, same witnesses, at any job count. This suite
// asserts that equivalence on the seed UB-sequence programs, plus the
// foundations it rests on: incremental fingerprints equal full-state
// rehashes at every choice point, and the visited-set key does not
// alias structured (depth, fingerprint) pairs. It also gates what a
// fork costs in heap allocations, through a counting operator new.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "core/Search.h"
#include "driver/Driver.h"

#include "../bench/BenchUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>

using namespace cundef;

namespace {

/// Heap allocations made through operator new while counting is on,
/// on any thread (the search runs on the scheduler's worker).
std::atomic<bool> CountAllocations{false};
std::atomic<uint64_t> Allocations{0};

} // namespace

void *operator new(std::size_t Size) {
  if (CountAllocations.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// Seed UB-sequence and order-dependence programs (tests/test_ub_sequence
/// and the paper's section 2.5.2 example), plus defined controls: the
/// corpus every engine comparison runs over.
const char *Corpus[] = {
    // Order-dependent division by zero (paper 2.5.2).
    "int d = 5;\n"
    "int setDenom(int x) { return d = x; }\n"
    "int main(void) { return (10 / d) + setDenom(0); }\n",
    // Unsequenced read/write pairs.
    "int main(void) { int x = 1; return x + x++; }\n",
    "int main(void) { int i = 0; i = i++; return i; }\n",
    "int main(void) { int x = 0; return (x = 1) + (x = 2); }\n",
    "static int f(int a, int b) { return a + b; }\n"
    "int main(void) { int x = 0; return f(x = 1, x = 2); }\n",
    // Nested order dependence: needs two flips.
    "int a = 1;\n"
    "int set(int v) { a = v; return 0; }\n"
    "int main(void) { return (8 / a) + (set(0) + set(1)); }\n",
    // Defined controls with commuting choice points.
    "static int f(void) { return 1; }\n"
    "static int g(void) { return 2; }\n"
    "int main(void) { return f() + g() - 3; }\n",
    "static int g(int x) { return x + 1; }\n"
    "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
    "  t += g(4) + g(5); return t > 0 ? 0 : 1; }\n",
};

SearchResult searchWith(const Driver::Compiled &C, SearchOptions SO) {
  MachineOptions Opts;
  OrderSearch Search(C->ast(), Opts, SO);
  return Search.run();
}

void expectSameVerdict(const SearchResult &A, const SearchResult &B,
                       const char *Source) {
  EXPECT_EQ(A.UbFound, B.UbFound) << Source;
  EXPECT_EQ(A.Witness, B.Witness) << Source;
  ASSERT_EQ(A.Reports.size(), B.Reports.size()) << Source;
  for (size_t I = 0; I < A.Reports.size(); ++I) {
    EXPECT_EQ(A.Reports[I].Kind, B.Reports[I].Kind) << Source;
    EXPECT_EQ(A.Reports[I].Loc.Line, B.Reports[I].Loc.Line) << Source;
  }
}

} // namespace

TEST(ForkSearch, EquivalentToReplayAtJobs1) {
  // At one thread everything is deterministic, so the comparison is
  // total: every run's pinned prefix, full decision trace, fingerprint
  // stream, status, and dedup outcome must match between engines. Only
  // the Forked start-mode marker may differ.
  for (const char *Source : Corpus) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "fork1.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions Fork;
    Fork.MaxRuns = 256;
    Fork.Jobs = 1;
    Fork.UseSnapshots = true;
    Fork.CollectRuns = true;
    SearchOptions Replay = Fork;
    Replay.UseSnapshots = false;

    SearchResult RF = searchWith(C, Fork);
    SearchResult RR = searchWith(C, Replay);
    expectSameVerdict(RF, RR, Source);
    EXPECT_EQ(RF.RunsExplored, RR.RunsExplored) << Source;
    EXPECT_EQ(RF.DedupHits, RR.DedupHits) << Source;
    EXPECT_EQ(RF.SubtreesPruned, RR.SubtreesPruned) << Source;
    EXPECT_EQ(RF.Waves, RR.Waves) << Source;
    EXPECT_EQ(RR.ForkedRuns, 0u) << Source;

    ASSERT_EQ(RF.Runs.size(), RR.Runs.size()) << Source;
    for (size_t I = 0; I < RF.Runs.size(); ++I) {
      const SearchRunRecord &F = RF.Runs[I];
      const SearchRunRecord &R = RR.Runs[I];
      EXPECT_EQ(F.Pinned, R.Pinned) << Source << " run " << I;
      EXPECT_EQ(F.Trace, R.Trace) << Source << " run " << I
                                  << ": decision traces diverge";
      EXPECT_EQ(F.FpStream, R.FpStream)
          << Source << " run " << I << ": fingerprint streams diverge";
      EXPECT_EQ(F.Status, R.Status) << Source << " run " << I;
      EXPECT_EQ(F.DedupAborted, R.DedupAborted) << Source << " run " << I;
    }
  }
}

TEST(ForkSearch, EquivalentToReplayAtJobs4) {
  // With workers, runs cancelled by a concurrently found witness may
  // record partial streams, but the committed outputs — verdict,
  // witness, reports — are deterministic and must match across engines
  // and repetitions.
  for (const char *Source : Corpus) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "fork4.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions Fork;
    Fork.MaxRuns = 256;
    Fork.Jobs = 4;
    Fork.UseSnapshots = true;
    SearchOptions Replay = Fork;
    Replay.UseSnapshots = false;

    SearchResult RF0 = searchWith(C, Fork);
    for (int Round = 0; Round < 3; ++Round) {
      SearchResult RF = searchWith(C, Fork);
      SearchResult RR = searchWith(C, Replay);
      expectSameVerdict(RF, RR, Source);
      expectSameVerdict(RF, RF0, Source);
    }
  }
}

TEST(ForkSearch, ForkingActuallyHappens) {
  // Guard against the engine silently degrading to replay-only: on a
  // multi-wave program with the default budget, children must fork.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[7], "forked.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 256;
  SearchResult R = searchWith(C, SO);
  EXPECT_GT(R.ForkedRuns, 0u);
  EXPECT_GT(R.RunsExplored, 1u);
}

TEST(ForkSearch, SnapshotBudgetZeroFallsBackToReplay) {
  for (const char *Source : {Corpus[0], Corpus[5], Corpus[7]}) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "budget.c");
    ASSERT_TRUE(C->ok());
    SearchOptions Capped;
    Capped.MaxRuns = 256;
    Capped.UseSnapshots = true;
    Capped.SnapshotBudget = 0; // every capture is declined
    SearchOptions Free = Capped;
    Free.SnapshotBudget = 1024;

    SearchResult RCap = searchWith(C, Capped);
    SearchResult RFree = searchWith(C, Free);
    EXPECT_EQ(RCap.ForkedRuns, 0u) << Source;
    expectSameVerdict(RCap, RFree, Source);
    EXPECT_EQ(RCap.RunsExplored, RFree.RunsExplored) << Source;
  }
}

TEST(ForkSearch, TinySnapshotBudgetStillCorrect) {
  // A budget of 1 forces constant admission churn: most children fall
  // back to replay, a few fork. Outcomes must not change.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[5], "tiny.c");
  ASSERT_TRUE(C->ok());
  SearchOptions Tiny;
  Tiny.MaxRuns = 256;
  Tiny.SnapshotBudget = 1;
  SearchOptions Free = Tiny;
  Free.SnapshotBudget = 1024;
  expectSameVerdict(searchWith(C, Tiny), searchWith(C, Free), Corpus[5]);
}

TEST(ForkSearch, IncrementalFingerprintEqualsFullRehash) {
  // The incremental digests (cached memory objects, k prefix hashes,
  // sequencing-set sums, frame caches) must agree with a from-scratch
  // rehash at every choice point of a real run — this is the
  // correctness argument for every cache, exercised over programs that
  // hit arrays, structs, heap allocation, strings, and scope exit.
  const char *Programs[] = {
      Corpus[0],
      Corpus[7],
      "int buf[64];\n"
      "static int g(int x) { buf[x % 64] += x; return x + 1; }\n"
      "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
      "  return t > 0 ? 0 : 1; }\n",
      "typedef struct { int a; int b; } P;\n"
      "static int f(P *p) { p->a += p->b; return p->a; }\n"
      "int main(void) { P p; p.a = 1; p.b = 2;\n"
      "  return f(&p) + f(&p) - 8 ? 1 : 0; }\n",
      "#include <stdlib.h>\n"
      "static int g(int x) {\n"
      "  int *p = malloc(sizeof(int)); *p = x; x = *p; free(p);\n"
      "  return x; }\n"
      "int main(void) { int t = g(1) + g(2); return t - 3; }\n",
      // Pointer fragments everywhere: a struct of pointers copied by
      // memcpy and byte by byte, one pointer reassembled, single
      // fragments read as opaque bytes and passed along, and the copies
      // passed by value, so subObject bytes sit in memory, in operand
      // results and in aggregate values at the choice points.
      "#include <string.h>\n"
      "struct Node { int *p; int *q; int v; };\n"
      "static int g(int x) { return x + 1; }\n"
      "static int keep(unsigned char c, int x) {\n"
      "  unsigned char d = c; d = c; return x; }\n"
      "static int sum(struct Node n, int x) {\n"
      "  return *n.p + *n.q + n.v + x; }\n"
      "int main(void) { int a = 1, b = 2; struct Node n, m, k;\n"
      "  n.p = &a; n.q = &b; n.v = 3;\n"
      "  memcpy(&m, &n, sizeof n);\n"
      "  unsigned char *dst = (unsigned char *)&k;\n"
      "  const unsigned char *src = (const unsigned char *)&n;\n"
      "  for (unsigned i = 0; i < sizeof n; i++) dst[i] = src[i];\n"
      "  int *r = k.p;\n"
      "  unsigned char one = ((unsigned char *)&m.q)[3];\n"
      "  int t = g(*m.p) + g(*r);\n"
      "  t += keep(one, g(0)) + keep(((unsigned char *)&k.p)[5], g(1));\n"
      "  t += sum(m, g(2)) + sum(k, g(3));\n"
      "  return t == 26 ? 0 : 1; }\n",
  };
  for (const char *Source : Programs) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "incr.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    MachineOptions Opts;
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    unsigned Checked = 0;
    M.setChoiceHook([&](Machine &Mach) {
      EXPECT_EQ(Mach.configFingerprint(), Mach.configFingerprintFull())
          << Source << " at choice point " << Mach.decisionTrace().size();
      ++Checked;
      return true;
    });
    M.run();
    EXPECT_GT(Checked, 0u) << Source;
    EXPECT_EQ(M.configFingerprint(), M.configFingerprintFull()) << Source;
    if (Source == Programs[5]) {
      // The fragment program is defined: every choice point above was
      // reached with the fragments live.
      EXPECT_EQ(M.config().Status, RunStatus::Completed);
      EXPECT_EQ(M.config().ExitCode, 0);
      EXPECT_TRUE(Sink.empty());
    }
  }
}

TEST(ForkSearch, FullRehashSearchMatchesIncremental) {
  // End-to-end version of the same equivalence: a search whose dedup
  // keys come from full rehashes must make the identical decisions —
  // runs, hits, fingerprint streams — as one using the incremental
  // path.
  for (const char *Source : {Corpus[0], Corpus[5], Corpus[7]}) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "rehash.c");
    ASSERT_TRUE(C->ok());
    SearchOptions Incr;
    Incr.MaxRuns = 256;
    Incr.Jobs = 1;
    Incr.CollectRuns = true;
    SearchOptions Full = Incr;
    Full.FullRehash = true;

    SearchResult RI = searchWith(C, Incr);
    SearchResult RO = searchWith(C, Full);
    expectSameVerdict(RI, RO, Source);
    EXPECT_EQ(RI.DedupHits, RO.DedupHits) << Source;
    ASSERT_EQ(RI.Runs.size(), RO.Runs.size()) << Source;
    for (size_t I = 0; I < RI.Runs.size(); ++I)
      EXPECT_EQ(RI.Runs[I].FpStream, RO.Runs[I].FpStream)
          << Source << " run " << I;
  }
}

TEST(ForkSearch, VisitKeyCollisionRegression) {
  // The old key was fp ^ (depth * phi): every pair on a phi-stride line
  // collapsed to one key — (d, X ^ d*phi) aliased for all d. The mixed
  // key must keep all such adversarial families distinct.
  constexpr uint64_t Phi = 0x9e3779b97f4a7c15ull;
  std::set<std::pair<uint64_t, uint64_t>> Pairs;
  for (uint64_t Base : {uint64_t(0), uint64_t(1), Phi,
                        uint64_t(0xdeadbeef)}) {
    for (uint64_t Depth = 0; Depth < 64; ++Depth) {
      // Adversarial: the old scheme maps every one of these to Base.
      Pairs.emplace(Depth, Base ^ (Depth * Phi));
      // And the plain grid around small fingerprints.
      Pairs.emplace(Depth, Base + Depth);
    }
  }
  std::set<uint64_t> Keys;
  for (const auto &[Depth, Fp] : Pairs)
    Keys.insert(searchVisitKey(Depth, Fp));
  EXPECT_EQ(Keys.size(), Pairs.size()) << "distinct (depth, fp) pairs alias";

  // The concrete aliases that motivated the fix.
  EXPECT_NE(searchVisitKey(0, Phi), searchVisitKey(1, 0));
  EXPECT_NE(searchVisitKey(2, 0), searchVisitKey(0, 2 * Phi));
}

TEST(ForkSearch, JobsZeroAutoDetects) {
  // --search-jobs=0 resolves to hardware concurrency inside the search;
  // verdict and witness are job-count independent, so the observable
  // contract is simply "same results, no crash".
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[0], "auto.c");
  ASSERT_TRUE(C->ok());
  SearchOptions One;
  One.MaxRuns = 64;
  One.Jobs = 1;
  SearchOptions Auto = One;
  Auto.Jobs = 0;
  expectSameVerdict(searchWith(C, Auto), searchWith(C, One), Corpus[0]);

  Driver DrvAuto(AnalysisRequest::Builder()
                     .searchRuns(64)
                     .searchJobs(0)
                     .buildOrDie());
  DriverOutcome O = DrvAuto.runSource(Corpus[0], "auto_drv.c");
  ASSERT_TRUE(O.CompileOk);
  EXPECT_FALSE(O.DynamicUb.empty());
}

TEST(ForkSearch, TruncationIsReported) {
  // A budget too small for the frontier must be called out, never
  // silently absorbed. The symmetric program's first wave alone exceeds
  // MaxRuns=2.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[7], "trunc.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 2;
  SearchResult R = searchWith(C, SO);
  EXPECT_FALSE(R.UbFound);
  EXPECT_TRUE(R.FrontierTruncated);
  EXPECT_GT(R.DroppedSubtrees, 0u);

  // An ample budget explores everything: no truncation flag.
  SO.MaxRuns = 4096;
  SearchResult RFull = searchWith(C, SO);
  EXPECT_FALSE(RFull.FrontierTruncated);
  EXPECT_EQ(RFull.DroppedSubtrees, 0u);

  // The driver surfaces it for kcc --show-witness.
  Driver DrvT(AnalysisRequest::Builder().searchRuns(2).buildOrDie());
  DriverOutcome O = DrvT.runSource(Corpus[7], "trunc_drv.c");
  ASSERT_TRUE(O.CompileOk);
  EXPECT_TRUE(O.SearchTruncated);
  EXPECT_GT(O.SearchDropped, 0u);
}

TEST(ForkSearch, DeepTreesFinishWithinBudget) {
  // Each line `t += g(i) + g(j)` of the deep tree has two real choice
  // points: the sum of the two calls, and the compound assignment around
  // it. The lists inside g, and each call's callee and argument, are
  // order-free and forced. At budget 512 the 10-, 14- and 18-pair trees used to be
  // truncated; they now finish in 6 runs per pair, less 2.
  for (unsigned Pairs : {10u, 14u, 18u}) {
    Driver Drv;
    Driver::Compiled C =
        Drv.compile(cundef_bench::deepTreeProgram(Pairs, 512), "tree.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions SO;
    SO.MaxRuns = 512;
    SearchResult R = searchWith(C, SO);
    EXPECT_FALSE(R.UbFound) << Pairs;
    EXPECT_FALSE(R.FrontierTruncated) << Pairs;
    EXPECT_EQ(R.DroppedSubtrees, 0u) << Pairs;
    EXPECT_EQ(R.RunsExplored, 6 * Pairs - 2) << Pairs;
  }
}

TEST(ForkSearch, WitnessReplaysOutsideTheEngine) {
  // A witness found by the fork engine must reproduce on a plain
  // machine via setReplayDecisions — forks never leak into the
  // reported decision vector.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[5], "replayw.c");
  ASSERT_TRUE(C->ok());
  SearchOptions SO;
  SO.MaxRuns = 256;
  SearchResult R = searchWith(C, SO);
  ASSERT_TRUE(R.UbFound);
  ASSERT_FALSE(R.Witness.empty());
  for (int Round = 0; Round < 3; ++Round) {
    MachineOptions Opts;
    UbSink Sink;
    Machine M(C->ast(), Opts, Sink);
    M.setReplayDecisions(R.Witness);
    EXPECT_EQ(M.run(), RunStatus::UbDetected);
    ASSERT_FALSE(Sink.all().empty());
    EXPECT_EQ(Sink.all().front().Kind, R.Reports.front().Kind);
  }
}

TEST(ForkSearch, AllocationsPerRunStayBounded) {
  // Copying a configuration (every snapshot capture, every fork) costs
  // one allocation per cell, not one per memory object or rule; the
  // rule chains are built once per process. One warmed-up search of the
  // 90x512 deep tree at budget 512 on one worker, with no snapshot
  // evicted, must stay within 100 allocations per executed run. Its 180
  // real choice points need 538 runs to exhaust, so the budget binds
  // and every run after the first is a fork.
  Driver Drv;
  Driver::Compiled C =
      Drv.compile(cundef_bench::deepTreeProgram(90, 512), "alloc.c");
  ASSERT_TRUE(C->ok()) << C->errors();
  SearchOptions SO;
  SO.MaxRuns = 512;
  SearchScheduler::Config Cfg;
  Cfg.Jobs = 1;
  Cfg.SnapshotBudget = SO.SnapshotBudget;
  SearchScheduler Sched(Cfg);
  auto Search = [&] {
    size_t Id = Sched.submit(C->ast(), MachineOptions(), SO);
    Sched.drain();
    return Sched.takeResult(Id);
  };
  Search(); // warm-up: starts the pool and any lazy set-up

  const SchedulerStats Before = Sched.stats();
  Allocations = 0;
  CountAllocations = true;
  const SearchResult R = Search();
  CountAllocations = false;
  const SchedulerStats After = Sched.stats();

  const uint64_t Runs = After.RunsExecuted - Before.RunsExecuted;
  ASSERT_EQ(R.RunsExplored, 512u);
  ASSERT_EQ(Runs, 512u);
  ASSERT_EQ(After.SnapshotEvictions, Before.SnapshotEvictions);
  ASSERT_GT(R.ForkedRuns, 0u);
  const double PerRun = static_cast<double>(Allocations.load()) / Runs;
  EXPECT_LE(PerRun, 100.0) << Allocations.load() << " allocations over "
                           << Runs << " runs";
  RecordProperty("allocations_per_run", std::to_string(PerRun));
}
