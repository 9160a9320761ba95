//===- tests/test_scheduler.cpp - Work-stealing scheduler tests ---------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The work-stealing scheduler (core/Scheduler.h) must commit outputs
// byte-identical to the wave engine's: same witnesses, reports, run
// counts, dedup hits, pruned subtrees, and truncation accounting, at
// any job count, because its canonical commit wavefront replays the
// wave engine's barrier order while execution proceeds speculatively.
// This suite asserts that equivalence, the agreement of every engine
// generation (exhaustive enumeration, replay, fork, steal) on the
// paper's section 2.5.2 programs, the LRU snapshot cache's replay
// fallback under thrash, and the batched driver's per-program
// aggregation ordering.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "driver/Driver.h"
#include "driver/ToolRunner.h"
#include "suites/JulietGen.h"
#include "suites/SuiteRunner.h"

#include "../bench/BenchUtil.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>

using namespace cundef;

namespace {

/// UB-by-order programs, defined controls, and commuting-choice-point
/// trees: the corpus every wave-vs-stealing comparison runs over.
const char *Corpus[] = {
    // Order-dependent division by zero (paper 2.5.2).
    "int d = 5;\n"
    "int setDenom(int x) { return d = x; }\n"
    "int main(void) { return (10 / d) + setDenom(0); }\n",
    // Unsequenced read/write.
    "int main(void) { int x = 1; return x + x++; }\n",
    // Nested order dependence: needs two flips.
    "int a = 1;\n"
    "int set(int v) { a = v; return 0; }\n"
    "int main(void) { return (8 / a) + (set(0) + set(1)); }\n",
    // Defined control with commuting choice points.
    "static int f(void) { return 1; }\n"
    "static int g(void) { return 2; }\n"
    "int main(void) { return f() + g() - 3; }\n",
    // Deeper commuting tree (the dedup's best case).
    "static int g(int x) { return x + 1; }\n"
    "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
    "  t += g(4) + g(5); return t > 0 ? 0 : 1; }\n",
};

/// Whether the program is undefined on some order (clean programs get
/// the full-counter comparison; UB programs end at a timing-dependent
/// point in the wave engine at jobs > 1, so only committed outputs are
/// compared there).
bool isClean(const char *Source) {
  return Source == Corpus[3] || Source == Corpus[4];
}

SearchResult searchWith(const Driver::Compiled &C, SearchOptions SO) {
  MachineOptions Opts;
  OrderSearch Search(C->ast(), Opts, SO);
  return Search.run();
}

/// The wave-synchronous reference engine every scheduler result is
/// compared against.
SearchResult searchReference(const Driver::Compiled &C, SearchOptions SO) {
  MachineOptions Opts;
  OrderSearch Search(C->ast(), Opts, SO);
  return Search.runReference();
}

/// Stealing search with the hardware clamp disabled, so the requested
/// worker count really runs even on a 1-core CI machine — the
/// determinism contract must survive genuine cross-thread
/// interleaving, not just a degenerate single-worker pool.
SearchResult searchStealForced(const Driver::Compiled &C, SearchOptions SO,
                               unsigned Workers) {
  SearchScheduler::Config Cfg;
  Cfg.Jobs = Workers;
  Cfg.ClampJobsToHardware = false;
  Cfg.SnapshotBudget = SO.SnapshotBudget;
  SearchScheduler Scheduler(Cfg);
  MachineOptions Opts;
  size_t Id = Scheduler.submit(C->ast(), Opts, SO);
  Scheduler.drain();
  return Scheduler.takeResult(Id);
}

void expectSameVerdict(const SearchResult &A, const SearchResult &B,
                       const char *Tag) {
  EXPECT_EQ(A.UbFound, B.UbFound) << Tag;
  EXPECT_EQ(A.Witness, B.Witness) << Tag;
  ASSERT_EQ(A.Reports.size(), B.Reports.size()) << Tag;
  for (size_t I = 0; I < A.Reports.size(); ++I) {
    EXPECT_EQ(A.Reports[I].Kind, B.Reports[I].Kind) << Tag;
    EXPECT_EQ(A.Reports[I].Loc.Line, B.Reports[I].Loc.Line) << Tag;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Wave vs stealing byte-equality.
//===----------------------------------------------------------------------===//

TEST(Scheduler, WaveVsStealingWitnessEquality) {
  // Committed outputs must agree between schedulers at jobs 1 through
  // 32 (forced past the hardware clamp) — and across repetitions, so
  // steal interleaving never leaks in.
  for (const char *Source : Corpus) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "sched.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions Wave;
    Wave.MaxRuns = 256;
    Wave.Jobs = 1;
    SearchResult RW = searchReference(C, Wave);

    for (unsigned Jobs : {1u, 2u, 8u, 16u, 32u}) {
      SearchOptions Steal;
      Steal.MaxRuns = 256;
      Steal.Jobs = Jobs;
      for (int Round = 0; Round < 3; ++Round) {
        SearchResult RS = searchStealForced(C, Steal, Jobs);
        expectSameVerdict(RW, RS, Source);
        if (isClean(Source) || Jobs == 1) {
          // The full deterministic stats contract.
          EXPECT_EQ(RW.RunsExplored, RS.RunsExplored)
              << Source << " jobs=" << Jobs;
          EXPECT_EQ(RW.DedupHits, RS.DedupHits) << Source << " jobs=" << Jobs;
          EXPECT_EQ(RW.SubtreesPruned, RS.SubtreesPruned)
              << Source << " jobs=" << Jobs;
          EXPECT_EQ(RW.Waves, RS.Waves) << Source << " jobs=" << Jobs;
          EXPECT_EQ(RW.FrontierTruncated, RS.FrontierTruncated) << Source;
          EXPECT_EQ(RW.DroppedSubtrees, RS.DroppedSubtrees) << Source;
        }
      }
    }
  }
}

TEST(Scheduler, WaveVsStealingTraceByteEquality) {
  // At jobs=1 the stealing scheduler's speculative layer is exactly in
  // step with its commit wavefront, so every per-run record — pinned
  // prefix, decision trace, fingerprint stream, status, dedup outcome —
  // must be byte-identical to the wave engine's. Only the Forked
  // start-mode marker may differ (snapshot lifetimes differ).
  for (const char *Source : Corpus) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "trace.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions SO;
    SO.MaxRuns = 256;
    SO.Jobs = 1;
    SO.CollectRuns = true;

    SearchResult RW = searchReference(C, SO);
    SearchResult RS = searchWith(C, SO);
    expectSameVerdict(RW, RS, Source);
    ASSERT_EQ(RW.Runs.size(), RS.Runs.size()) << Source;
    for (size_t I = 0; I < RW.Runs.size(); ++I) {
      const SearchRunRecord &W = RW.Runs[I];
      const SearchRunRecord &S = RS.Runs[I];
      EXPECT_EQ(W.Pinned, S.Pinned) << Source << " run " << I;
      EXPECT_EQ(W.Trace, S.Trace)
          << Source << " run " << I << ": decision traces diverge";
      EXPECT_EQ(W.FpStream, S.FpStream)
          << Source << " run " << I << ": fingerprint streams diverge";
      EXPECT_EQ(W.Status, S.Status) << Source << " run " << I;
      EXPECT_EQ(W.DedupAborted, S.DedupAborted) << Source << " run " << I;
    }
  }
}

TEST(Scheduler, SpeculationNeverChangesCommittedRunRecords) {
  // Speculative runs consult the visited-set mid-flight and may run
  // ahead of the commit wavefront by whole generations. This is the
  // strongest equality we can demand: at forced 16 and 32 workers —
  // far past this tree's frontier — every per-run record (pinned
  // prefix, decision trace, fingerprint stream, status, dedup outcome)
  // must still be byte-identical to the wave engine's, every round. A
  // speculative stop that finalization failed to recompute would
  // surface here as a shortened trace or a flipped DedupAborted.
  for (const char *Source : {Corpus[3], Corpus[4]}) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "spec.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions Wave;
    Wave.MaxRuns = 256;
    Wave.Jobs = 1;
    Wave.CollectRuns = true;
    SearchResult RW = searchReference(C, Wave);

    for (unsigned Workers : {16u, 32u}) {
      SearchOptions Steal = Wave;
      Steal.Jobs = Workers;
      for (int Round = 0; Round < 4; ++Round) {
        SearchResult RS = searchStealForced(C, Steal, Workers);
        expectSameVerdict(RW, RS, Source);
        EXPECT_EQ(RW.RunsExplored, RS.RunsExplored)
            << Source << " workers=" << Workers;
        EXPECT_EQ(RW.DedupHits, RS.DedupHits)
            << Source << " workers=" << Workers;
        EXPECT_EQ(RW.SubtreesPruned, RS.SubtreesPruned)
            << Source << " workers=" << Workers;
        EXPECT_EQ(RW.Waves, RS.Waves) << Source << " workers=" << Workers;
        ASSERT_EQ(RW.Runs.size(), RS.Runs.size())
            << Source << " workers=" << Workers;
        for (size_t I = 0; I < RW.Runs.size(); ++I) {
          const SearchRunRecord &W = RW.Runs[I];
          const SearchRunRecord &S = RS.Runs[I];
          EXPECT_EQ(W.Pinned, S.Pinned)
              << Source << " workers=" << Workers << " run " << I;
          EXPECT_EQ(W.Trace, S.Trace)
              << Source << " workers=" << Workers << " run " << I
              << ": committed trace changed under speculation";
          EXPECT_EQ(W.FpStream, S.FpStream)
              << Source << " workers=" << Workers << " run " << I;
          EXPECT_EQ(W.Status, S.Status)
              << Source << " workers=" << Workers << " run " << I;
          EXPECT_EQ(W.DedupAborted, S.DedupAborted)
              << Source << " workers=" << Workers << " run " << I;
        }
      }
    }
  }
  // UB-by-order programs: committed verdict/witness equality at the
  // same forced worker counts (full per-run equality is a clean-tree
  // contract; a winning witness ends the wave engine mid-generation).
  for (const char *Source : {Corpus[0], Corpus[2]}) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "specub.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    SearchOptions Wave;
    Wave.MaxRuns = 256;
    SearchResult RW = searchReference(C, Wave);
    for (unsigned Workers : {16u, 32u})
      for (int Round = 0; Round < 4; ++Round)
        expectSameVerdict(RW, searchStealForced(C, Wave, Workers), Source);
  }
}

//===----------------------------------------------------------------------===//
// Engine generations (paper section 2.5.2).
//===----------------------------------------------------------------------===//

namespace {

/// The section 2.5.2 program and its mirror, the other order-dependent
/// shapes, and three trees where enumeration is exponential: commuting
/// sums without and with hidden UB, and the deep tree.
std::vector<std::string> generationCorpus() {
  return {Corpus[0],
          "int d = 5;\n"
          "int setDenom(int x) { return d = x; }\n"
          "int main(void) { return setDenom(0) + (10 / d); }\n",
          Corpus[1],
          Corpus[2],
          cundef_bench::symmetricSums(6),
          cundef_bench::symmetricSums(6, /*HiddenUb=*/true),
          cundef_bench::deepTreeProgram(8, 256)};
}

/// The fork engine's options at budget 192: dedup, snapshots and
/// incremental digests all on.
SearchOptions forkOptions(unsigned Jobs = 1) {
  SearchOptions SO;
  SO.MaxRuns = 192;
  SO.Jobs = Jobs;
  return SO;
}

} // namespace

TEST(Scheduler, TruncationAccountingMatchesWave) {
  // Every budget edge must commit the wave engine's counters: the
  // stealing scheduler applies the budget at generation seal, exactly
  // where the wave engine's barrier applied it, and its leaf generation
  // (the last one the budget runs) counts the children it never
  // spawns, which must equal what the wave engine dropped.
  std::vector<std::string> Sources = generationCorpus();
  Sources.push_back(Corpus[4]);
  for (const std::string &Source : Sources) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "trunc.c");
    ASSERT_TRUE(C->ok()) << C->errors();
    for (unsigned MaxRuns = 1; MaxRuns <= 40; ++MaxRuns) {
      SearchOptions SO;
      SO.MaxRuns = MaxRuns;
      const SearchResult RW = searchReference(C, SO);
      for (unsigned Workers : {1u, 4u}) {
        const SearchResult RS = searchStealForced(C, SO, Workers);
        const std::string Tag = "budget " + std::to_string(MaxRuns) +
                                " workers " + std::to_string(Workers) +
                                "\n" + Source;
        EXPECT_EQ(RW.Witness, RS.Witness) << Tag;
        EXPECT_EQ(RW.RunsExplored, RS.RunsExplored) << Tag;
        EXPECT_EQ(RW.DedupHits, RS.DedupHits) << Tag;
        EXPECT_EQ(RW.SubtreesPruned, RS.SubtreesPruned) << Tag;
        EXPECT_EQ(RW.Waves, RS.Waves) << Tag;
        EXPECT_EQ(RW.DroppedSubtrees, RS.DroppedSubtrees) << Tag;
        EXPECT_EQ(RW.FrontierTruncated, RS.FrontierTruncated) << Tag;
      }
    }
  }
}

TEST(Scheduler, LeafGenerationCapturesNoSnapshots) {
  // At budget 1 + |generation 1| the root's children are the last
  // generation the budget runs. They capture nothing, so every capture
  // is the root's, taken by the child it was captured for.
  Driver Drv;
  Driver::Compiled C =
      Drv.compile(cundef_bench::deepTreeProgram(8, 256), "leaf.c");
  ASSERT_TRUE(C->ok()) << C->errors();
  SearchOptions Probe;
  Probe.MaxRuns = 1;
  const unsigned Gen1 = searchReference(C, Probe).DroppedSubtrees;
  ASSERT_GT(Gen1, 1u);

  SearchOptions SO;
  SO.MaxRuns = 1 + Gen1;
  const SearchResult RW = searchReference(C, SO);
  for (unsigned Workers : {1u, 4u}) {
    SearchScheduler::Config Cfg;
    Cfg.Jobs = Workers;
    Cfg.ClampJobsToHardware = false;
    Cfg.SnapshotBudget = SO.SnapshotBudget;
    SearchScheduler Sched(Cfg);
    size_t Id = Sched.submit(C->ast(), MachineOptions(), SO);
    Sched.drain();
    const SearchResult RS = Sched.takeResult(Id);
    EXPECT_EQ(RS.RunsExplored, 1 + Gen1) << "workers " << Workers;
    EXPECT_EQ(RS.DroppedSubtrees, RW.DroppedSubtrees) << "workers " << Workers;
    const SchedulerStats St = Sched.stats();
    EXPECT_GT(St.SnapshotTakes, 0u) << "workers " << Workers;
    EXPECT_EQ(St.SnapshotCaptures, St.SnapshotTakes) << "workers " << Workers;
  }
}

TEST(Scheduler, EngineGenerationsAgree) {
  // Every engine generation must commit the same verdict and witness:
  //   seq     exhaustive prefix enumeration, no dedup, every child
  //           replayed from main(), full-state rehash at every choice,
  //   replay  + the fingerprint visited-set,
  //   fork    + snapshots and incremental digests (wave reference),
  //   steal   the production scheduler at 1 and 4 jobs, and forced
  //           to 16 and 32 workers past the hardware clamp,
  //   wave4   the wave reference at 4 jobs.
  // Committed dedup decisions are deterministic, so dedup hits agree
  // exactly across replay/fork/steal, wave4/steal4 and steal1/16/32,
  // for the undefined programs as well as the clean ones. Run counts
  // are compared only where the wave engine runs on one worker: at
  // jobs > 1 a witness cuts its wave short at a timing-dependent point.
  for (const std::string &Source : generationCorpus()) {
    Driver Drv;
    Driver::Compiled C = Drv.compile(Source, "order.c");
    ASSERT_TRUE(C->ok()) << C->errors();

    SearchOptions Seq = forkOptions();
    Seq.Dedup = false;
    Seq.UseSnapshots = false;
    Seq.FullRehash = true;
    SearchOptions Replay = Seq;
    Replay.Dedup = true;

    const SearchResult RSeq = searchReference(C, Seq);
    const SearchResult RReplay = searchReference(C, Replay);
    const SearchResult RFork = searchReference(C, forkOptions());
    const SearchResult RSteal = searchWith(C, forkOptions());
    const SearchResult RWave4 = searchReference(C, forkOptions(4));
    const SearchResult RSteal4 = searchWith(C, forkOptions(4));
    const SearchResult RSteal16 = searchStealForced(C, forkOptions(), 16);
    const SearchResult RSteal32 = searchStealForced(C, forkOptions(), 32);

    for (const SearchResult *R :
         {&RReplay, &RFork, &RSteal, &RWave4, &RSteal4, &RSteal16,
          &RSteal32}) {
      EXPECT_EQ(R->UbFound, RSeq.UbFound) << Source;
      EXPECT_EQ(R->Witness, RSeq.Witness) << Source;
    }
    EXPECT_EQ(RFork.DedupHits, RReplay.DedupHits) << Source;
    EXPECT_EQ(RSteal.DedupHits, RFork.DedupHits) << Source;
    EXPECT_EQ(RSteal4.DedupHits, RWave4.DedupHits) << Source;
    EXPECT_EQ(RSteal16.DedupHits, RSteal.DedupHits) << Source;
    EXPECT_EQ(RSteal32.DedupHits, RSteal.DedupHits) << Source;
    EXPECT_EQ(RFork.RunsExplored, RReplay.RunsExplored) << Source;
    EXPECT_EQ(RSteal.RunsExplored, RFork.RunsExplored) << Source;
    EXPECT_EQ(RSteal16.RunsExplored, RSteal.RunsExplored) << Source;
    EXPECT_EQ(RSteal32.RunsExplored, RSteal.RunsExplored) << Source;
  }
}

TEST(Scheduler, SixteenWorkersHalveTheDeepTree) {
  // Wall-clock scaling: on the deep tree, sixteen stealing workers must
  // finish the search at least 2x faster than four. The number only
  // means something when the host can run sixteen workers at once.
  const unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  if (Hw < 16)
    GTEST_SKIP() << "needs 16 hardware threads, the host has " << Hw;
  Driver Drv;
  Driver::Compiled C =
      Drv.compile(cundef_bench::deepTreeProgram(8, 256), "deep.c");
  ASSERT_TRUE(C->ok()) << C->errors();

  using Clock = std::chrono::steady_clock;
  const Clock::time_point T0 = Clock::now();
  searchWith(C, forkOptions(4));
  const Clock::time_point T1 = Clock::now();
  searchStealForced(C, forkOptions(), 16);
  const Clock::time_point T2 = Clock::now();
  const double Steal4Ms =
      std::chrono::duration<double, std::milli>(T1 - T0).count();
  const double Steal16Ms =
      std::chrono::duration<double, std::milli>(T2 - T1).count();
  EXPECT_GE(Steal4Ms, 2.0 * Steal16Ms)
      << "steal4 " << Steal4Ms << " ms, steal16 " << Steal16Ms << " ms";
}

TEST(Scheduler, OneLifecycleAcrossDrainRounds) {
  // The scheduler's single lifecycle: no explicit start (the pool
  // spawns on the first submit), drain() ends a round and leaves the
  // pool idle for the next, and the destructor stops it. Two rounds of
  // the whole corpus on one scheduler, the second submitted only after
  // the first drained, must each commit the wave engine's results.
  Driver Drv;
  std::vector<Driver::Compiled> Units;
  std::vector<SearchResult> Ref;
  SearchOptions SO;
  SO.MaxRuns = 256;
  for (const char *Source : Corpus) {
    Units.push_back(Drv.compile(Source, "lifecycle.c"));
    ASSERT_TRUE(Units.back()->ok()) << Units.back()->errors();
    Ref.push_back(searchReference(Units.back(), SO));
  }

  for (unsigned Workers : {1u, 8u}) {
    SearchScheduler::Config Cfg;
    Cfg.Jobs = Workers;
    Cfg.ClampJobsToHardware = false;
    Cfg.SnapshotBudget = SO.SnapshotBudget;
    SearchScheduler Sched(Cfg);
    for (int Round = 0; Round < 2; ++Round) {
      std::vector<size_t> Ids;
      for (const Driver::Compiled &C : Units)
        Ids.push_back(Sched.submit(C->ast(), MachineOptions(), SO));
      Sched.drain();
      for (size_t P = 0; P < Units.size(); ++P) {
        const char *Source = Corpus[P];
        SearchResult RS = Sched.takeResult(Ids[P]);
        expectSameVerdict(Ref[P], RS, Source);
        if (isClean(Source) || Workers == 1) {
          EXPECT_EQ(Ref[P].RunsExplored, RS.RunsExplored)
              << Source << " workers=" << Workers << " round=" << Round;
          EXPECT_EQ(Ref[P].DedupHits, RS.DedupHits)
              << Source << " workers=" << Workers << " round=" << Round;
          EXPECT_EQ(Ref[P].SubtreesPruned, RS.SubtreesPruned)
              << Source << " workers=" << Workers << " round=" << Round;
          EXPECT_EQ(Ref[P].Waves, RS.Waves)
              << Source << " workers=" << Workers << " round=" << Round;
          EXPECT_EQ(Ref[P].FrontierTruncated, RS.FrontierTruncated) << Source;
          EXPECT_EQ(Ref[P].DroppedSubtrees, RS.DroppedSubtrees) << Source;
        }
      }
    }
    // No stop(): the destructor stops and joins the idle pool.
  }
}

TEST(Scheduler, RandomPolicyAndDeclarativeStyleStillWork) {
  // The gates the wave engine applies (no dedup under Random, no
  // snapshots under Random/Declarative) must hold in the scheduler too.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[0], "gates.c");
  ASSERT_TRUE(C->ok());
  for (auto Setup : {EvalOrderKind::Random, EvalOrderKind::LeftToRight}) {
    MachineOptions MOpts;
    MOpts.Order = Setup;
    SearchOptions SO;
    SO.MaxRuns = 64;
    OrderSearch Search(C->ast(), MOpts, SO);
    SearchResult R = Search.run();
    EXPECT_TRUE(R.UbFound) << "order policy " << int(Setup);
  }
  MachineOptions Decl;
  Decl.Style = RuleStyle::Declarative;
  SearchOptions SO;
  SO.MaxRuns = 64;
  OrderSearch Search(C->ast(), Decl, SO);
  SearchResult R = Search.run();
  EXPECT_TRUE(R.UbFound);
  EXPECT_EQ(R.ForkedRuns, 0u) << "declarative style must not snapshot";
}

//===----------------------------------------------------------------------===//
// LRU snapshot cache.
//===----------------------------------------------------------------------===//

TEST(Scheduler, LruThrashFallsBackToReplay) {
  // A cache far too small for the tree forces evictions; every evicted
  // child replays its prefix instead, and nothing observable changes.
  Driver Drv;
  Driver::Compiled C = Drv.compile(Corpus[4], "lru.c");
  ASSERT_TRUE(C->ok());
  SearchOptions Ample;
  Ample.MaxRuns = 256;
  Ample.SnapshotBudget = 1024;
  SearchResult RAmple = searchWith(C, Ample);

  for (unsigned Cap : {0u, 1u, 2u}) {
    for (bool Reference : {true, false}) {
      SearchOptions Tiny = Ample;
      Tiny.SnapshotBudget = Cap;
      SearchResult RTiny =
          Reference ? searchReference(C, Tiny) : searchWith(C, Tiny);
      expectSameVerdict(RAmple, RTiny, "lru-thrash");
      EXPECT_EQ(RAmple.RunsExplored, RTiny.RunsExplored) << Cap;
      EXPECT_EQ(RAmple.DedupHits, RTiny.DedupHits) << Cap;
      if (Cap == 0) {
        EXPECT_EQ(RTiny.ForkedRuns, 0u) << "capacity 0 must never fork";
        EXPECT_EQ(RTiny.SnapshotEvictions, 0u)
            << "nothing admitted, nothing evicted";
      } else {
        EXPECT_GT(RTiny.SnapshotEvictions, 0u)
            << "capacity " << Cap << " must thrash on this tree";
      }
    }
  }
  EXPECT_GT(RAmple.ForkedRuns, 0u) << "the ample cache must actually fork";
}

TEST(Scheduler, SnapshotCacheBasics) {
  // Direct unit coverage of the LRU contract: insert-over-capacity
  // evicts the oldest pending entry and charges its counter; take and
  // drop remove entries without eviction accounting.
  SnapshotCache Cache(2);
  std::atomic<unsigned> Evictions{0};
  // An empty configuration is fine for cache logic.
  MachineSnapshot Snap{Configuration(),
                       OrderChooser(EvalOrderKind::LeftToRight, 1)};
  uint64_t A = Cache.insert(Snap, &Evictions);
  uint64_t B = Cache.insert(Snap, &Evictions);
  ASSERT_NE(A, 0u);
  ASSERT_NE(B, 0u);
  EXPECT_EQ(Cache.pending(), 2u);

  uint64_t D = Cache.insert(Snap, &Evictions); // evicts A (oldest)
  EXPECT_EQ(Evictions.load(), 1u);
  EXPECT_EQ(Cache.pending(), 2u);
  EXPECT_EQ(Cache.take(A), nullptr) << "A was evicted";
  EXPECT_NE(Cache.take(B), nullptr) << "B is still pending";
  Cache.drop(D);
  EXPECT_EQ(Cache.pending(), 0u);
  EXPECT_EQ(Evictions.load(), 1u) << "take/drop are not evictions";

  SnapshotCache Zero(0);
  EXPECT_EQ(Zero.insert(Snap, &Evictions), 0u)
      << "capacity 0 admits nothing";
  EXPECT_EQ(Evictions.load(), 1u);

  // With two programs' counters, overflow evicts the globally oldest
  // entry and charges its owner, not the inserter.
  std::atomic<unsigned> ProgA{0}, ProgB{0};
  SnapshotCache Shared(2);
  uint64_t A1 = Shared.insert(Snap, &ProgA); // globally oldest
  uint64_t B1 = Shared.insert(Snap, &ProgB);
  ASSERT_NE(A1, 0u);
  ASSERT_NE(B1, 0u);
  Shared.insert(Snap, &ProgB); // full: evicts A1
  EXPECT_EQ(ProgA.load(), 1u) << "the victim's owner is charged";
  EXPECT_EQ(ProgB.load(), 0u) << "the inserter is not";
  EXPECT_EQ(Shared.take(A1), nullptr) << "A1 was evicted";
  EXPECT_NE(Shared.take(B1), nullptr) << "B1 is still pending";
}

TEST(Scheduler, SnapshotCacheDropContract) {
  // Ids stay live until taken below capacity; dropping an
  // already-evicted (or already-dropped) id is a no-op, and the
  // counters account exactly for what happened.
  MachineSnapshot Snap{Configuration(),
                       OrderChooser(EvalOrderKind::LeftToRight, 1)};
  std::atomic<unsigned> Evictions{0};

  SnapshotCache Big(1024);
  std::vector<uint64_t> Ids;
  for (unsigned I = 0; I < 64; ++I) {
    uint64_t Id = Big.insert(Snap, &Evictions);
    ASSERT_NE(Id, 0u);
    Ids.push_back(Id);
  }
  EXPECT_EQ(Big.pending(), Ids.size());
  for (uint64_t Id : Ids)
    EXPECT_NE(Big.take(Id), nullptr) << Id;
  EXPECT_EQ(Big.pending(), 0u);
  EXPECT_EQ(Evictions.load(), 0u);

  // drop() on an evicted id: capacity 1 forces the eviction.
  SnapshotCache One(1);
  uint64_t A = One.insert(Snap, &Evictions);
  uint64_t B = One.insert(Snap, &Evictions); // evicts A
  EXPECT_EQ(Evictions.load(), 1u);
  One.drop(A); // already evicted: no-op
  One.drop(A); // still a no-op
  EXPECT_EQ(One.pending(), 1u);
  EXPECT_EQ(Evictions.load(), 1u) << "dropping an evicted id counts nothing";
  One.drop(B);
  One.drop(B); // double drop: no-op
  EXPECT_EQ(One.pending(), 0u);
  EXPECT_EQ(Evictions.load(), 1u);

  SnapshotCache::Counters C = One.counters();
  EXPECT_EQ(C.Inserts, 2u);
  EXPECT_EQ(C.Evictions, 1u);
  EXPECT_EQ(C.Takes, 0u);
}

TEST(Scheduler, SnapshotCacheConcurrentStress) {
  // Concurrent insert/take/drop races, including double drops and
  // drops of evicted ids: accounting must stay exact and every id must
  // resolve exactly once.
  SnapshotCache Cache(1024);
  constexpr unsigned NumThreads = 8;
  constexpr unsigned OpsPerThread = 400;
  std::atomic<unsigned> Evictions{0};
  std::atomic<uint64_t> TakenHits{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      MachineSnapshot Snap{Configuration(),
                           OrderChooser(EvalOrderKind::LeftToRight, 1)};
      std::vector<uint64_t> Mine;
      for (unsigned I = 0; I < OpsPerThread; ++I) {
        uint64_t Id = Cache.insert(Snap, &Evictions);
        ASSERT_NE(Id, 0u);
        Mine.push_back(Id);
        switch (I % 4) {
        case 0: // take the most recent insert
          if (Cache.take(Mine.back()))
            TakenHits.fetch_add(1, std::memory_order_relaxed);
          Mine.pop_back();
          break;
        case 1: // drop the oldest tracked id, then double-drop it
          Cache.drop(Mine.front());
          Cache.drop(Mine.front());
          Mine.erase(Mine.begin());
          break;
        default:
          break; // leave it pending (eviction pressure)
        }
      }
      // Drain: every remaining id was taken here, dropped here, or
      // evicted by someone; all three make a later drop a no-op.
      for (uint64_t Id : Mine)
        Cache.drop(Id);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Cache.pending(), 0u) << "every id drained";
  SnapshotCache::Counters C = Cache.counters();
  EXPECT_EQ(C.Inserts, uint64_t(NumThreads) * OpsPerThread);
  EXPECT_EQ(C.Evictions, Evictions.load());
  EXPECT_EQ(C.Hits, TakenHits.load());
  EXPECT_LE(C.Hits, C.Takes);
  EXPECT_LE(C.Evictions, C.Inserts);
}

//===----------------------------------------------------------------------===//
// Batched driver.
//===----------------------------------------------------------------------===//

TEST(Scheduler, BatchedDriverMatchesRunSource) {
  // Each batched outcome must equal the single-program outcome for the
  // same source: verdict, reports, witness, program output, exit code,
  // compile diagnostics — regardless of batch composition or job count.
  const char *Programs[] = {
      Corpus[0], // UB by order
      "#include <stdio.h>\n"
      "int main(void) { printf(\"out-%d\\n\", 42); return 7; }\n",
      Corpus[2], // UB needing two flips
      "int main(void) { return 0 }\n", // compile error
      Corpus[4], // clean commuting tree
      Corpus[0], // duplicate source: identical outcome expected
  };
  std::vector<BatchInput> Inputs;
  for (size_t I = 0; I < std::size(Programs); ++I)
    Inputs.push_back({Programs[I], "prog" + std::to_string(I) + ".c"});

  for (unsigned Jobs : {1u, 4u}) {
    AnalysisRequest Req = AnalysisRequest::Builder()
                              .searchRuns(64)
                              .searchJobs(Jobs)
                              .buildOrDie();
    Driver Batched(Req);
    std::vector<DriverOutcome> Batch =
        analyzeBatch(Batched.engine(), Req, Inputs);
    ASSERT_EQ(Batch.size(), Inputs.size());

    for (size_t I = 0; I < Inputs.size(); ++I) {
      Driver Single(Req);
      DriverOutcome Ref = Single.runSource(Inputs[I].Source, Inputs[I].Name);
      const DriverOutcome &Got = Batch[I];
      EXPECT_EQ(Ref.CompileOk, Got.CompileOk) << I;
      EXPECT_EQ(Ref.CompileErrors, Got.CompileErrors) << I;
      EXPECT_EQ(Ref.anyUb(), Got.anyUb()) << I;
      EXPECT_EQ(Ref.SearchWitness, Got.SearchWitness) << I << " jobs=" << Jobs;
      EXPECT_EQ(Ref.Output, Got.Output) << I;
      EXPECT_EQ(Ref.ExitCode, Got.ExitCode) << I;
      EXPECT_EQ(Ref.Status, Got.Status) << I;
      ASSERT_EQ(Ref.DynamicUb.size(), Got.DynamicUb.size()) << I;
      for (size_t R = 0; R < Ref.DynamicUb.size(); ++R) {
        EXPECT_EQ(Ref.DynamicUb[R].Kind, Got.DynamicUb[R].Kind) << I;
        EXPECT_EQ(Ref.DynamicUb[R].Loc.Line, Got.DynamicUb[R].Loc.Line) << I;
      }
    }
    // Duplicate submissions aggregate independently and identically.
    EXPECT_EQ(Batch[0].SearchWitness, Batch[5].SearchWitness);
    EXPECT_EQ(Batch[0].OrdersExplored, Batch[5].OrdersExplored);
  }
}

TEST(Scheduler, BatchedAggregationIsDeterministic) {
  // Same batch, different job counts, repeated: per-program results are
  // keyed by program id and must never depend on steal interleaving.
  std::vector<BatchInput> Inputs;
  for (const char *Source : Corpus)
    Inputs.push_back({Source, "det.c"});
  const AnalysisRequest BaseReq =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  Driver Ref(BaseReq);
  std::vector<DriverOutcome> Base = analyzeBatch(Ref.engine(), BaseReq, Inputs);

  for (unsigned Jobs : {2u, 8u}) {
    for (int Round = 0; Round < 3; ++Round) {
      const AnalysisRequest Req = AnalysisRequest::Builder()
                                      .searchRuns(64)
                                      .searchJobs(Jobs)
                                      .buildOrDie();
      Driver Drv(Req);
      std::vector<DriverOutcome> Got = analyzeBatch(Drv.engine(), Req, Inputs);
      ASSERT_EQ(Got.size(), Base.size());
      for (size_t I = 0; I < Base.size(); ++I) {
        EXPECT_EQ(Base[I].anyUb(), Got[I].anyUb()) << I;
        EXPECT_EQ(Base[I].SearchWitness, Got[I].SearchWitness)
            << I << " jobs=" << Jobs;
        EXPECT_EQ(Base[I].Output, Got[I].Output) << I;
        EXPECT_EQ(Base[I].ExitCode, Got[I].ExitCode) << I;
      }
    }
  }
}

TEST(Scheduler, CountersSurfaceThroughDriver) {
  // The satellite contract: scheduler counters reach DriverOutcome (and
  // from there the kcc --show-witness stats block) instead of being
  // dropped.
  Driver Drv(AnalysisRequest::Builder().searchRuns(64).buildOrDie());
  DriverOutcome O = Drv.runSource(Corpus[4], "counters.c");
  ASSERT_TRUE(O.CompileOk);
  EXPECT_GT(O.OrdersExplored, 1u);
  EXPECT_GT(O.SearchPeakFrontier, 0u);
  EXPECT_GT(O.OrdersDeduped, 0u) << "the commuting tree must dedup";
}

//===----------------------------------------------------------------------===//
// Batched suite scoring.
//===----------------------------------------------------------------------===//

TEST(Scheduler, BatchedSuiteScoresMatchPerTest) {
  // scoreJulietBatched routes the whole suite through one shared
  // scheduler; scores must match the per-test Tool path exactly.
  JulietGenerator Gen(/*ScaleDivisor=*/256); // a handful per class
  std::vector<TestCase> Tests = Gen.generate();
  ASSERT_FALSE(Tests.empty());
  if (Tests.size() > 24)
    Tests.resize(24);

  // Mirror the kcc tool's configuration.
  AnalysisRequest Req = AnalysisRequest::Builder()
                            .strict(true)
                            .staticChecks(true)
                            .searchRuns(8)
                            .searchJobs(2)
                            .buildOrDie();

  std::unique_ptr<Tool> Kcc = Tool::create(ToolKind::Kcc);
  JulietScores PerTest = scoreJuliet(*Kcc, Tests);
  JulietScores Batched = scoreJulietBatched(Req, Tests);

  ASSERT_EQ(PerTest.PerClass.size(), Batched.PerClass.size());
  for (size_t I = 0; I < PerTest.PerClass.size(); ++I) {
    EXPECT_EQ(PerTest.PerClass[I].Tests, Batched.PerClass[I].Tests) << I;
    EXPECT_EQ(PerTest.PerClass[I].Passed, Batched.PerClass[I].Passed) << I;
    EXPECT_EQ(PerTest.PerClass[I].FalsePositives,
              Batched.PerClass[I].FalsePositives)
        << I;
  }
}
