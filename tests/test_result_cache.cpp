//===- tests/test_result_cache.cpp - Content-addressed search results ---------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The result-cache contract, pinned from three sides (mirroring
// tests/test_translation_cache.cpp one rung up the pipeline):
//
//  * **Content addressing is total.** Everything a search's observable
//    outcome depends on is in the key: the frontend content address
//    (source, name, target, static checks, header registry) plus the
//    MachineOptions and SearchOptions fingerprints. Wall-clock-only
//    knobs (worker count, snapshot budget) are deliberately excluded —
//    a 4-job and an 8-job search share one entry.
//  * **Singleflight.** N concurrent identical submissions run exactly
//    one search; joiners complete with the owner's outcome. Under
//    -DCUNDEF_TSAN=ON this suite runs instrumented (ctest -L tsan).
//    The cache's own unit tests are in tests/test_content_cache.cpp.
//  * **The cache is invisible in the results.** Byte-identical outcomes
//    with the cache on, off, hot, or cold — the honest counters
//    (AnalysisEngine::resultCacheStats) are the only observable
//    difference.
//
//===----------------------------------------------------------------------===//

#include "core/Search.h"
#include "driver/Driver.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace cundef;

namespace {

const char *PaperSource = "int d = 5;\n"
                          "int setDenom(int x) { return d = x; }\n"
                          "int main(void) { return (10 / d) + setDenom(0); }\n";

/// UB-free with several flippable choice points, so searches fan out
/// and capture snapshots (the cross-program sharing tests need real
/// donors, not a first-run UB stop).
const char *CleanFanout = "int f(int a, int b) { return a * 2 + b; }\n"
                          "int main(void) {\n"
                          "  int r = f(1, 2) + f(3, 4);\n"
                          "  int s = f(r, 5) + f(2, r);\n"
                          "  int t = f(s, r) + f(r, s);\n"
                          "  return (r + s + t) & 0x7f;\n"
                          "}\n";

/// Full observable-outcome equality: every deterministic field. Wall
/// times legitimately differ; cache flags are the point under test and
/// are asserted separately.
void expectIdentical(const DriverOutcome &A, const DriverOutcome &B,
                     const std::string &Tag) {
  EXPECT_EQ(A.CompileOk, B.CompileOk) << Tag;
  EXPECT_EQ(A.CompileErrors, B.CompileErrors) << Tag;
  EXPECT_EQ(A.Status, B.Status) << Tag;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << Tag;
  EXPECT_EQ(A.Output, B.Output) << Tag;
  EXPECT_EQ(A.SearchWitness, B.SearchWitness) << Tag;
  EXPECT_EQ(A.OrdersExplored, B.OrdersExplored) << Tag;
  EXPECT_EQ(A.OrdersDeduped, B.OrdersDeduped) << Tag;
  EXPECT_EQ(A.SearchTruncated, B.SearchTruncated) << Tag;
  EXPECT_EQ(A.SearchDropped, B.SearchDropped) << Tag;
  EXPECT_EQ(A.renderReport(), B.renderReport()) << Tag;
  ASSERT_EQ(A.DynamicUb.size(), B.DynamicUb.size()) << Tag;
  for (size_t I = 0; I < A.DynamicUb.size(); ++I) {
    EXPECT_EQ(A.DynamicUb[I].Kind, B.DynamicUb[I].Kind) << Tag;
    EXPECT_EQ(A.DynamicUb[I].Loc.Line, B.DynamicUb[I].Loc.Line) << Tag;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Configuration fingerprints: the non-frontend half of the address.
//===----------------------------------------------------------------------===//

TEST(ResultCacheFingerprints, MachineFingerprintCoversEveryField) {
  MachineOptions Base;
  const uint64_t Fp = machineOptionsFingerprint(Base);
  EXPECT_EQ(Fp, machineOptionsFingerprint(MachineOptions()))
      << "stable across equal configurations";

  MachineOptions M = Base;
  M.Strict = !M.Strict;
  EXPECT_NE(Fp, machineOptionsFingerprint(M));
  M = Base;
  M.StopAtFirstUb = !M.StopAtFirstUb;
  EXPECT_NE(Fp, machineOptionsFingerprint(M));
  M = Base;
  M.StepLimit += 1;
  EXPECT_NE(Fp, machineOptionsFingerprint(M));
  M = Base;
  M.Order = EvalOrderKind::RightToLeft;
  EXPECT_NE(Fp, machineOptionsFingerprint(M));
  M = Base;
  M.Seed += 1;
  EXPECT_NE(Fp, machineOptionsFingerprint(M));
  M = Base;
  M.Style = RuleStyle::PrecedenceChain;
  EXPECT_NE(Fp, machineOptionsFingerprint(M));
}

TEST(ResultCacheFingerprints, SearchFingerprintExcludesWallClockKnobs) {
  SearchOptions Base;
  const uint64_t Fp = searchOptionsFingerprint(Base);

  // Outcome-affecting fields re-key.
  SearchOptions S = Base;
  S.MaxRuns += 1;
  EXPECT_NE(Fp, searchOptionsFingerprint(S));
  S = Base;
  S.Dedup = !S.Dedup;
  EXPECT_NE(Fp, searchOptionsFingerprint(S));
  S = Base;
  S.UseSnapshots = !S.UseSnapshots;
  EXPECT_NE(Fp, searchOptionsFingerprint(S));

  // Wall-clock-only knobs share one entry by design: a 4-job and an
  // 8-job search of the same program are the same analysis.
  S = Base;
  S.Jobs = Base.Jobs + 7;
  EXPECT_EQ(Fp, searchOptionsFingerprint(S));
  S = Base;
  S.SnapshotBudget = Base.SnapshotBudget / 2;
  EXPECT_EQ(Fp, searchOptionsFingerprint(S));
  S = Base;
  S.FullRehash = !S.FullRehash;
  EXPECT_EQ(Fp, searchOptionsFingerprint(S));
  S = Base;
  S.CollectRuns = !S.CollectRuns;
  EXPECT_EQ(Fp, searchOptionsFingerprint(S));
}

//===----------------------------------------------------------------------===//
// Engine integration.
//===----------------------------------------------------------------------===//

TEST(ResultCacheEngine, ConcurrentIdenticalSubmitsSearchOnce) {
  // The ISSUE's stress shape: 8 threads submit one identical
  // (source, config) to a live engine. Exactly one search runs;
  // every outcome is byte-identical to a cache-off engine's. TSan-
  // instrumented under -DCUNDEF_TSAN=ON (submit(), the cache, the
  // waiter fan-out, and the shared outcome all cross threads here).
  AnalysisRequest Req = AnalysisRequest::Builder().searchRuns(64).buildOrDie();

  EngineConfig Off;
  Off.ResultCacheEntries = 0;
  AnalysisEngine Reference(Off);
  DriverOutcome Ref = Reference.submit(Req, PaperSource, "stress.c").take();
  EXPECT_TRUE(Ref.anyUb());
  EXPECT_FALSE(Ref.ResultCacheHit);

  AnalysisEngine Eng;
  constexpr unsigned N = 8;
  std::vector<JobHandle> Handles(N);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back(
        [&, T] { Handles[T] = Eng.submit(Req, PaperSource, "stress.c"); });
  for (std::thread &T : Threads)
    T.join();
  Eng.drain();

  unsigned CacheHits = 0;
  for (unsigned T = 0; T < N; ++T) {
    DriverOutcome O = Handles[T].take();
    expectIdentical(Ref, O, "thread " + std::to_string(T));
    CacheHits += O.ResultCacheHit ? 1 : 0;
  }
  ResultCacheStats St = Eng.resultCacheStats();
  EXPECT_EQ(St.Misses, 1u) << "exactly one search";
  EXPECT_EQ(St.Hits + St.InflightJoins, N - 1);
  EXPECT_EQ(CacheHits, N - 1) << "every other job reported the hit";
}

TEST(ResultCacheEngine, HeaderEditInvalidatesResidentOutcomes) {
  // The satellite regression: editing the header registry on a live
  // engine must (a) never serve a stale outcome — guaranteed by
  // content addressing, the registry fingerprint is in the key — and
  // (b) sweep the old context's resident entries so the LRU does not
  // carry dead weight across the edit.
  AnalysisRequest Req = AnalysisRequest::Builder().buildOrDie();
  const std::string Source = "#include <cfg.h>\n"
                             "int main(void) { return V; }\n";
  AnalysisEngine Eng;
  Eng.headers().add("cfg.h", "#define V 7\n");
  DriverOutcome First = Eng.submit(Req, Source, "cfg.c").take();
  ASSERT_TRUE(First.CompileOk) << First.CompileErrors;
  EXPECT_EQ(First.ExitCode, 7);
  EXPECT_FALSE(First.ResultCacheHit);

  // Unchanged registry: the outcome is replayed, no search runs.
  DriverOutcome Warm = Eng.submit(Req, Source, "cfg.c").take();
  EXPECT_EQ(Warm.ExitCode, 7);
  EXPECT_TRUE(Warm.ResultCacheHit);

  // Edited header: fresh search under the new key, and the V=7 entry
  // is swept (visible as an eviction, not a lookup miss-then-linger).
  const uint64_t EvictionsBefore = Eng.resultCacheStats().Evictions;
  Eng.headers().add("cfg.h", "#define V 9\n");
  DriverOutcome Second = Eng.submit(Req, Source, "cfg.c").take();
  EXPECT_EQ(Second.ExitCode, 9) << "stale outcome served after header edit";
  EXPECT_FALSE(Second.ResultCacheHit);
  EXPECT_GT(Eng.resultCacheStats().Evictions, EvictionsBefore)
      << "the old context's entries were swept";

  // The new context is warm in turn.
  DriverOutcome Third = Eng.submit(Req, Source, "cfg.c").take();
  EXPECT_EQ(Third.ExitCode, 9);
  EXPECT_TRUE(Third.ResultCacheHit);
}

TEST(ResultCacheEngine, CacheIsInvisibleInBatchResults) {
  // Duplicate-heavy batch through a cache-enabled engine vs per-file
  // fresh cache-off engines: outcomes byte-identical; the honest
  // counters are the only observable difference (Hits + Misses ==
  // Programs, duplicates resolved without a search).
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).searchJobs(2).buildOrDie();
  std::vector<BatchInput> Inputs;
  for (int I = 0; I < 4; ++I)
    Inputs.push_back({PaperSource, "dup.c"});
  Inputs.push_back({CleanFanout, "clean.c"});
  for (int I = 0; I < 3; ++I)
    Inputs.push_back({"int main(void) { return 0; }\n", "triv.c"});

  AnalysisEngine Batched(engineConfigFor(Req));
  std::vector<DriverOutcome> Batch = analyzeBatch(Batched, Req, Inputs);
  ASSERT_EQ(Batch.size(), Inputs.size());
  const ResultCacheStats Stats = Batched.resultCacheStats();
  EXPECT_EQ(Stats.Misses, 3u) << "three distinct analyses";
  EXPECT_EQ(Stats.Hits + Stats.InflightJoins, Inputs.size() - 3);

  EngineConfig Off;
  Off.ResultCacheEntries = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    AnalysisEngine Fresh(Off);
    DriverOutcome Ref =
        Fresh.submit(Req, Inputs[I].Source, Inputs[I].Name).take();
    EXPECT_FALSE(Ref.ResultCacheHit);
    expectIdentical(Ref, Batch[I],
                    Inputs[I].Name + " #" + std::to_string(I));
  }
}

TEST(ResultCacheEngine, OutcomesDoNotDependOnThePool) {
  // The worker count is not in the key, so whichever pool produced a
  // cached outcome, every later request is served that outcome. That
  // is only sound if the pool never shows in it: cache-off engines
  // forced to 1 and to 4 workers must agree byte for byte.
  AnalysisRequest Req = AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  const std::vector<BatchInput> Inputs = {{PaperSource, "paper.c"},
                                          {CleanFanout, "clean.c"}};
  std::vector<DriverOutcome> Ref;
  for (unsigned Workers : {1u, 4u}) {
    EngineConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.ClampWorkersToHardware = false;
    Cfg.ResultCacheEntries = 0;
    AnalysisEngine Eng(Cfg);
    std::vector<JobHandle> Handles = Eng.submitBatch(Req, Inputs);
    for (size_t I = 0; I < Handles.size(); ++I) {
      DriverOutcome O = Handles[I].take();
      if (Workers == 1)
        Ref.push_back(std::move(O));
      else
        expectIdentical(Ref[I], O, Inputs[I].Name + " workers=4");
    }
  }
}

TEST(ResultCacheEngine, OptOutRequestsBypassTheCache) {
  // --result-cache=off is per-request (it rides the serve wire), so an
  // opted-out request on a cache-enabled engine must neither read nor
  // write entries.
  AnalysisRequest Off =
      AnalysisRequest::Builder().resultCache(false).buildOrDie();
  AnalysisEngine Eng;
  DriverOutcome A = Eng.submit(Off, PaperSource, "p.c").take();
  DriverOutcome B = Eng.submit(Off, PaperSource, "p.c").take();
  EXPECT_FALSE(A.ResultCacheHit);
  EXPECT_FALSE(B.ResultCacheHit);
  expectIdentical(A, B, "opted-out duplicates");
  ResultCacheStats St = Eng.resultCacheStats();
  EXPECT_EQ(St.Lookups, 0u) << "the cache never saw the opted-out requests";

  // An opted-in duplicate afterwards starts cold: nothing was written.
  AnalysisRequest On = AnalysisRequest::Builder().buildOrDie();
  DriverOutcome C = Eng.submit(On, PaperSource, "p.c").take();
  EXPECT_FALSE(C.ResultCacheHit);
  expectIdentical(A, C, "first opted-in submission");
}
