//===- tests/test_engine.cpp - AnalysisEngine service-layer tests -------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The persistent engine (driver/Engine.h) is the single submission
// path every entry point adapts to, so two properties carry the whole
// redesign:
//
//  * Request validation is total and typed: the builder rejects
//    nonsense combinations (zero budgets, absurd pools) once, at build
//    time, instead of every call site clamping differently.
//  * Pool persistence is invisible in the results: repeated submit()
//    batches through ONE engine — its worker pool, visited-set
//    generations, and snapshot cache reused across batches — produce
//    outcomes byte-identical to fresh per-batch drivers, at forced
//    worker counts 1 and 8 (the hardware clamp disabled so 8 really
//    means 8 interleaving workers, even on 1-core CI). Under
//    -DCUNDEF_TSAN=ON this suite runs instrumented (ctest -L tsan).
//  * Batching is invisible too: a mixed fleet gives the same outcomes
//    run one by one, as one batch at 1 or 4 workers, or round after
//    round on fresh or reused engines — and the result cache turns
//    repeat traffic into at least a 3x wall-clock gain without
//    changing a single outcome.
//  * One pool compiles and searches: a one-worker engine, where every
//    compile job and every run share a single thread, gives the same
//    outcomes as four workers; sinks may resubmit from that thread;
//    and the pool's bookkeeping (program index, commit lag) returns to
//    zero at every drain.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/ToolRunner.h"

#include "../bench/BenchUtil.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace cundef;

namespace {

/// The batch every persistence round resubmits: order-dependent UB,
/// program output + exit code, a compile error, commuting clean trees.
const std::vector<BatchInput> &corpus() {
  static const std::vector<BatchInput> Inputs = {
      {"int d = 5;\n"
       "int setDenom(int x) { return d = x; }\n"
       "int main(void) { return (10 / d) + setDenom(0); }\n",
       "paper.c"},
      {"#include <stdio.h>\n"
       "int main(void) { printf(\"out-%d\\n\", 42); return 7; }\n",
       "hello.c"},
      {"int main(void) { return 0 }\n", "broken.c"},
      {"int a = 1;\n"
       "int set(int v) { a = v; return 0; }\n"
       "int main(void) { return (8 / a) + (set(0) + set(1)); }\n",
       "nested.c"},
      {"static int g(int x) { return x + 1; }\n"
       "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
       "  t += g(4) + g(5); return t > 0 ? 0 : 1; }\n",
       "commute.c"},
  };
  return Inputs;
}

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
// Request builder validation.
//===----------------------------------------------------------------------===//

TEST(RequestBuilder, DefaultsAreValid) {
  AnalysisRequest::Builder B;
  auto R = B.build();
  ASSERT_TRUE(R.ok()) << R.Err.Message;
  EXPECT_EQ(R.Request.searchRuns(), 1u);
  EXPECT_EQ(R.Request.searchJobs(), 1u);
  EXPECT_TRUE(R.Request.staticChecks());
  EXPECT_TRUE(R.Request.searchDedup());
}

TEST(RequestBuilder, RejectsZeroSearchBudget) {
  auto R = AnalysisRequest::Builder().searchRuns(0).build();
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Err.Kind, RequestError::Code::ZeroSearchBudget);
  EXPECT_NE(R.Err.Message.find("budget"), std::string::npos);
}

TEST(RequestBuilder, RejectsOversizedWorkerCounts) {
  auto Bad = AnalysisRequest::Builder().searchJobs(MaxSearchJobs + 1).build();
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.Err.Kind, RequestError::Code::OversizedSearchJobs);
  // The cap itself and the auto-detect sentinel are both fine.
  EXPECT_TRUE(AnalysisRequest::Builder().searchJobs(MaxSearchJobs).build().ok());
  EXPECT_TRUE(AnalysisRequest::Builder().searchJobs(0).build().ok());
}

TEST(RequestBuilder, RejectsMachinesThatCannotStep) {
  MachineOptions NoFuel;
  NoFuel.StepLimit = 0;
  auto R1 = AnalysisRequest::Builder().machine(NoFuel).build();
  ASSERT_FALSE(R1.ok());
  EXPECT_EQ(R1.Err.Kind, RequestError::Code::ZeroStepLimit);

  MachineOptions NoStack;
  NoStack.MaxCallDepth = 0;
  auto R2 = AnalysisRequest::Builder().machine(NoStack).build();
  ASSERT_FALSE(R2.ok());
  EXPECT_EQ(R2.Err.Kind, RequestError::Code::ZeroCallDepth);
}

TEST(RequestBuilder, BuiltRequestIsReusable) {
  // "Validated once, reused across submissions": one request drives
  // many drivers and many runs without re-validation or drift.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(16).buildOrDie();
  Driver D1(Req), D2(Req);
  DriverOutcome A = D1.runSource(corpus()[0].Source, "a.c");
  DriverOutcome B = D2.runSource(corpus()[0].Source, "a.c");
  expectIdentical(A, B, "one request, two drivers");
  EXPECT_TRUE(A.anyUb());
}

//===----------------------------------------------------------------------===//
// Engine persistence.
//===----------------------------------------------------------------------===//

TEST(Engine, PersistentPoolMatchesFreshBatches) {
  // Three consecutive batches through one engine vs a fresh engine per
  // batch: byte-identical outcomes (witnesses, reports, dedup hits) at
  // forced worker counts 1 and 8.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  for (unsigned Workers : {1u, 8u}) {
    EngineConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.ClampWorkersToHardware = false;

    AnalysisEngine Persistent(Cfg);
    for (int Round = 0; Round < 3; ++Round) {
      AnalysisEngine Fresh(Cfg);
      std::vector<JobHandle> Ref = Fresh.submitBatch(Req, corpus());
      std::vector<JobHandle> Got = Persistent.submitBatch(Req, corpus());
      ASSERT_EQ(Ref.size(), Got.size());
      for (size_t I = 0; I < Ref.size(); ++I) {
        DriverOutcome A = Ref[I].take();
        DriverOutcome B = Got[I].take();
        expectIdentical(A, B,
                        corpus()[I].Name + " workers=" +
                            std::to_string(Workers) + " round=" +
                            std::to_string(Round));
      }
      // Between batches the service reclaims search state; results of
      // the next round must not notice.
      Persistent.drain();
    }
  }
}

TEST(Engine, DriverFacadeMatchesDirectSubmission) {
  // The blocking Driver adapters add nothing to the outcome.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  Driver Drv(Req);
  AnalysisEngine Eng(engineConfigFor(Req));
  for (const BatchInput &In : corpus()) {
    DriverOutcome A = Drv.runSource(In.Source, In.Name);
    DriverOutcome B = Eng.submit(Req, In.Source, In.Name).take();
    expectIdentical(A, B, In.Name);
  }
}

TEST(Engine, EachSnapshotGoesToExactlyOneChild) {
  // A captured snapshot is handed to exactly one child and then
  // forgotten. After a clean deep-tree search on a one-worker engine
  // the cache is therefore empty before any drain, nothing was evicted
  // to make room, and every fork found the snapshot it was promised.
  AnalysisRequest Req = AnalysisRequest::Builder().searchRuns(512).buildOrDie();
  const unsigned Shapes[][2] = {{8, 128}, {9, 256}, {10, 512}};
  for (const auto &[Pairs, Cells] : Shapes) {
    const std::string Tag =
        "deep " + std::to_string(Pairs) + "x" + std::to_string(Cells);
    EngineConfig Cfg;
    Cfg.Workers = 1;
    AnalysisEngine Eng(Cfg);
    DriverOutcome O =
        Eng.submit(Req, cundef_bench::deepTreeProgram(Pairs, Cells), "deep.c")
            .take();
    ASSERT_TRUE(O.CompileOk) << Tag << ": " << O.CompileErrors;
    EXPECT_FALSE(O.anyUb()) << Tag;
    EXPECT_EQ(Eng.memoryStats().PendingSnapshots, 0u) << Tag;
    SchedulerStats St = Eng.poolStats();
    EXPECT_EQ(St.SnapshotEvictions, 0u) << Tag;
    EXPECT_GT(St.SnapshotTakes, 0u) << Tag << ": the search must fork";
    EXPECT_EQ(St.SnapshotHits, St.SnapshotTakes) << Tag;
  }
}

//===----------------------------------------------------------------------===//
// Batches and repeat traffic.
//===----------------------------------------------------------------------===//

TEST(Engine, BatchedFleetMatchesSequentialRuns) {
  // A mixed fleet — order-dependent UB, output passthrough, three salted
  // deep trees (distinct programs of one shape), nested order
  // dependence — at budget 96: sequential runSource, one batch at 1
  // and at 4 workers, and three rounds on fresh engines against three
  // rounds on one engine drained between them like a service.
  std::vector<BatchInput> Fleet = {corpus()[0], corpus()[1]};
  for (unsigned I = 0; I < 3; ++I)
    Fleet.push_back({cundef_bench::deepTreeProgram(6, 128, I * 7),
                     "deep" + std::to_string(I) + ".c"});
  Fleet.push_back(corpus()[3]);
  const AnalysisRequest Req1 =
      AnalysisRequest::Builder().searchRuns(96).buildOrDie();
  const AnalysisRequest Req4 =
      AnalysisRequest::Builder().searchRuns(96).searchJobs(4).buildOrDie();
  auto freshBatch = [&](const AnalysisRequest &Req) {
    AnalysisEngine Eng(engineConfigFor(Req));
    return analyzeBatch(Eng, Req, Fleet);
  };

  const std::vector<DriverOutcome> Batch1 = freshBatch(Req1);
  const std::vector<DriverOutcome> Batch4 = freshBatch(Req4);
  ASSERT_EQ(Batch1.size(), Fleet.size());
  ASSERT_EQ(Batch4.size(), Fleet.size());
  Driver Sequential(Req1);
  for (size_t I = 0; I < Fleet.size(); ++I) {
    expectIdentical(
        Sequential.runSource(Fleet[I].Source, Fleet[I].Name), Batch1[I],
        Fleet[I].Name + " sequential");
    expectIdentical(Batch1[I], Batch4[I], Fleet[I].Name + " x4");
  }

  AnalysisEngine Reused(engineConfigFor(Req4));
  for (int Round = 0; Round < 3; ++Round) {
    const std::vector<DriverOutcome> Fresh = freshBatch(Req4);
    const std::vector<DriverOutcome> Again = analyzeBatch(Reused, Req4, Fleet);
    Reused.drain();
    ASSERT_EQ(Fresh.size(), Fleet.size());
    ASSERT_EQ(Again.size(), Fleet.size());
    for (size_t I = 0; I < Fleet.size(); ++I) {
      const std::string Tag =
          Fleet[I].Name + " round=" + std::to_string(Round);
      expectIdentical(Batch1[I], Fresh[I], Tag + " fresh");
      expectIdentical(Batch1[I], Again[I], Tag + " reused");
    }
  }
}

TEST(Engine, ResultCacheMakesRepeatsThreeTimesFaster) {
  // Repeat traffic where the search is the duplicated cost: one cold
  // analysis of a deep tree publishes its outcome, and ten identical
  // resubmissions must resolve warm. Cold plus warm (engine lifetime
  // included) must take at most a third of the wall clock the same ten
  // searches take on a cache-off engine, with identical outcomes. The
  // repeats share one unit name: the name is part of the key. The
  // 40-pair tree keeps far more than 96 distinct orders after
  // elision, so every search fills its 96-run budget; a small tree
  // finishes in a few runs and leaves the frontend, not the search, as
  // the repeated cost. One search worker keeps the search CPU-bound:
  // four workers on a loaded box wait for cores, and the cold run's
  // wait alone could eat the margin.
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(96).searchJobs(1).buildOrDie();
  const BatchInput Unit = {cundef_bench::deepTreeProgram(40, 128, 3),
                           "rcdup.c"};
  const std::vector<BatchInput> Repeats(10, Unit);

  using Clock = std::chrono::steady_clock;
  DriverOutcome Cold;
  std::vector<DriverOutcome> Warm, Off;
  ResultCacheStats Stats;
  const Clock::time_point T0 = Clock::now();
  {
    AnalysisEngine Eng(engineConfigFor(Req));
    Cold = Eng.submit(Req, Unit.Source, Unit.Name).take();
    Warm = analyzeBatch(Eng, Req, Repeats);
    Stats = Eng.resultCacheStats();
  }
  const Clock::time_point T1 = Clock::now();
  {
    EngineConfig Cfg = engineConfigFor(Req);
    Cfg.ResultCacheEntries = 0;
    AnalysisEngine Eng(Cfg);
    Off = analyzeBatch(Eng, Req, Repeats);
  }
  const Clock::time_point T2 = Clock::now();

  ASSERT_EQ(Warm.size(), Repeats.size());
  ASSERT_EQ(Off.size(), Repeats.size());
  for (size_t I = 0; I < Repeats.size(); ++I) {
    expectIdentical(Cold, Warm[I], "warm #" + std::to_string(I));
    expectIdentical(Cold, Off[I], "cache-off #" + std::to_string(I));
  }
  EXPECT_GT(Stats.hitRate(), 0.0);
  EXPECT_TRUE(Cold.SearchTruncated) << "the search must fill its budget";
  const double OnMs =
      std::chrono::duration<double, std::milli>(T1 - T0).count();
  const double OffMs =
      std::chrono::duration<double, std::milli>(T2 - T1).count();
  RecordProperty("cache_off_over_on", std::to_string(OffMs / OnMs));
  EXPECT_GE(OffMs, 3.0 * OnMs)
      << "cache-on " << OnMs << " ms, cache-off " << OffMs << " ms";
}

//===----------------------------------------------------------------------===//
// Streaming events and job handles.
//===----------------------------------------------------------------------===//

namespace {

/// Thread-safe counting sink (callbacks fire on worker threads).
struct CountingSink : EngineSink {
  std::atomic<unsigned> Finished{0};
  std::atomic<unsigned> UbEvents{0};
  std::atomic<unsigned> Truncations{0};
  std::atomic<unsigned> EmptyReportEvents{0};
  std::atomic<unsigned> NonPositiveWalls{0};

  void onProgramFinished(const EngineJobInfo &Job,
                         const DriverOutcome &Outcome,
                         double WallMicros) override {
    Finished.fetch_add(1);
    if (WallMicros <= 0.0)
      NonPositiveWalls.fetch_add(1);
  }
  void onUbFound(const EngineJobInfo &Job,
                 const std::vector<UbReport> &Reports) override {
    UbEvents.fetch_add(1);
    if (Reports.empty())
      EmptyReportEvents.fetch_add(1);
  }
  void onFrontierTruncated(const EngineJobInfo &Job,
                           unsigned DroppedSubtrees) override {
    Truncations.fetch_add(1);
  }
};

} // namespace

TEST(Engine, SinkStreamsPerJobEvents) {
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  AnalysisEngine Eng;
  CountingSink Sink;
  std::vector<JobHandle> Handles = Eng.submitBatch(Req, corpus(), &Sink);
  Eng.drain();
  EXPECT_EQ(Sink.Finished.load(), corpus().size());
  // paper.c and nested.c are undefined by order.
  EXPECT_EQ(Sink.UbEvents.load(), 2u);
  EXPECT_EQ(Sink.EmptyReportEvents.load(), 0u);
  EXPECT_EQ(Sink.NonPositiveWalls.load(), 0u);
  for (JobHandle &H : Handles) {
    EXPECT_TRUE(H.done());
    EXPECT_GT(H.wallMicros(), 0.0);
  }
}

TEST(Engine, SinkReportsFrontierTruncation) {
  // A 2-run budget cannot cover commute.c's first wave: the truncation
  // event must fire (the verdict is not exhaustive).
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(2).buildOrDie();
  AnalysisEngine Eng;
  CountingSink Sink;
  DriverOutcome O =
      Eng.submit(Req, corpus()[4].Source, corpus()[4].Name, &Sink).take();
  EXPECT_TRUE(O.SearchTruncated);
  EXPECT_GT(O.SearchDropped, 0u);
  EXPECT_EQ(Sink.Truncations.load(), 1u);
  EXPECT_EQ(Sink.Finished.load(), 1u);
}

TEST(Engine, PerJobMicrosAreHonest) {
  // The batched tool runner's Micros comes from per-job completion
  // timestamps now, not from dividing batch wall-clock evenly: every
  // job reports a positive wall time of its own.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(16).searchJobs(2).buildOrDie();
  std::vector<ToolResult> Results = runKccBatched(Req, corpus());
  ASSERT_EQ(Results.size(), corpus().size());
  for (const ToolResult &R : Results)
    EXPECT_GT(R.Micros, 0.0);
  EXPECT_TRUE(Results[0].flagged());  // paper.c
  EXPECT_FALSE(Results[4].flagged()); // commute.c
  EXPECT_EQ(Results[1].Output, "out-42\n");
}

//===----------------------------------------------------------------------===//
// Shutdown semantics.
//===----------------------------------------------------------------------===//

TEST(Engine, ShutdownIsGracefulAndFinal) {
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(16).buildOrDie();
  AnalysisEngine Eng;
  JobHandle H = Eng.submit(Req, corpus()[0].Source, "pre.c");
  Eng.shutdown(); // drains outstanding work first
  EXPECT_TRUE(H.done());
  EXPECT_TRUE(H.wait().anyUb());
  EXPECT_TRUE(Eng.isShutdown());

  // Submissions after shutdown are rejected, not analyzed.
  JobHandle Rejected = Eng.submit(Req, corpus()[1].Source, "post.c");
  EXPECT_TRUE(Rejected.done());
  const DriverOutcome &O = Rejected.wait();
  EXPECT_FALSE(O.CompileOk);
  EXPECT_EQ(O.Status, RunStatus::Internal);
  EXPECT_NE(O.CompileErrors.find("shut down"), std::string::npos);

  Eng.shutdown(); // idempotent
  Eng.drain();    // harmless on a stopped engine
}

//===----------------------------------------------------------------------===//
// One pool for compile jobs and search runs.
//===----------------------------------------------------------------------===//

namespace {

EngineConfig forcedWorkers(unsigned Workers) {
  EngineConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.ClampWorkersToHardware = false;
  return Cfg;
}

} // namespace

TEST(Engine, OneWorkerPoolMatchesFourWorkersAndDriver) {
  // Every kind of job a compile job can end in, on one thread and on
  // four: a search with order-dependent UB, a compile error, a
  // static-only request, a deep search and its duplicate (which joins
  // the first or hits its published outcome), a second deep search,
  // output passthrough, and a resubmission after its outcome is final
  // (a result-cache hit). Outcomes equal sequential Driver runs.
  const AnalysisRequest Search =
      AnalysisRequest::Builder().searchRuns(96).buildOrDie();
  const AnalysisRequest Static = AnalysisRequest::Builder()
                                     .staticAnalyze(StaticAnalysisMode::Only)
                                     .buildOrDie();
  const BatchInput Deep = {cundef_bench::deepTreeProgram(6, 128, 5),
                           "deep.c"};
  const std::vector<std::pair<const AnalysisRequest *, BatchInput>> Mix = {
      {&Search, corpus()[0]},
      {&Search, corpus()[2]},
      {&Static, corpus()[3]},
      {&Search, Deep},
      {&Search, Deep},
      {&Search, {cundef_bench::deepTreeProgram(7, 128, 9), "deep2.c"}},
      {&Search, corpus()[1]},
  };
  auto run = [&](unsigned Workers) {
    AnalysisEngine Eng(forcedWorkers(Workers));
    EXPECT_EQ(Eng.workers(), Workers);
    std::vector<JobHandle> Handles;
    for (const auto &[Req, In] : Mix)
      Handles.push_back(Eng.submit(*Req, In.Source, In.Name));
    std::vector<DriverOutcome> Out;
    for (JobHandle &H : Handles)
      Out.push_back(H.take());
    Out.push_back(Eng.submit(Search, corpus()[0].Source, corpus()[0].Name)
                      .take());
    EXPECT_TRUE(Out.back().ResultCacheHit);
    const ResultCacheStats RS = Eng.resultCacheStats();
    EXPECT_EQ(RS.Hits + RS.InflightJoins, 2u) << "workers=" << Workers;
    return Out;
  };
  const std::vector<DriverOutcome> One = run(1);
  const std::vector<DriverOutcome> Four = run(4);
  Driver SearchDrv(Search), StaticDrv(Static);
  for (size_t I = 0; I < One.size(); ++I) {
    const auto &[Req, In] = I < Mix.size() ? Mix[I] : Mix[0];
    const std::string Tag = In.Name + " #" + std::to_string(I);
    Driver &Drv = Req == &Static ? StaticDrv : SearchDrv;
    const DriverOutcome Ref = Drv.runSource(In.Source, In.Name);
    for (const DriverOutcome *O : {&One[I], &Four[I]}) {
      expectIdentical(Ref, *O, Tag);
      EXPECT_EQ(Ref.StaticOnly, O->StaticOnly) << Tag;
      EXPECT_EQ(Ref.StaticUb.size(), O->StaticUb.size()) << Tag;
      EXPECT_EQ(Ref.StaticHints.size(), O->StaticHints.size()) << Tag;
    }
  }
  EXPECT_FALSE(One[1].CompileOk);
  EXPECT_TRUE(One[2].StaticOnly);
}

namespace {

/// Submits the next link of a chain from the completion callback, on
/// the engine's own (single) worker.
struct ChainSink : EngineSink {
  AnalysisEngine *Eng = nullptr;
  const AnalysisRequest *Req = nullptr;
  unsigned Links = 0;
  std::atomic<unsigned> Finished{0};

  void submitLink(unsigned I) {
    Eng->submit(*Req, cundef_bench::deepTreeProgram(3, 16, I),
                "link" + std::to_string(I) + ".c", this);
  }
  void onProgramFinished(const EngineJobInfo &, const DriverOutcome &,
                         double) override {
    const unsigned Done = Finished.fetch_add(1) + 1;
    if (Done < Links)
      submitLink(Done);
  }
};

} // namespace

TEST(Engine, SinkMaySubmitFromTheOnlyWorker) {
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(16).buildOrDie();
  AnalysisEngine Eng(forcedWorkers(1));
  ChainSink Sink;
  Sink.Eng = &Eng;
  Sink.Req = &Req;
  Sink.Links = 12;
  Sink.submitLink(0);
  // Each link is submitted before its predecessor stops counting as
  // outstanding, so drain() returns only after the whole chain.
  Eng.drain();
  EXPECT_EQ(Sink.Finished.load(), Sink.Links);
}

TEST(Engine, ShutdownRunsQueuedCompileJobs) {
  // Sixteen compile jobs queue behind one worker; shutdown() drains
  // them all (none is dropped or rejected) and returns.
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(16).buildOrDie();
  AnalysisEngine Eng(forcedWorkers(1));
  std::vector<JobHandle> Handles;
  for (unsigned I = 0; I < 16; ++I)
    Handles.push_back(Eng.submit(Req, cundef_bench::deepTreeProgram(4, 32, I),
                                 "queued" + std::to_string(I) + ".c"));
  Eng.shutdown();
  for (JobHandle &H : Handles) {
    ASSERT_TRUE(H.done());
    EXPECT_TRUE(H.wait().CompileOk) << H.wait().CompileErrors;
  }
}

TEST(Engine, IdenticalSubmissionsCompileOnce) {
  // Eight identical units on four workers race through the translation
  // cache's singleflight: one compile, seven hits or joins, and eight
  // identical outcomes.
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  AnalysisEngine Eng(forcedWorkers(4));
  const std::vector<BatchInput> Same(
      8, {cundef_bench::deepTreeProgram(12, 64, 1), "same.c"});
  const std::vector<DriverOutcome> Out = analyzeBatch(Eng, Req, Same);
  const TranslationCacheStats T = Eng.translationStats();
  EXPECT_EQ(T.Lookups, 8u);
  EXPECT_EQ(T.Misses, 1u);
  ASSERT_EQ(Out.size(), Same.size());
  for (size_t I = 1; I < Out.size(); ++I)
    expectIdentical(Out[0], Out[I], "copy " + std::to_string(I));
}

TEST(Engine, ProgramIndexTracksTheLargestBatch) {
  // 10 000 programs in batches of 1 to 4, drained after each batch:
  // reclaimed slots leave the scheduler's program index, so it never
  // holds more than the largest batch. The result cache is off so
  // every submission reaches the scheduler.
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(1).buildOrDie();
  EngineConfig Cfg = forcedWorkers(2);
  Cfg.ResultCacheEntries = 0;
  AnalysisEngine Eng(Cfg);
  const std::string Source = "int main(void) { return 0; }\n";
  size_t Programs = 0, PeakSlots = 0;
  for (unsigned Batch = 0; Programs < 10000; ++Batch) {
    std::vector<JobHandle> Handles;
    for (unsigned I = 0; I <= Batch % 4; ++I)
      Handles.push_back(Eng.submit(Req, Source, "slot.c"));
    for (JobHandle &H : Handles)
      H.wait();
    Programs += Handles.size();
    PeakSlots = std::max(PeakSlots, Eng.memoryStats().ProgramSlots);
    Eng.drain();
    ASSERT_EQ(Eng.memoryStats().ProgramSlots, 0u) << "batch " << Batch;
  }
  EXPECT_EQ(Eng.poolStats().Programs, Programs);
  EXPECT_GT(PeakSlots, 0u);
  EXPECT_LE(PeakSlots, 4u);
}

TEST(Engine, CommitLagCountsOnlyUnfinalizedRuns) {
  // A run lags from the end of its execution until it is finalized,
  // dropped or abandoned, so the live lag is 0 at every drain, and the
  // peak over programs searched one at a time stays within the runs
  // one program executed. Hidden-UB sums end with a winner that
  // overtakes speculative runs; deep trees fill their budget.
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(256).buildOrDie();
  AnalysisEngine Eng(forcedWorkers(4));
  uint64_t MaxRuns = 0;
  for (unsigned I = 0; I < 12; ++I) {
    const std::string Source =
        I % 2 ? cundef_bench::symmetricSums(6 + I / 2, /*HiddenUb=*/true)
              : cundef_bench::deepTreeProgram(6 + I / 2, 64, I);
    const SchedulerStats Before = Eng.poolStats();
    Eng.submit(Req, Source, "lag" + std::to_string(I) + ".c").wait();
    Eng.drain();
    const SchedulerStats After = Eng.poolStats();
    MaxRuns = std::max(MaxRuns, After.RunsExecuted - Before.RunsExecuted);
    EXPECT_EQ(After.CommitLag, 0u) << "program " << I;
  }
  const SchedulerStats St = Eng.poolStats();
  EXPECT_GT(St.CommitLagPeak, 0u);
  EXPECT_LE(St.CommitLagPeak, MaxRuns);
}

TEST(Engine, FinishedJobsReleaseTheirArtifactsWithoutDrain) {
  // With both caches off, a job's artifact has one owner once it is
  // searched: the scheduler's pin, which the program's last run in
  // flight drops. Every finished program therefore lets go of its
  // artifact on its own; only cancelling runs, at most one per worker,
  // can hold one past the job's outcome, and never for long. Hidden-UB
  // sums end with a winner that overtakes speculative runs.
  const AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  EngineConfig Cfg = forcedWorkers(4);
  Cfg.TranslationCacheEntries = 0;
  Cfg.ResultCacheEntries = 0;
  AnalysisEngine Eng(Cfg);
  std::vector<JobHandle> Handles;
  for (unsigned I = 0; I < 24; ++I)
    Handles.push_back(Eng.submit(
        Req, cundef_bench::symmetricSums(4 + I % 6, /*HiddenUb=*/I % 2),
        "pin" + std::to_string(I) + ".c"));
  for (JobHandle &H : Handles) {
    H.wait();
    EXPECT_LE(Eng.memoryStats().GraveyardArtifacts, Eng.workers());
  }
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Eng.memoryStats().GraveyardArtifacts != 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  EngineMemoryStats M = Eng.memoryStats();
  EXPECT_EQ(M.GraveyardArtifacts, 0u);
  // No drain() ran: the search states are all still retained.
  EXPECT_EQ(M.RetainedPrograms, Handles.size());
}
