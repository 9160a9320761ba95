//===- driver/Driver.cpp - The kcc-style driver --------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <chrono>

using namespace cundef;

Driver::Driver(AnalysisRequest Req)
    : Req(std::move(Req)), Eng(engineConfigFor(this->Req)) {}

Driver::Compiled Driver::compile(const std::string &Source,
                                 const std::string &Name) {
  return Eng.compile(Req, Source, Name);
}

DriverOutcome Driver::runSource(const std::string &Source,
                                const std::string &Name) {
  return Eng.submit(Req, Source, Name).take();
}

BatchResult Driver::runBatch(const std::vector<BatchInput> &Inputs) {
  auto Start = std::chrono::steady_clock::now();
  BatchResult Batch;
  Batch.Stats.Programs = static_cast<unsigned>(Inputs.size());

  SchedulerStats Before = Eng.poolStats();
  TranslationCacheStats TBefore = Eng.translationStats();
  ResultCacheStats RBefore = Eng.resultCacheStats();
  std::vector<JobHandle> Handles = Eng.submitBatch(Req, Inputs);
  Batch.Outcomes.reserve(Handles.size());
  for (JobHandle &H : Handles)
    Batch.Outcomes.push_back(H.take());
  SchedulerStats After = Eng.poolStats();
  TranslationCacheStats TAfter = Eng.translationStats();
  ResultCacheStats RAfter = Eng.resultCacheStats();
  Batch.Stats.TranslationHits = (TAfter.Hits + TAfter.InflightJoins) -
                                (TBefore.Hits + TBefore.InflightJoins);
  Batch.Stats.TranslationMisses = TAfter.Misses - TBefore.Misses;
  Batch.Stats.ResultCacheHits = (RAfter.Hits + RAfter.InflightJoins) -
                                (RBefore.Hits + RBefore.InflightJoins);
  Batch.Stats.ResultCacheMisses = RAfter.Misses - RBefore.Misses;

  // Per-batch delta of the engine's monotonic pool counters: exact on
  // a quiescent engine, and still meaningful when batches share the
  // pool with other submissions.
  Batch.Stats.Jobs = After.Jobs;
  Batch.Stats.Steals = After.Steals - Before.Steals;
  Batch.Stats.SnapshotEvictions =
      After.SnapshotEvictions - Before.SnapshotEvictions;
  Batch.Stats.PeakFrontier = After.PeakFrontier;
  Batch.Stats.RunsExecuted = After.RunsExecuted - Before.RunsExecuted;
  Batch.Stats.RunsCommitted = After.RunsCommitted - Before.RunsCommitted;
  Batch.Stats.ProvisionalRequeues =
      After.ProvisionalRequeues - Before.ProvisionalRequeues;
  Batch.Stats.DedupHits = After.DedupHits - Before.DedupHits;

  auto End = std::chrono::steady_clock::now();
  Batch.Stats.WallMs =
      std::chrono::duration<double, std::milli>(End - Start).count();
  return Batch;
}
