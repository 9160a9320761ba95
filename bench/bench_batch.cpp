//===- bench/bench_batch.cpp - Batched multi-program driver bench ------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// UB tooling has to run over many real translation units, not one file
// at a time (ISSUE 3; Ruohonen & Sierszecki's desktop-scale study) —
// and a service is handed batch after batch, not one (ISSUE 4). This
// bench builds a mixed fleet of programs — order-dependent UB, deep
// clean trees, quick scripts — and compares:
//
//   sequential     one Driver::runSource per program,
//   batch x1       Driver::runBatch, one shared scheduler, 1 worker,
//   batch xN       the same with --search-jobs=N workers,
//   engine xN      ONE persistent AnalysisEngine serving ROUNDS
//                  consecutive batches (pool reused, startup amortized),
//                  vs a fresh Driver (fresh pool) per batch.
//
// A second, duplicate-heavy workload (ISSUE 5) A/Bs the engine's
// translation cache: the same translation unit submitted xN compiles
// once with the cache on and N times with it off, with byte-identical
// outcomes either way. Its cache hit rate lands in BENCH_batch.json.
//
// A third workload A/Bs the *result* cache on the shape where the
// search, not the frontend, is the duplicated cost: a search-heavy
// unit analyzed once cold and then resubmitted xN. Warm repeats must
// come from the published outcome (hit rate > 0), the cache-on side
// must beat the cache-off side by >= 3x wall clock, and every outcome
// must be byte-identical either way.
//
// Per-program outcomes must be identical in every mode and every round
// (verdict, witness, output, exit code); the duplicate workloads' hit
// rates and the result-cache 3x gain are gated — the bench exits
// nonzero otherwise, and the bench_batch_quick
// ctest guards them in CI. Other wall-clock numbers are informational.
// Results land in BENCH_batch.json next to bench_search's
// BENCH_search.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/Driver.h"
#include "driver/ResultCache.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

using namespace cundef;

namespace {

double wallOf(const std::function<void()> &Fn) {
  auto Start = std::chrono::steady_clock::now();
  Fn();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

bool sameOutcome(const DriverOutcome &A, const DriverOutcome &B) {
  return A.CompileOk == B.CompileOk && A.anyUb() == B.anyUb() &&
         A.SearchWitness == B.SearchWitness && A.Output == B.Output &&
         A.ExitCode == B.ExitCode;
}

/// A frontend-heavy translation unit: hundreds of functions to lex,
/// parse, and type-check, of which main() calls exactly one — so the
/// machine run is trivial and duplicate submissions measure
/// translation cost, which is what the cache amortizes. (This is the
/// real-world shape too: most of a translation unit is headers and
/// helpers the analyzed entry point never touches.)
std::string bigStraightLineProgram(unsigned Funcs) {
  std::string Src;
  for (unsigned F = 0; F < Funcs; ++F) {
    Src += "static int f" + std::to_string(F) + "(int x) {\n";
    Src += "  int a = x + " + std::to_string(F) + "; int b = a * 3;\n";
    Src += "  int c = b - a; int d = c + (a > 0 ? 1 : 2);\n";
    Src += "  return d + b;\n}\n";
  }
  Src += "int main(void) { return f0(1) > 0 ? 0 : 1; }\n";
  return Src;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  const char *JsonPath = "BENCH_batch.json";
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--quick"))
      Quick = true;
    else if (!std::strncmp(argv[I], "--json=", 7))
      JsonPath = argv[I] + 7;
  }
  const unsigned Deep = Quick ? 3 : 6;
  const unsigned Pairs = Quick ? 6 : 8;
  const unsigned SearchRuns = Quick ? 96 : 256;
  const unsigned Jobs = 4;
  const unsigned Rounds = 3; // consecutive batches for the engine mode

  std::vector<BatchInput> Inputs;
  Inputs.push_back({"int d = 5;\n"
                    "int setDenom(int x) { return d = x; }\n"
                    "int main(void) { return (10 / d) + setDenom(0); }\n",
                    "paper.c"});
  Inputs.push_back({"#include <stdio.h>\n"
                    "int main(void) { printf(\"fleet\\n\"); return 0; }\n",
                    "hello.c"});
  for (unsigned I = 0; I < Deep; ++I)
    Inputs.push_back({cundef_bench::deepTreeProgram(Pairs, 128, I * 7),
                      "deep" + std::to_string(I) + ".c"});
  Inputs.push_back({"int a = 1;\n"
                    "int set(int v) { a = v; return 0; }\n"
                    "int main(void) { return (8 / a) + (set(0) + set(1)); }\n",
                    "nested.c"});

  AnalysisRequest Opts =
      AnalysisRequest::Builder().searchRuns(SearchRuns).buildOrDie();
  AnalysisRequest OptsN = AnalysisRequest::Builder()
                              .searchRuns(SearchRuns)
                              .searchJobs(Jobs)
                              .buildOrDie();

  std::printf("Batched multi-program driver, %zu translation units, "
              "search budget %u%s\n\n",
              Inputs.size(), SearchRuns, Quick ? " [quick]" : "");

  // Sequential: one runSource per program.
  std::vector<DriverOutcome> Seq;
  double SeqMs = wallOf([&] {
    Driver Drv(Opts);
    for (const BatchInput &In : Inputs)
      Seq.push_back(Drv.runSource(In.Source, In.Name));
  });

  // Batched, shared scheduler at 1 and N workers.
  BatchResult Batch1, BatchN;
  double Batch1Ms = wallOf([&] {
    Driver Drv(Opts);
    Batch1 = Drv.runBatch(Inputs);
  });
  double BatchNMs = wallOf([&] {
    Driver Drv(OptsN);
    BatchN = Drv.runBatch(Inputs);
  });

  // Engine reuse: one persistent pool across consecutive batches
  // (drained between rounds, like a service between requests), against
  // a fresh Driver — fresh pool — per batch.
  std::vector<double> FreshMs(Rounds), ReuseMs(Rounds);
  std::vector<BatchResult> FreshResults(Rounds), ReuseResults(Rounds);
  for (unsigned R = 0; R < Rounds; ++R)
    FreshMs[R] = wallOf([&] {
      Driver Drv(OptsN);
      FreshResults[R] = Drv.runBatch(Inputs);
    });
  {
    Driver Service(OptsN); // one engine, Rounds batches
    for (unsigned R = 0; R < Rounds; ++R) {
      ReuseMs[R] = wallOf([&] { ReuseResults[R] = Service.runBatch(Inputs); });
      Service.engine().drain(); // reclaim between batches, like a service
    }
  }

  bool OutcomesAgree = true;
  std::printf("%-12s %-10s %8s %8s\n", "program", "verdict", "orders",
              "deduped");
  std::printf("%s\n", std::string(42, '-').c_str());
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const DriverOutcome &O = Batch1.Outcomes[I];
    if (!sameOutcome(Seq[I], O) || !sameOutcome(O, BatchN.Outcomes[I]))
      OutcomesAgree = false;
    for (unsigned R = 0; R < Rounds; ++R)
      if (!sameOutcome(O, FreshResults[R].Outcomes[I]) ||
          !sameOutcome(O, ReuseResults[R].Outcomes[I]))
        OutcomesAgree = false;
    std::printf("%-12s %-10s %8u %8u\n", Inputs[I].Name.c_str(),
                O.anyUb() ? "UNDEF" : "clean", O.OrdersExplored,
                O.OrdersDeduped);
  }
  std::printf("%s\n", std::string(42, '-').c_str());
  std::printf("sequential %.2f ms; batch x1 %.2f ms (%.2fx); batch x%u "
              "%.2f ms (%.2fx)\n",
              SeqMs, Batch1Ms, Batch1Ms > 0 ? SeqMs / Batch1Ms : 0.0, Jobs,
              BatchNMs, BatchNMs > 0 ? SeqMs / BatchNMs : 0.0);

  double FreshTotal = 0, ReuseTotal = 0;
  std::printf("\nengine reuse (x%u workers, %u consecutive batches):\n",
              Jobs, Rounds);
  std::printf("%-8s %12s %12s\n", "round", "fresh-pool", "one-engine");
  for (unsigned R = 0; R < Rounds; ++R) {
    FreshTotal += FreshMs[R];
    ReuseTotal += ReuseMs[R];
    std::printf("%-8u %9.2f ms %9.2f ms\n", R + 1, FreshMs[R], ReuseMs[R]);
  }
  std::printf("%-8s %9.2f ms %9.2f ms (%.2fx)\n", "total", FreshTotal,
              ReuseTotal, ReuseTotal > 0 ? FreshTotal / ReuseTotal : 0.0);

  std::printf("scheduler (x%u): jobs=%u steals=%llu runs=%llu "
              "dedup-hits=%llu peak-frontier=%llu\n",
              Jobs, BatchN.Stats.Jobs,
              static_cast<unsigned long long>(BatchN.Stats.Steals),
              static_cast<unsigned long long>(BatchN.Stats.RunsExecuted),
              static_cast<unsigned long long>(BatchN.Stats.DedupHits),
              static_cast<unsigned long long>(BatchN.Stats.PeakFrontier));
  std::printf("per-program outcomes %s\n",
              OutcomesAgree ? "identical across all modes and rounds"
                            : "DIFFER (bug!)");

  // Duplicate-heavy workload: the same frontend-bound unit xN (the
  // suite-regeneration / repeat-traffic shape), translation cache on
  // vs off. The search is one run per program, so wall-clock here is
  // dominated by exactly the cost the cache removes.
  const unsigned DupCopies = Quick ? 12 : 24;
  const std::string BigSource = bigStraightLineProgram(Quick ? 240 : 480);
  std::vector<BatchInput> DupInputs;
  for (unsigned I = 0; I < DupCopies; ++I)
    DupInputs.push_back({BigSource, "dup.c"});
  DupInputs.push_back({Inputs[0].Source, "paper.c"}); // one searchy unit
  AnalysisRequest DupReq = AnalysisRequest::Builder()
                               .searchRuns(8)
                               .searchJobs(Jobs)
                               .buildOrDie();

  std::vector<DriverOutcome> DupOn, DupOff;
  double HitRate = 0.0;
  double DupOnMs = wallOf([&] {
    AnalysisEngine Eng(engineConfigFor(DupReq));
    std::vector<JobHandle> Handles = Eng.submitBatch(DupReq, DupInputs);
    for (JobHandle &H : Handles)
      DupOn.push_back(H.take());
    HitRate = Eng.translationStats().hitRate();
  });
  double DupOffMs = wallOf([&] {
    EngineConfig Off = engineConfigFor(DupReq);
    Off.TranslationCacheEntries = 0;
    AnalysisEngine Eng(Off);
    std::vector<JobHandle> Handles = Eng.submitBatch(DupReq, DupInputs);
    for (JobHandle &H : Handles)
      DupOff.push_back(H.take());
  });

  bool DupAgree = DupOn.size() == DupOff.size();
  for (size_t I = 0; DupAgree && I < DupOn.size(); ++I)
    DupAgree = sameOutcome(DupOn[I], DupOff[I]);

  std::printf("\nduplicate-heavy translation (%zu units, %u copies of one "
              "file):\n",
              DupInputs.size(), DupCopies);
  std::printf("cache-on %.2f ms; cache-off %.2f ms (%.2fx); hit rate "
              "%.1f%%; outcomes %s\n",
              DupOnMs, DupOffMs, DupOnMs > 0 ? DupOffMs / DupOnMs : 0.0,
              HitRate * 100.0, DupAgree ? "identical" : "DIFFER (bug!)");
  const bool CacheOk = DupAgree && HitRate > 0.0;

  // Result-cache workload (ISSUE 10): repeat traffic where the SEARCH
  // is the duplicated cost. One cold analysis publishes the outcome;
  // the batch of N identical resubmissions must resolve warm (no
  // search at all), while the cache-off A/B runs all N searches on the
  // same worker count. The duplicates reuse ONE unit name — the
  // translation key digests the name (diagnostics embed it), so
  // renamed copies are distinct programs by design.
  const unsigned RcCopies = Quick ? 10 : 20;
  const std::string RcSource = cundef_bench::deepTreeProgram(Pairs, 128, 3);
  std::vector<BatchInput> RcInputs;
  for (unsigned I = 0; I < RcCopies; ++I)
    RcInputs.push_back({RcSource, "rcdup.c"});

  DriverOutcome RcCold;
  std::vector<DriverOutcome> RcWarm, RcOff;
  ResultCacheStats RcStats;
  double RcColdMs = 0, RcWarmMs = 0;
  double RcOnMs = wallOf([&] {
    AnalysisEngine Eng(engineConfigFor(OptsN));
    RcColdMs = wallOf(
        [&] { RcCold = Eng.submit(OptsN, RcSource, "rcdup.c").take(); });
    RcWarmMs = wallOf([&] {
      std::vector<JobHandle> Handles = Eng.submitBatch(OptsN, RcInputs);
      for (JobHandle &H : Handles)
        RcWarm.push_back(H.take());
    });
    RcStats = Eng.resultCacheStats();
  });
  double RcOffMs = wallOf([&] {
    EngineConfig Off = engineConfigFor(OptsN);
    Off.ResultCacheEntries = 0;
    AnalysisEngine Eng(Off);
    std::vector<JobHandle> Handles = Eng.submitBatch(OptsN, RcInputs);
    for (JobHandle &H : Handles)
      RcOff.push_back(H.take());
  });

  bool RcAgree = RcWarm.size() == RcCopies && RcOff.size() == RcCopies;
  for (size_t I = 0; RcAgree && I < RcCopies; ++I)
    RcAgree = sameOutcome(RcCold, RcWarm[I]) && sameOutcome(RcCold, RcOff[I]);
  double RcGain = RcOnMs > 0 ? RcOffMs / RcOnMs : 0.0;

  std::printf("\nduplicate-heavy search (result cache, %u repeats of one "
              "search-heavy unit):\n",
              RcCopies);
  std::printf("cold %.2f ms; warm batch %.2f ms; cache-on total %.2f ms; "
              "cache-off %.2f ms (%.2fx)\n",
              RcColdMs, RcWarmMs, RcOnMs, RcOffMs, RcGain);
  std::printf("result cache: hits=%llu joins=%llu misses=%llu hit rate "
              "%.1f%%; outcomes %s\n",
              static_cast<unsigned long long>(RcStats.Hits),
              static_cast<unsigned long long>(RcStats.InflightJoins),
              static_cast<unsigned long long>(RcStats.Misses),
              RcStats.hitRate() * 100.0,
              RcAgree ? "identical" : "DIFFER (bug!)");
  const bool ResultCacheOk = RcAgree && RcStats.hitRate() > 0.0 &&
                             RcGain >= 3.0;
  if (!ResultCacheOk)
    std::fprintf(stderr, "bench_batch: result-cache gate FAILED "
                         "(agree=%d hit_rate=%.3f gain=%.2fx, need >= 3x)\n",
                 RcAgree ? 1 : 0, RcStats.hitRate(), RcGain);

  std::string Json = "{\n  \"bench\": \"batch\",\n";
  Json += std::string("  \"quick\": ") + (Quick ? "true" : "false") + ",\n";
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf),
                "  \"programs\": %zu,\n  \"budget\": %u,\n"
                "  \"modes\": [\n"
                "    {\"mode\": \"sequential\", \"jobs\": 1, "
                "\"wall_ms\": %.3f},\n"
                "    {\"mode\": \"batch\", \"jobs\": 1, \"wall_ms\": %.3f, "
                "\"steals\": %llu, \"runs\": %llu},\n"
                "    {\"mode\": \"batch\", \"jobs\": %u, \"wall_ms\": %.3f, "
                "\"steals\": %llu, \"runs\": %llu}\n"
                "  ],\n",
                Inputs.size(), SearchRuns, SeqMs, Batch1Ms,
                static_cast<unsigned long long>(Batch1.Stats.Steals),
                static_cast<unsigned long long>(Batch1.Stats.RunsExecuted),
                Jobs, BatchNMs,
                static_cast<unsigned long long>(BatchN.Stats.Steals),
                static_cast<unsigned long long>(BatchN.Stats.RunsExecuted));
  Json += Buf;
  auto msArray = [](const std::vector<double> &Ms) {
    std::string Out = "[";
    for (size_t I = 0; I < Ms.size(); ++I) {
      char Cell[32];
      std::snprintf(Cell, sizeof(Cell), "%s%.3f", I ? ", " : "", Ms[I]);
      Out += Cell;
    }
    return Out + "]";
  };
  std::snprintf(Buf, sizeof(Buf),
                "  \"engine_reuse\": {\"jobs\": %u, \"batches\": %u,\n"
                "    \"fresh_pool_ms\": %s,\n"
                "    \"one_engine_ms\": %s,\n"
                "    \"fresh_total_ms\": %.3f, \"one_engine_total_ms\": %.3f"
                "},\n",
                Jobs, Rounds, msArray(FreshMs).c_str(),
                msArray(ReuseMs).c_str(), FreshTotal, ReuseTotal);
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"translation_cache\": {\"units\": %zu, \"copies\": %u,\n"
                "    \"cache_on_ms\": %.3f, \"cache_off_ms\": %.3f,\n"
                "    \"hit_rate\": %.4f, \"outcomes_identical\": %s},\n",
                DupInputs.size(), DupCopies, DupOnMs, DupOffMs, HitRate,
                DupAgree ? "true" : "false");
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  \"result_cache\": {\"copies\": %u,\n"
                "    \"cold_ms\": %.3f, \"warm_batch_ms\": %.3f,\n"
                "    \"cache_on_ms\": %.3f, \"cache_off_ms\": %.3f, "
                "\"gain\": %.3f,\n"
                "    \"hits\": %llu, \"inflight_joins\": %llu, "
                "\"misses\": %llu,\n"
                "    \"hit_rate\": %.4f, \"outcomes_identical\": %s},\n",
                RcCopies, RcColdMs, RcWarmMs, RcOnMs, RcOffMs, RcGain,
                static_cast<unsigned long long>(RcStats.Hits),
                static_cast<unsigned long long>(RcStats.InflightJoins),
                static_cast<unsigned long long>(RcStats.Misses),
                RcStats.hitRate(), RcAgree ? "true" : "false");
  Json += Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"outcomes_identical\": %s\n}\n",
                OutcomesAgree ? "true" : "false");
  Json += Buf;
  cundef_bench::writeJsonFile("bench_batch", JsonPath, Json);
  return OutcomesAgree && CacheOk && ResultCacheOk ? 0 : 1;
}
