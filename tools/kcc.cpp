//===- tools/kcc.cpp - The kcc command-line interface -------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// A command-line wrapper mimicking the paper's kcc usage (section 3.2):
// feed it C files; defined programs run (their output and exit status
// pass through), undefined programs are reported in kcc's format.
//
//   kcc [options] file.c [file2.c ...]
//     --target=lp64|ilp32|wideint   implementation-defined parameters
//     --style=cond|chain|decl       specification style (section 4.5)
//     --search=N                    evaluation orders to search (2.5.2)
//     --search-jobs=N               worker threads (0 = all hardware threads)
//     --search-engine=fork|replay   fork snapshots vs replay prefixes
//     --translation-cache=on|off    content-addressed reuse of compiled
//                                   translation units (on by default;
//                                   off recompiles every file — results
//                                   identical, A/B the wall-clock)
//     --result-cache=on|off         content-addressed reuse of completed
//                                   search results (on by default; off
//                                   re-searches every file — results
//                                   identical, A/B the wall-clock).
//                                   Per-request, so it composes with
//                                   --remote: the daemon honors the
//                                   client's choice without affecting
//                                   other clients
//     --no-dedup                    disable search state deduplication
//     --show-witness                print the undefined order's decisions
//                                   plus a search stats block
//     --batch-stats                 print shared-scheduler stats (batch mode)
//     --json                        machine-readable output: the whole run
//                                   as one cundef-kcc-v1 JSON document on
//                                   stdout (docs/JSON_OUTPUT.md); human
//                                   reports and program output passthrough
//                                   are suppressed, the exit-code contract
//                                   is unchanged
//     --no-static                   skip the static undefinedness pass
//     --static-analyze=on|off|only  flow-sensitive static layer (CFG +
//                                   dataflow must/may analysis): on by
//                                   default; off keeps only the
//                                   syntactic checks; only skips the
//                                   dynamic search entirely (the
//                                   verdict is the static one). May
//                                   hints print with --show-witness or
//                                   in only mode; incompatible with
//                                   --catalog-coverage (exit 2)
//     --remote=HOST:PORT            route the analysis through a running
//     --remote=unix:PATH            kcc-serve daemon (docs/SERVE.md)
//                                   instead of a local engine: identical
//                                   stdout and exit codes, but pool
//                                   spawn and frontend work are amortized
//                                   across every client of the daemon.
//                                   Incompatible with --catalog-coverage,
//                                   --static-analyze=only, and
//                                   --translation-cache=off (exit 2);
//                                   transport failures exit 3
//     --order=ltr|rtl|random        evaluation order policy
//     --seed=N                      seed for --order=random
//     --dump-catalog=markdown       print the UB catalog reference (with a
//                                   live Coverage column) and exit
//     --catalog-coverage[=MODE]     run the catalog coverage harness and
//                                   exit: one triggering program per
//                                   catalog row, graded covered /
//                                   wrong-code / missed / inexpressible.
//                                   MODE is quick (4 search runs), full
//                                   (64, the default), or an explicit
//                                   per-program search budget N; with
//                                   --json the verdicts come out as the
//                                   coverage document of cundef-kcc-v1
//
// Every translation unit is submitted to ONE persistent AnalysisEngine
// (driver/Engine.h): program outputs appear on stdout in command-line
// order, per-program reports on stderr, and the exit code is 139 if
// any program is undefined, else 1 if any failed to compile, else the
// program's own exit code (0 for multi-file batches). Results are
// byte-identical to running each file separately.
//
// Flags are validated once, through the AnalysisRequest builder:
// non-numeric values, a zero search budget, or an absurd worker count
// are usage errors (exit 2), never silently coerced.
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"
#include "driver/JsonOutput.h"
#include "serve/Client.h"
#include "suites/CatalogCoverage.h"
#include "support/Strings.h"
#include "ub/Catalog.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace cundef;

static void usage() {
  std::fprintf(stderr,
               "usage: kcc [options] file.c [file2.c ...]\n"
               "  --target=lp64|ilp32|wideint\n"
               "  --style=cond|chain|decl\n"
               "  --search=N\n"
               "  --search-jobs=N      (0 = all hardware threads)\n"
               "  --search-engine=fork|replay\n"
               "  --translation-cache=on|off\n"
               "  --result-cache=on|off\n"
               "  --no-dedup\n"
               "  --show-witness\n"
               "  --batch-stats\n"
               "  --json\n"
               "  --remote=HOST:PORT|unix:PATH\n"
               "  --order=ltr|rtl|random\n"
               "  --seed=N\n"
               "  --no-static\n"
               "  --static-analyze=on|off|only\n"
               "  --dump-catalog=markdown\n"
               "  --catalog-coverage[=quick|full|N]\n");
}

/// Strict numeric flag parsing: `--flag=garbage` is diagnosed and exits
/// 2 (atoi silently mapped it to 0, which --search then clamped to 1 —
/// a typo like --search-jobs=1O quietly serialized the whole search).
static bool parseNumericFlag(const char *Name, const char *Value,
                             unsigned &Out) {
  if (parseUnsigned(Value, Out))
    return true;
  std::fprintf(stderr, "kcc: invalid value '%s' for %s (expected a "
                       "non-negative integer)\n",
               Value, Name);
  return false;
}

/// The per-program stderr tail shared by the single-file and batch
/// paths: truncation honesty, the kcc error report, and the witness.
/// Returns true when the program is undefined.
static bool printProgramReport(const DriverOutcome &O, bool ShowWitness) {
  if (ShowWitness && O.SearchTruncated) {
    // Never let a budget-limited search masquerade as exhaustive: a
    // clean verdict below this line means "no UB found within
    // --search=N runs", not "no order is undefined".
    std::fprintf(stderr,
                 "Search frontier truncated: %u subtree(s) dropped "
                 "unexplored (raise --search to cover them)\n",
                 O.SearchDropped);
  }
  if (!O.anyUb())
    return false;
  std::fputs(O.renderReport().c_str(), stderr);
  if (ShowWitness && !O.DynamicUb.empty()) {
    // The deterministic witness: the evaluation-order decisions that
    // expose the undefinedness (0 = source order, 1 = reversed, one
    // per choice point). Empty = the default order already fails.
    std::string W = "Witness decisions:";
    if (O.SearchWitness.empty())
      W += " (default order)";
    for (uint8_t D : O.SearchWitness)
      W += D ? " 1" : " 0";
    W += "\n";
    std::fputs(W.c_str(), stderr);
  }
  return true;
}

/// Flow-layer may-findings: triage hints, never part of the verdict.
/// Printed in static-only mode (where they are the point) and under
/// --show-witness (where the user asked for everything the analysis
/// knows).
static void printStaticHints(const DriverOutcome &O) {
  if (O.StaticHints.empty())
    return;
  std::fprintf(stderr,
               "Static analysis hints (may-UB, not part of the verdict):\n");
  for (const UbReport &R : O.StaticHints)
    std::fprintf(stderr, "  [may] %05u (%s) function %s line %u: %s\n",
                 static_cast<unsigned>(R.Kind), R.Domain, R.Function.c_str(),
                 R.Loc.Line, R.Description.c_str());
}

/// The --show-witness stats block: the per-program scheduler counters
/// plus the frontend-vs-search cost split (and whether the frontend
/// pass was skipped via the translation cache).
static void printSearchStats(const DriverOutcome &O) {
  std::fprintf(stderr,
               "Search stats: orders=%u deduped=%u steals=%u evictions=%u "
               "peak-frontier=%u\n",
               O.OrdersExplored, O.OrdersDeduped, O.SearchSteals,
               O.SearchEvictions, O.SearchPeakFrontier);
  std::fprintf(stderr,
               "Compile stats: cache=%s frontend-micros=%.1f "
               "search-micros=%.1f\n",
               O.TranslationCacheHit ? "hit" : "miss", O.FrontendMicros,
               O.SearchMicros);
}

/// The --show-witness pool block: scheduler-wide speculation and
/// snapshot-cache contention counters (one line each).
static void printPoolStats(const cundef::SchedulerStats &Pool) {
  std::fprintf(stderr,
               "Pool stats: workers=%u runs-executed=%llu "
               "runs-committed=%llu waste=%.2f%% provisional-hits=%llu "
               "provisional-requeues=%llu commit-lag-peak=%llu\n",
               Pool.Jobs,
               static_cast<unsigned long long>(Pool.RunsExecuted),
               static_cast<unsigned long long>(Pool.RunsCommitted),
               Pool.speculativeWaste() * 100.0,
               static_cast<unsigned long long>(Pool.ProvisionalHits),
               static_cast<unsigned long long>(Pool.ProvisionalRequeues),
               static_cast<unsigned long long>(Pool.CommitLagPeak));
  std::fprintf(stderr,
               "Snapshot cache: shards=%u captures=%llu takes=%llu "
               "hits=%llu slot-steals=%llu evictions=%llu\n",
               Pool.SnapshotShards,
               static_cast<unsigned long long>(Pool.SnapshotCaptures),
               static_cast<unsigned long long>(Pool.SnapshotTakes),
               static_cast<unsigned long long>(Pool.SnapshotHits),
               static_cast<unsigned long long>(Pool.SnapshotSlotSteals),
               static_cast<unsigned long long>(Pool.SnapshotEvictions));
}

int main(int argc, char **argv) {
  AnalysisRequest::Builder Builder;
  Builder.searchRuns(8);
  bool ShowWitness = false;
  bool StaticOnly = false;
  bool BatchStats = false;
  bool Json = false;
  bool UseTranslationCache = true;
  bool UseResultCache = true;
  bool CoverageMode = false;
  unsigned CoverageRuns = 64;
  std::string CoverageModeName = "full";
  std::string RemoteSpec;
  std::vector<const char *> Paths;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (startsWith(Arg, "--dump-catalog=")) {
      const char *Value = Arg + 15;
      if (std::strcmp(Value, "markdown")) {
        usage();
        return 2;
      }
      // The Coverage column is live: run the quick harness (verdicts
      // are deterministic, so the committed doc stays byte-stable).
      CatalogCoverageColumn Col =
          coverageColumn(runCatalogCoverage(coverageRequest(true)));
      std::fputs(renderCatalogMarkdown(&Col).c_str(), stdout);
      return 0;
    } else if (!std::strcmp(Arg, "--catalog-coverage")) {
      CoverageMode = true;
    } else if (startsWith(Arg, "--catalog-coverage=")) {
      // Strict mode parsing: quick, full, or an explicit per-program
      // search budget; anything else (including a garbled number) is a
      // usage error, never silently coerced.
      const char *Value = Arg + 19;
      CoverageMode = true;
      CoverageModeName = Value;
      if (!std::strcmp(Value, "quick"))
        CoverageRuns = 4;
      else if (!std::strcmp(Value, "full"))
        CoverageRuns = 64;
      else if (!parseNumericFlag("--catalog-coverage", Value, CoverageRuns))
        return 2;
    } else if (startsWith(Arg, "--target=")) {
      const char *Value = Arg + 9;
      if (!std::strcmp(Value, "lp64"))
        Builder.target(TargetConfig::lp64());
      else if (!std::strcmp(Value, "ilp32"))
        Builder.target(TargetConfig::ilp32());
      else if (!std::strcmp(Value, "wideint"))
        Builder.target(TargetConfig::wideInt());
      else {
        usage();
        return 2;
      }
    } else if (startsWith(Arg, "--style=")) {
      RuleStyle Style = RuleStyle::SideConditions;
      if (!enumFromName(RuleStyleNames, Arg + 8, Style)) {
        usage();
        return 2;
      }
      Builder.style(Style);
    } else if (startsWith(Arg, "--search=")) {
      // A budget of 0 is rejected below by the request builder, with
      // the rest of the combination validation.
      unsigned Runs = 0;
      if (!parseNumericFlag("--search", Arg + 9, Runs))
        return 2;
      Builder.searchRuns(Runs);
    } else if (startsWith(Arg, "--search-jobs=")) {
      // 0 is meaningful: auto-detect hardware_concurrency.
      unsigned Jobs = 0;
      if (!parseNumericFlag("--search-jobs", Arg + 14, Jobs))
        return 2;
      Builder.searchJobs(Jobs);
    } else if (startsWith(Arg, "--search-engine=")) {
      static const EnumName<bool> EngineNames[] = {{true, "fork"},
                                                   {false, "replay"}};
      bool Fork = true;
      if (!enumFromName(EngineNames, Arg + 16, Fork)) {
        usage();
        return 2;
      }
      Builder.snapshots(Fork);
    } else if (startsWith(Arg, "--translation-cache=")) {
      if (!enumFromName(OnOffNames, Arg + 20, UseTranslationCache)) {
        usage();
        return 2;
      }
    } else if (startsWith(Arg, "--result-cache=")) {
      if (!enumFromName(OnOffNames, Arg + 15, UseResultCache)) {
        usage();
        return 2;
      }
    } else if (startsWith(Arg, "--remote=")) {
      RemoteSpec = Arg + 9;
      if (RemoteSpec.empty()) {
        std::fprintf(stderr, "kcc: --remote= requires HOST:PORT or "
                             "unix:PATH\n");
        return 2;
      }
    } else if (!std::strcmp(Arg, "--no-dedup")) {
      Builder.dedup(false);
    } else if (!std::strcmp(Arg, "--show-witness")) {
      ShowWitness = true;
    } else if (!std::strcmp(Arg, "--batch-stats")) {
      BatchStats = true;
    } else if (!std::strcmp(Arg, "--json")) {
      Json = true;
    } else if (startsWith(Arg, "--order=")) {
      EvalOrderKind Order = EvalOrderKind::LeftToRight;
      if (!enumFromName(EvalOrderNames, Arg + 8, Order)) {
        usage();
        return 2;
      }
      Builder.order(Order);
    } else if (startsWith(Arg, "--seed=")) {
      unsigned Seed = 0;
      if (!parseNumericFlag("--seed", Arg + 7, Seed))
        return 2;
      Builder.seed(Seed);
    } else if (!std::strcmp(Arg, "--no-static")) {
      Builder.staticChecks(false);
    } else if (startsWith(Arg, "--static-analyze=")) {
      StaticAnalysisMode Mode = StaticAnalysisMode::On;
      if (!enumFromName(StaticAnalysisModeNames, Arg + 17, Mode)) {
        std::fprintf(stderr,
                     "kcc: invalid value '%s' for --static-analyze "
                     "(expected on, off, or only)\n",
                     Arg + 17);
        return 2;
      }
      Builder.staticAnalyze(Mode);
      StaticOnly = Mode == StaticAnalysisMode::Only;
    } else if (Arg[0] == '-') {
      usage();
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }
  if (CoverageMode && !Paths.empty()) {
    std::fprintf(stderr, "kcc: --catalog-coverage takes no input files\n");
    return 2;
  }
  if (CoverageMode && StaticOnly) {
    // The coverage harness grades the combined static+dynamic verdict;
    // a static-only run would grade most rows as missed by design.
    std::fprintf(stderr, "kcc: --static-analyze=only is incompatible with "
                         "--catalog-coverage\n");
    return 2;
  }
  if (!CoverageMode && Paths.empty()) {
    usage();
    return 2;
  }

  RemoteEndpoint Remote;
  if (!RemoteSpec.empty()) {
    // Endpoint syntax is validated here, with the rest of the flag
    // surface, so a typo'd --remote exits 2 before any connection or
    // file I/O is attempted.
    std::string EpErr;
    if (!parseRemoteEndpoint(RemoteSpec, Remote, EpErr)) {
      std::fprintf(stderr, "kcc: %s\n", EpErr.c_str());
      return 2;
    }
    if (CoverageMode) {
      // The coverage harness generates its programs and grades them
      // in-process; there is nothing to route through a daemon.
      std::fprintf(stderr,
                   "kcc: --remote is incompatible with --catalog-coverage\n");
      return 2;
    }
    if (StaticOnly) {
      // Static-only triage is a local, sub-millisecond analysis; the
      // daemon exists to amortize pool and frontend work that this
      // mode never does.
      std::fprintf(stderr, "kcc: --remote is incompatible with "
                           "--static-analyze=only\n");
      return 2;
    }
    if (!UseTranslationCache) {
      // The daemon owns its engine's cache; a client cannot switch it
      // off per-request, and silently ignoring the A/B flag would make
      // the comparison lie.
      std::fprintf(stderr, "kcc: --remote is incompatible with "
                           "--translation-cache=off (the daemon owns the "
                           "cache)\n");
      return 2;
    }
  }

  // One validation point for the whole flag surface: nonsense
  // combinations (--search=0, absurd worker counts) exit 2 with the
  // builder's typed diagnostic instead of being silently clamped.
  // Per-request, so it rides the wire to a daemon unchanged (unlike
  // --translation-cache, which configures the engine itself).
  Builder.resultCache(UseResultCache);
  AnalysisRequest::Builder::Result Built = Builder.build();
  if (!Built.ok()) {
    std::fprintf(stderr, "kcc: %s\n", Built.Err.Message.c_str());
    return 2;
  }
  const AnalysisRequest &Req = Built.Request;

  if (CoverageMode) {
    // The whole catalog, one batch, one engine; CoverageRuns is the
    // per-program search budget (the builder rejects a zero budget).
    AnalysisRequest::Builder CovBuilder;
    CovBuilder.searchRuns(CoverageRuns).searchJobs(0);
    AnalysisRequest::Builder::Result Cov = CovBuilder.build();
    if (!Cov.ok()) {
      std::fprintf(stderr, "kcc: %s\n", Cov.Err.Message.c_str());
      return 2;
    }
    auto Start = std::chrono::steady_clock::now();
    CoverageReport Report = runCatalogCoverage(Cov.Request);
    double WallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
    if (Json)
      std::fputs(renderCoverageJson(Report, CoverageModeName.c_str(),
                                    WallMs)
                     .c_str(),
                 stdout);
    else
      std::fputs(renderCoverageReport(Report).c_str(), stdout);
    return 0;
  }

  std::vector<BatchInput> Inputs;
  for (const char *Path : Paths) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "kcc: cannot open %s\n", Path);
      return 2;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Inputs.push_back({Buffer.str(), Path});
  }

  // The single submission path: every translation unit goes through
  // one AnalysisEngine — local, or a kcc-serve daemon's warm one.
  // Both branches fill the same Outcomes/Micros/Pool/TStats and fall
  // through to the same rendering code, so remote stdout is
  // byte-identical to local by construction (volatile stats fields
  // aside; docs/SERVE.md discusses which).
  auto Start = std::chrono::steady_clock::now();
  std::vector<DriverOutcome> Outcomes;
  std::vector<double> Micros;
  SchedulerStats Pool;
  TranslationCacheStats TStats;
  ResultCacheStats RStats;
  if (!RemoteSpec.empty()) {
    RemoteClient Client;
    std::string Err;
    if (!Client.connect(Remote, Err) ||
        !Client.runBatch(Req, Inputs, Outcomes, Micros, Err)) {
      // Exit 3: a transport/protocol/rejection failure, distinct from
      // usage errors (2) and analysis verdicts (139/1/program).
      std::fprintf(stderr, "kcc: remote analysis failed: %s\n", Err.c_str());
      return 3;
    }
    EngineMemoryStats RemoteMemory;
    if (!Client.queryStats(Pool, RemoteMemory, TStats, RStats, Err)) {
      std::fprintf(stderr, "kcc: remote analysis failed: %s\n", Err.c_str());
      return 3;
    }
  } else {
    EngineConfig ECfg = engineConfigFor(Req);
    if (!UseTranslationCache)
      ECfg.TranslationCacheEntries = 0; // A/B mode: recompile every file
    if (!UseResultCache)
      ECfg.ResultCacheEntries = 0; // A/B mode: re-search every file
    AnalysisEngine Eng(ECfg);
    std::vector<JobHandle> Handles = Eng.submitBatch(Req, Inputs);
    Outcomes.reserve(Handles.size());
    for (JobHandle &H : Handles) {
      Micros.push_back(H.wallMicros());
      Outcomes.push_back(H.take());
    }
    Pool = Eng.poolStats();
    TStats = Eng.translationStats();
    RStats = Eng.resultCacheStats();
  }
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  Pool.Programs = static_cast<unsigned>(Inputs.size());

  bool AnyUb = false, AnyCompileFail = false;
  for (const DriverOutcome &O : Outcomes) {
    AnyUb |= O.anyUb();
    AnyCompileFail |= !O.CompileOk && !O.anyUb();
  }
  int ExitCode = AnyUb            ? 139
                 : AnyCompileFail ? 1
                 : Outcomes.size() == 1 ? Outcomes[0].ExitCode
                                        : 0;

  if (Json) {
    // Machine-readable boundary: the document is the entire stdout;
    // program output is embedded, the human report is suppressed.
    const char *StaticModeName =
        enumName(StaticAnalysisModeNames, Req.staticAnalyze());
    std::vector<JsonProgram> Progs;
    Progs.reserve(Outcomes.size());
    for (size_t I = 0; I < Outcomes.size(); ++I)
      Progs.push_back({&Outcomes[I], Inputs[I].Name, Micros[I],
                       StaticModeName});
    std::fputs(renderJsonDocument(Progs, Pool, TStats, RStats, WallMs,
                                  ExitCode)
                   .c_str(),
               stdout);
    return ExitCode;
  }

  for (size_t I = 0; I < Outcomes.size(); ++I) {
    const DriverOutcome &O = Outcomes[I];
    if (Inputs.size() > 1)
      std::fprintf(stderr, "== %s ==\n", Inputs[I].Name.c_str());
    if (!O.CompileOk) {
      std::fputs(O.CompileErrors.c_str(), stderr);
      if (!O.anyUb())
        continue;
    }
    // Program output passes through, in command-line order.
    std::fputs(O.Output.c_str(), stdout);
    printProgramReport(O, ShowWitness);
    if (StaticOnly || ShowWitness)
      printStaticHints(O);
    if (ShowWitness)
      printSearchStats(O);
  }
  if (ShowWitness)
    printPoolStats(Pool);
  if (BatchStats) {
    std::fprintf(stderr,
                 "Batch stats: programs=%u jobs=%u runs=%llu committed=%llu "
                 "waste=%.2f%% steals=%llu "
                 "dedup-hits=%llu evictions=%llu peak-frontier=%llu "
                 "wall-ms=%.2f\n",
                 Pool.Programs, Pool.Jobs,
                 static_cast<unsigned long long>(Pool.RunsExecuted),
                 static_cast<unsigned long long>(Pool.RunsCommitted),
                 Pool.speculativeWaste() * 100.0,
                 static_cast<unsigned long long>(Pool.Steals),
                 static_cast<unsigned long long>(Pool.DedupHits),
                 static_cast<unsigned long long>(Pool.SnapshotEvictions),
                 static_cast<unsigned long long>(Pool.PeakFrontier),
                 WallMs);
    std::fprintf(stderr,
                 "Translation cache: hits=%llu joins=%llu misses=%llu "
                 "evictions=%llu\n",
                 static_cast<unsigned long long>(TStats.Hits),
                 static_cast<unsigned long long>(TStats.InflightJoins),
                 static_cast<unsigned long long>(TStats.Misses),
                 static_cast<unsigned long long>(TStats.Evictions));
    std::fprintf(stderr,
                 "Result cache: hits=%llu joins=%llu misses=%llu "
                 "evictions=%llu\n",
                 static_cast<unsigned long long>(RStats.Hits),
                 static_cast<unsigned long long>(RStats.InflightJoins),
                 static_cast<unsigned long long>(RStats.Misses),
                 static_cast<unsigned long long>(RStats.Evictions));
    for (size_t I = 0; I < Outcomes.size(); ++I) {
      const DriverOutcome &O = Outcomes[I];
      const char *Verdict = !O.CompileOk && !O.anyUb() ? "compile-error"
                            : O.anyUb()                ? "UNDEFINED"
                                                       : "clean";
      std::fprintf(stderr, "  %s: %s (orders=%u deduped=%u)\n",
                   Inputs[I].Name.c_str(), Verdict, O.OrdersExplored,
                   O.OrdersDeduped);
    }
  }
  return ExitCode;
}
