//===- driver/Engine.cpp - The persistent analysis engine ----------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// Threading model: one pool. The engine runs on its scheduler's
// workers (EngineConfig::Workers threads in total) and nothing else.
//
//  * submit() only enqueues: it copies the source into a compile job,
//    posts it to the scheduler, and returns. A worker runs the job: it
//    resolves the unit through the translation cache (one compile per
//    content key; racing identical submissions wait on that one
//    compile), then either finishes the job right there (compile
//    failure, result-cache hit, static-only request), parks it as a
//    joiner of an identical in-flight search (the owner's completion
//    finishes it), or submits the search, whose root run goes on the
//    same worker's deque.
//
//  * Admission: a worker takes a queued compile job first while fewer
//    programs than workers are in the search or being compiled, and
//    search runs first otherwise (core/Scheduler.h). A batch far
//    larger than the pool therefore waits as source text, not as
//    started searches holding snapshots.
//
//  * A pooled job's artifact must outlive every machine that touches
//    it — including runs of a *finished* program that are still
//    observing their cancellation. The scheduler pins it: submit()
//    hands it the artifact's AST as a shared_ptr aliasing the
//    artifact, and the worker that ends the finished program's last
//    run drops that pin. The translation cache holds its own
//    reference, so the release does not forfeit reuse — and a cache
//    *eviction* can never free an AST a machine still reads.
//
//  * The completion callback runs on a worker with no scheduler locks
//    held and takes the engine mutex only to look up the job, so sinks
//    may re-enter the engine (submit chains, service pipelines).
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"

#include "frontend/Frontend.h"
#include "libc/Headers.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

using namespace cundef;

EngineConfig cundef::engineConfigFor(const AnalysisRequest &Req) {
  EngineConfig Cfg;
  Cfg.Workers = Req.searchJobs();
  return Cfg;
}

std::string DriverOutcome::renderReport() const {
  std::string Out;
  if (!CompileOk && StaticUb.empty() && DynamicUb.empty())
    return CompileErrors;
  std::vector<UbReport> All = StaticUb;
  All.insert(All.end(), DynamicUb.begin(), DynamicUb.end());
  return renderKccErrors(All);
}

//===----------------------------------------------------------------------===//
// Job state
//===----------------------------------------------------------------------===//

struct cundef::detail::JobState {
  size_t Id = 0;
  std::string Name;
  std::chrono::steady_clock::time_point SubmitTime;
  std::chrono::steady_clock::time_point SearchStart;
  EngineSink *Sink = nullptr;

  /// This job owns a result-cache claim: finishJob publishes its
  /// outcome under RKey (and thereby fires any joined submissions).
  bool Publish = false;
  ResultKey RKey;

  /// Partial outcome written by the frontend stage (compile half),
  /// completed by the search result. Guarded by Mu once the job is in
  /// flight.
  mutable std::mutex Mu;
  mutable std::condition_variable Cv;
  bool Done = false;
  DriverOutcome Outcome;
  double WallMicros = 0.0;
};

using cundef::detail::JobState;

size_t JobHandle::id() const {
  assert(State);
  return State->Id;
}

bool JobHandle::done() const {
  assert(State);
  std::lock_guard<std::mutex> Lock(State->Mu);
  return State->Done;
}

const DriverOutcome &JobHandle::wait() const {
  assert(State);
  std::unique_lock<std::mutex> Lock(State->Mu);
  State->Cv.wait(Lock, [&] { return State->Done; });
  return State->Outcome;
}

DriverOutcome JobHandle::take() {
  assert(State);
  std::unique_lock<std::mutex> Lock(State->Mu);
  State->Cv.wait(Lock, [&] { return State->Done; });
  return std::move(State->Outcome);
}

double JobHandle::wallMicros() const {
  assert(State);
  std::unique_lock<std::mutex> Lock(State->Mu);
  State->Cv.wait(Lock, [&] { return State->Done; });
  return State->WallMicros;
}

//===----------------------------------------------------------------------===//
// Engine implementation
//===----------------------------------------------------------------------===//

namespace {

double microsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

struct AnalysisEngine::Impl {
  static SearchScheduler::Config schedConfig(const EngineConfig &Cfg) {
    SearchScheduler::Config SC;
    SC.Jobs = Cfg.Workers;
    SC.ClampJobsToHardware = Cfg.ClampWorkersToHardware;
    SC.SnapshotBudget = Cfg.SnapshotBudget;
    return SC;
  }

  explicit Impl(EngineConfig Cfg)
      : Cfg(Cfg), Sched(schedConfig(Cfg)), TCache(Cfg.TranslationCacheEntries),
        RCache(Cfg.ResultCacheEntries) {
    registerStandardHeaders(Headers);
    Sched.setProgramDoneCallback([this](size_t Prog) { onProgramDone(Prog); });
  }

  EngineConfig Cfg;
  HeaderRegistry Headers;
  SearchScheduler Sched;
  ContentCache<TranslationKey, CompiledProgramRef> TCache;
  ContentCache<ResultKey, CachedOutcome> RCache;
  using ResultClaim = ContentCache<ResultKey, CachedOutcome>::Claim;
  /// Context digest (TranslationKey::ContextHash) of the last
  /// submission; a change means headers() was edited on the live
  /// engine, which triggers the context sweep of both caches (0 = none
  /// seen yet).
  std::atomic<uint64_t> LastContextHash{0};

  /// Guards Pending and ShutDown.
  std::mutex Mu;
  /// Pooled jobs by scheduler program id.
  std::unordered_map<size_t, std::shared_ptr<JobState>> Pending;
  bool ShutDown = false;

  std::atomic<size_t> NextJobId{1};
  std::atomic<size_t> Outstanding{0};
  std::mutex DrainMu;
  std::condition_variable DrainCv;

  //===--- Compile job (pool worker thread) -------------------------------===//

  /// Resolves \p Source through the translation cache into \p Key's
  /// artifact. \p Key receives the unit's content address whether or
  /// not the cache is on: the result cache and the context sweep key
  /// on it. Artifacts the cache evicted to make room go to \p Evicted
  /// when given (else they are dropped before returning).
  CompiledProgramRef frontend(const AnalysisRequest &Req,
                              const std::string &Source,
                              const std::string &Name, bool *WasHit,
                              TranslationKey &Key,
                              std::vector<CompiledProgramRef> *Evicted =
                                  nullptr) {
    FrontendOptions FO;
    FO.Target = Req.target();
    FO.StaticChecks = Req.staticChecks();
    FO.FlowChecks = Req.staticAnalyze() != StaticAnalysisMode::Off;
    // Hash once: the key addresses the cache AND stamps the artifact,
    // so the two can never diverge (and a miss does not re-hash the
    // source and the whole header registry inside the compile).
    Key = translationKeyFor(FO, Source, Name, Headers.fingerprint());
    return TCache.getOrCompute(
        Key,
        [&] { return compileTranslationUnit(FO, Source, Name, Headers, &Key); },
        WasHit, Evicted);
  }

  /// Live-engine header edits re-key every unit (the header
  /// fingerprint is folded into TranslationKey::ContextHash), so a
  /// stale entry can never be *served* — but it would squat in the LRU
  /// until pressure evicts it. Sweeps the previous context's entries
  /// from both caches the first time a submission arrives under a new
  /// one.
  void sweepStaleContexts(uint64_t Ctx) {
    const uint64_t Prev = LastContextHash.exchange(Ctx);
    if (Prev == 0 || Prev == Ctx)
      return;
    TCache.evictIf(
        [Ctx](const TranslationKey &K) { return K.ContextHash != Ctx; });
    RCache.evictIf([Ctx](const ResultKey &K) {
      return K.Translation.ContextHash != Ctx;
    });
  }

  /// The result cache's content address for \p Req over the unit
  /// \p TKey addresses. The search fingerprint folds in the
  /// static-analysis mode: On and Only share a translation key (both
  /// run flow checks) but produce different outcomes (Only never
  /// searches), so the mode must separate their entries.
  static ResultKey resultKeyFor(const AnalysisRequest &Req,
                                const TranslationKey &TKey) {
    ResultKey K;
    K.Translation = TKey;
    K.MachineFp = machineOptionsFingerprint(Req.machine());
    SearchOptions SO;
    SO.MaxRuns = Req.searchRuns();
    SO.Dedup = Req.searchDedup();
    SO.UseSnapshots = Req.searchSnapshots();
    WordHasher H;
    H.u64(searchOptionsFingerprint(SO));
    H.u8(static_cast<uint8_t>(Req.staticAnalyze()));
    K.SearchFp = H.digest();
    return K;
  }

  /// A copy of the cached outcome adjusted to describe THIS
  /// submission: the cache flags and frontend timing are this job's,
  /// everything else — including SearchMicros and the search counters
  /// — replays the original run's verbatim (byte-equality is the
  /// contract; tests/test_result_cache.cpp pins it).
  static DriverOutcome cachedHitOutcome(const DriverOutcome &Cached,
                                        bool TranslationHit,
                                        double FrontendMicros) {
    DriverOutcome O = Cached;
    O.ResultCacheHit = true;
    O.TranslationCacheHit = TranslationHit;
    O.FrontendMicros = FrontendMicros;
    return O;
  }

  /// The whole per-job frontend stage, a compile job on a pool worker:
  /// cache lookup / compile, then finish inline (compile failure, cache
  /// hit, static-only request) or seed the search scheduler.
  void processSubmission(const std::shared_ptr<JobState> &StPtr,
                         const AnalysisRequest &Req,
                         const std::string &Source) {
    JobState &St = *StPtr;

    // Once the cache is full, every new program evicts another's
    // artifact (AST, types, diagnostics). Freeing it is no part of this
    // job: it happens when this function returns, after the job is
    // queued or finished, not inside the frontend's timing.
    std::vector<CompiledProgramRef> Evicted;
    auto FeStart = std::chrono::steady_clock::now();
    const bool UseRC = RCache.enabled() && Req.useResultCache();
    bool Hit = false;
    TranslationKey TKey;
    CompiledProgramRef Art;
    try {
      Art = frontend(Req, Source, St.Name, &Hit, TKey, &Evicted);
    } catch (const std::exception &E) {
      // A throwing frontend (OOM, realistically) must not escape a
      // pool worker — that would terminate the whole service and
      // strand the job's future. Fail this job, keep serving.
      DriverOutcome O;
      O.CompileErrors =
          std::string("internal error during translation: ") + E.what();
      O.FrontendMicros = microsSince(FeStart);
      finishJob(St, std::move(O), microsSince(St.SubmitTime));
      return;
    }

    DriverOutcome O;
    O.CompileOk = Art->ok();
    O.CompileErrors = Art->errors();
    O.StaticUb = Art->staticUb();
    O.StaticHints = Art->staticHints();
    O.TranslationCacheHit = Hit;
    O.FrontendMicros = microsSince(FeStart);
    sweepStaleContexts(TKey.ContextHash);

    // Result-cache lookup: one atomic hit / claim / join on the full
    // content address. Placed AFTER artifact resolution so a hit still
    // pays the (cheap) translation-cache lookup — keeping the
    // translation counters' Hits + Misses == Programs invariant — but
    // skips the search entirely. The frontend-exception path above
    // never reaches here, so it never claims (nothing to leak).
    if (UseRC) {
      St.RKey = resultKeyFor(Req, TKey);
      // The waiter fires if (and only if) this submission JOINS an
      // in-flight twin: the owner's publish completes this job with
      // the shared outcome, on the owner's thread, outside all cache
      // locks. Capture this job's own frontend facts now — they are
      // the only fields of the final outcome that are not the cached
      // run's.
      const bool TrHit = Hit;
      const double FeMicros = O.FrontendMicros;
      ResultClaim Claim = RCache.begin(
          St.RKey, [this, StPtr, TrHit, FeMicros](CachedOutcome Ready) {
            if (Ready) {
              finishJob(*StPtr, cachedHitOutcome(*Ready, TrHit, FeMicros),
                        microsSince(StPtr->SubmitTime));
              return;
            }
            // Defensive: the owner released its claim without an
            // outcome. No current completion path does this (every
            // owner funnels through finishJob), but a stranded future
            // would hang the client forever, so fail loudly instead.
            DriverOutcome Fail;
            Fail.CompileErrors =
                "internal error: result-cache owner abandoned the search";
            Fail.FrontendMicros = FeMicros;
            finishJob(*StPtr, std::move(Fail),
                      microsSince(StPtr->SubmitTime));
          });
      switch (Claim.K) {
      case ResultClaim::Kind::Hit:
        finishJob(St, cachedHitOutcome(*Claim.Ready, Hit, O.FrontendMicros),
                  microsSince(St.SubmitTime));
        return;
      case ResultClaim::Kind::Joined:
        return; // the owner's publish finishes this job
      case ResultClaim::Kind::Owner:
        St.Publish = true; // finishJob publishes under St.RKey
        break;
      }
    }

    if (!Art->ok()) {
      O.Status = RunStatus::Internal;
      finishJob(St, std::move(O), microsSince(St.SubmitTime));
      return;
    }

    if (Req.staticAnalyze() == StaticAnalysisMode::Only) {
      // Static-only: the verdict is the frontend's. No machine runs,
      // so the status is Completed with no execution behind it.
      O.StaticOnly = true;
      O.Status = RunStatus::Completed;
      finishJob(St, std::move(O), microsSince(St.SubmitTime));
      return;
    }

    // The request was validated at build time (searchRuns >= 1), so
    // the root run always executes and doubles as the default-order
    // run (root gating).
    SearchOptions SO;
    SO.MaxRuns = Req.searchRuns();
    SO.Dedup = Req.searchDedup();
    SO.UseSnapshots = Req.searchSnapshots();
    SO.SnapshotBudget = Cfg.SnapshotBudget;

    {
      std::lock_guard<std::mutex> Lock(Mu);
      {
        std::lock_guard<std::mutex> StLock(St.Mu);
        St.Outcome = std::move(O); // compile half; completed on finish
      }
      St.SearchStart = std::chrono::steady_clock::now();
      // Holding Mu across the scheduler submit closes the race where a
      // one-worker pool finishes the program before it lands in
      // Pending: the completion callback takes Mu before its lookup.
      // The scheduler pins the artifact until the program's last run.
      size_t Prog = Sched.submit(pinnedAst(std::move(Art)), Req.machine(),
                                 SO, /*RootGated=*/true);
      Pending.emplace(Prog, StPtr);
    }
  }

  //===--- Completion (pool worker thread) --------------------------------===//

  void onProgramDone(size_t Prog) {
    std::shared_ptr<JobState> St;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = Pending.find(Prog);
      assert(It != Pending.end() && "completion for unknown program");
      St = std::move(It->second);
      Pending.erase(It);
    }
    SearchResult SR = Sched.takeResult(Prog);
    double SearchMicros = microsSince(St->SearchStart);
    double Wall = microsSince(St->SubmitTime);

    DriverOutcome O;
    {
      std::lock_guard<std::mutex> Lock(St->Mu);
      O = std::move(St->Outcome); // the compile half
    }
    mapSearchResult(O, std::move(SR));
    O.SearchMicros = SearchMicros;
    finishJob(*St, std::move(O), Wall);
  }

  /// Fires events and fulfills the future. No engine locks held.
  /// Every completion path funnels through here, so this is the single
  /// publish point of the result cache: an owning job stores its
  /// outcome (which also fires any joined submissions' waiters — each
  /// of which re-enters finishJob for its own job with Publish unset,
  /// so the recursion is one level deep by construction).
  void finishJob(JobState &St, DriverOutcome O, double Wall) {
    // Outcomes the publish evicts are freed on return, after the job's
    // future is fulfilled.
    std::vector<CachedOutcome> Evicted;
    if (St.Publish) {
      St.Publish = false;
      Evicted =
          RCache.publish(St.RKey, std::make_shared<const DriverOutcome>(O));
    }
    if (St.Sink) {
      EngineJobInfo Info{St.Id, St.Name};
      if (O.SearchTruncated)
        St.Sink->onFrontierTruncated(Info, O.SearchDropped);
      if (O.anyUb()) {
        std::vector<UbReport> All = O.StaticUb;
        All.insert(All.end(), O.DynamicUb.begin(), O.DynamicUb.end());
        St.Sink->onUbFound(Info, All);
      }
      St.Sink->onProgramFinished(Info, O, Wall);
    }
    {
      std::lock_guard<std::mutex> Lock(St.Mu);
      St.Outcome = std::move(O);
      St.WallMicros = Wall;
      St.Done = true;
    }
    St.Cv.notify_all();
    Outstanding.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> Lock(DrainMu);
    }
    DrainCv.notify_all();
  }

  /// Folds a root-gated SearchResult into the outcome — the single
  /// mapping every pooled submission shares. The root run doubles as
  /// the default-order run, so its status/output/exit code are the
  /// program's, and OrdersExplored counts every explored order once.
  /// OrdersDeduped is dedup hits plus in-wave twins pruned
  /// (docs/JSON_OUTPUT.md defines it).
  static void mapSearchResult(DriverOutcome &O, SearchResult SR) {
    O.Status = SR.RootStatus;
    O.ExitCode = SR.RootExitCode;
    O.Output = std::move(SR.RootOutput);
    O.OrdersExplored = SR.RunsExplored;
    O.OrdersDeduped = SR.DedupHits + SR.SubtreesPruned;
    O.SearchTruncated = SR.FrontierTruncated;
    O.SearchDropped = SR.DroppedSubtrees;
    O.SearchSteals = SR.Steals;
    O.SearchEvictions = SR.SnapshotEvictions;
    O.SearchPeakFrontier = SR.PeakFrontier;
    if (SR.UbFound) {
      O.DynamicUb = std::move(SR.Reports);
      O.SearchWitness = std::move(SR.Witness);
    }
  }
};

//===----------------------------------------------------------------------===//
// AnalysisEngine
//===----------------------------------------------------------------------===//

AnalysisEngine::AnalysisEngine(EngineConfig Cfg)
    : I(std::make_unique<Impl>(Cfg)) {}

AnalysisEngine::~AnalysisEngine() { shutdown(); }

HeaderRegistry &AnalysisEngine::headers() { return I->Headers; }

unsigned AnalysisEngine::workers() const { return I->Sched.stats().Jobs; }

CompiledProgramRef AnalysisEngine::compile(const AnalysisRequest &Req,
                                           const std::string &Source,
                                           const std::string &Name) {
  TranslationKey Key;
  return I->frontend(Req, Source, Name, nullptr, Key);
}

JobHandle AnalysisEngine::submit(const AnalysisRequest &Req,
                                 std::string Source, std::string Name,
                                 EngineSink *Sink) {
  Impl &S = *I;
  auto St = std::make_shared<JobState>();
  St->Id = S.NextJobId.fetch_add(1, std::memory_order_relaxed);
  St->Name = std::move(Name);
  St->Sink = Sink;
  St->SubmitTime = std::chrono::steady_clock::now();
  JobHandle Handle{St};

  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (S.ShutDown) {
      // Rejected, not analyzed: an Internal outcome, no events.
      DriverOutcome O;
      O.CompileErrors = "analysis engine is shut down";
      std::lock_guard<std::mutex> StLock(St->Mu);
      St->Outcome = std::move(O);
      St->Done = true;
      return Handle;
    }
    S.Outstanding.fetch_add(1, std::memory_order_acq_rel);
  }
  // The job owns the copied source and request until it has run.
  S.Sched.post([&S, St, Req, Source = std::move(Source)] {
    S.processSubmission(St, Req, Source);
  });
  return Handle;
}

std::vector<JobHandle>
AnalysisEngine::submitBatch(const AnalysisRequest &Req,
                            const std::vector<BatchInput> &Inputs,
                            EngineSink *Sink) {
  std::vector<JobHandle> Handles;
  Handles.reserve(Inputs.size());
  for (const BatchInput &In : Inputs)
    Handles.push_back(submit(Req, In.Source, In.Name, Sink));
  return Handles;
}

void AnalysisEngine::drain() {
  Impl &S = *I;
  {
    std::unique_lock<std::mutex> Lock(S.DrainMu);
    S.DrainCv.wait(Lock, [&] {
      return S.Outstanding.load(std::memory_order_acquire) == 0;
    });
  }
  // With nothing outstanding every scheduler program is finished, and
  // reclaim frees their search states once the pool is fully idle. Their
  // artifacts were already released by each program's last run.
  S.Sched.reclaimFinished();
}

void AnalysisEngine::shutdown() {
  Impl &S = *I;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (S.ShutDown)
      return;
    S.ShutDown = true;
  }
  // drain() waits on every accepted job, and ShutDown blocks new ones:
  // no compile job is left, so the pool can be joined.
  drain();
  S.Sched.stop();
}

bool AnalysisEngine::isShutdown() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->ShutDown;
}

SchedulerStats AnalysisEngine::poolStats() const { return I->Sched.stats(); }

TranslationCacheStats AnalysisEngine::translationStats() const {
  return {I->TCache.stats()};
}

ResultCacheStats AnalysisEngine::resultCacheStats() const {
  return {I->RCache.stats()};
}

EngineMemoryStats AnalysisEngine::memoryStats() const {
  Impl &S = *I;
  EngineMemoryStats M;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    M.PendingJobs = S.Pending.size();
  }
  SchedulerMemoryStats Sm = S.Sched.memoryStats();
  M.GraveyardArtifacts = Sm.PinnedFinished;
  M.ProgramSlots = Sm.ProgramSlots;
  M.RetainedPrograms = Sm.RetainedPrograms;
  M.PendingSnapshots = Sm.PendingSnapshots;
  return M;
}
