//===- perfbench/src/Workloads.cpp - The four benchmark workloads ---------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// Every workload runs what a user runs: engines and the daemon keep
// their default configuration (caches on, one search worker per core),
// and every input is unique by seed and name, so outside serve-repeat's
// deliberate resubmissions no request may hit a cache. Each phase checks
// that, and checks every verdict against the hand-written oracle.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "serve/Client.h"
#include "serve/Server.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

using namespace cundef;
using namespace perfbench;

namespace {

/// Ends a phase after a wall-clock budget or after a fixed count.
struct Limit {
  double Seconds = 0;
  unsigned Count = 0; ///< nonzero: exactly this many units
  Clock::time_point Start = Clock::now();

  bool done(unsigned Units) const {
    if (Count)
      return Units >= Count;
    return microsBetween(Start, Clock::now()) >= Seconds * 1e6;
  }
};

Sample sampleOf(const DriverOutcome &O, double LatencyUs, double WallUs) {
  Sample S;
  S.LatencyUs = LatencyUs;
  S.JobWallUs = WallUs;
  S.FrontendUs = O.FrontendMicros;
  S.SearchUs = O.SearchMicros;
  S.TranslationHit = O.TranslationCacheHit;
  S.ResultHit = O.ResultCacheHit;
  return S;
}

/// Grades one outcome: the oracle, then the cache-row separation (a
/// unique input must miss both caches; a resubmission must hit).
void grade(PhaseStats &S, Sample &Smp, const Program &P,
           const DriverOutcome &O) {
  ++S.Attempted;
  std::string Why;
  if (!verdictMatches(O, P.Want, Why))
    Smp.Ok = false;
  else if (!P.Repeat && (O.TranslationCacheHit || O.ResultCacheHit)) {
    Why = "unique input hit a cache";
    Smp.Ok = false;
  } else if (P.Repeat && !O.ResultCacheHit) {
    Why = "resubmission missed the result cache";
    Smp.Ok = false;
  } else if (!Smp.Ok) {
    Why = "serve codec round trip changed the outcome";
  }
  if (!Smp.Ok)
    S.fail(P.Name + ": " + Why);
}

void maxMemory(EngineMemoryStats &Peak, const EngineMemoryStats &M) {
  Peak.PendingJobs = std::max(Peak.PendingJobs, M.PendingJobs);
  Peak.GraveyardArtifacts =
      std::max(Peak.GraveyardArtifacts, M.GraveyardArtifacts);
  Peak.ProgramSlots = std::max(Peak.ProgramSlots, M.ProgramSlots);
  Peak.RetainedPrograms = std::max(Peak.RetainedPrograms, M.RetainedPrograms);
  Peak.PendingSnapshots = std::max(Peak.PendingSnapshots, M.PendingSnapshots);
}

/// Counter snapshot of one engine, diffed around a phase.
struct EngineCounters {
  SchedulerStats Pool;
  TranslationCacheStats Trans;
  ResultCacheStats Results;

  explicit EngineCounters(const AnalysisEngine &E)
      : Pool(E.poolStats()), Trans(E.translationStats()),
        Results(E.resultCacheStats()) {}

  void diffInto(const AnalysisEngine &E, PhaseStats &S) const {
    S.Pool = poolDelta(Pool, E.poolStats());
    TranslationCacheStats T = E.translationStats();
    S.Trans.Lookups = T.Lookups - Trans.Lookups;
    S.Trans.Hits = T.Hits - Trans.Hits;
    S.Trans.Misses = T.Misses - Trans.Misses;
    S.Trans.InflightJoins = T.InflightJoins - Trans.InflightJoins;
    ResultCacheStats R = E.resultCacheStats();
    S.Results.Lookups = R.Lookups - Results.Lookups;
    S.Results.Hits = R.Hits - Results.Hits;
    S.Results.Misses = R.Misses - Results.Misses;
    S.Results.InflightJoins = R.InflightJoins - Results.InflightJoins;
  }
};

/// Phase-level cache check: outside resubmissions, no lookup may have
/// been served from either cache.
void checkNoHits(PhaseStats &S, uint64_t ExpectedResultHits) {
  if (S.Trans.Hits + S.Trans.InflightJoins > ExpectedResultHits)
    S.fail("translation cache served " +
           std::to_string(S.Trans.Hits + S.Trans.InflightJoins) +
           " lookups, expected at most " + std::to_string(ExpectedResultHits));
  if (S.Results.Hits + S.Results.InflightJoins != ExpectedResultHits)
    S.fail("result cache served " +
           std::to_string(S.Results.Hits + S.Results.InflightJoins) +
           " lookups, expected " + std::to_string(ExpectedResultHits));
}

std::string tagOf(const char *Phase, unsigned N) {
  return std::string(Phase) + std::to_string(N);
}

//===----------------------------------------------------------------------===//
// Engine workloads
//===----------------------------------------------------------------------===//

class EngineWorkload : public Workload {
public:
  EngineWorkload(const Corpus &C, const RunOptions &O, unsigned Budget)
      : C(C), O(O),
        Req(AnalysisRequest::Builder().searchRuns(Budget).buildOrDie()),
        TimedRng(C.seed() * 4 + 1), TracedRng(C.seed() * 4 + 2),
        ProbeRng(C.seed() * 4 + 3) {}

  AnalysisRequest request() const override { return Req; }
  System system() const override { return System::Engine; }

  double setupOnce(unsigned Index, PhaseStats &Check) override {
    Program P = C.setupProgram(Index);
    Clock::time_point T0 = Clock::now();
    AnalysisEngine E;
    JobHandle H = E.submit(Req, P.Source, P.Name);
    const DriverOutcome &Out = H.wait();
    const double Secs = microsBetween(T0, Clock::now()) / 1e6;
    Sample S;
    grade(Check, S, P, Out);
    E.shutdown();
    return Secs;
  }

  bool start(std::string &Err) override {
    E = std::make_unique<AnalysisEngine>();
    Rng Warm(C.seed() * 4 + 4);
    PhaseStats W = phase(nullptr, warmLimit(), Warm, "warm");
    if (W.Failed) {
      Err = "warm-up failed: " + W.Failures.front();
      return false;
    }
    return true;
  }

  PhaseStats runFor(double Seconds) override {
    Limit L;
    L.Seconds = Seconds;
    return phase(nullptr, L, TimedRng, "t");
  }

  PhaseStats runTraced(Tracer &T) override {
    return phase(&T, tracedLimit(), TracedRng, "x");
  }

  void stop() override {
    if (E)
      E->shutdown();
    E.reset();
  }

protected:
  virtual Limit warmLimit() const = 0;
  virtual Limit tracedLimit() const = 0;
  virtual PhaseStats phase(Tracer *T, Limit L, Rng &R, const char *Tag) = 0;

  const Corpus &C;
  RunOptions O;
  AnalysisRequest Req;
  Rng TimedRng, TracedRng, ProbeRng;
  std::unique_ptr<AnalysisEngine> E;
  uint64_t NextRequest = 1;
};

/// suite-sweep: the CI shape. One batch per round — a stratified draw of
/// Juliet-like pairs plus all desktop pairs — submitted at once to a warm
/// engine at kcc's default budget of 8 orders.
class SuiteSweep : public EngineWorkload {
public:
  SuiteSweep(const Corpus &C, const RunOptions &O) : EngineWorkload(C, O, 8) {}

  std::vector<Program> probeSample() override {
    std::vector<Program> Batch = C.sweepBatch(ProbeRng, "probe");
    std::vector<Program> Out;
    // Every 13th program keeps the batch's class and half mix.
    for (size_t I = 0; I < Batch.size(); I += 13)
      Out.push_back(Batch[I]);
    return Out;
  }

protected:
  Limit warmLimit() const override {
    Limit L;
    L.Count = 1;
    return L;
  }
  Limit tracedLimit() const override {
    Limit L;
    L.Count = O.Smoke ? 1 : 6;
    return L;
  }

  PhaseStats phase(Tracer *T, Limit L, Rng &R, const char *Tag) override {
    PhaseStats S;
    EngineCounters Before(*E);
    HeapSampler Heap;
    unsigned Batches = 0;
    while (!L.done(Batches)) {
      std::vector<Program> Batch = C.sweepBatch(R, tagOf(Tag, Batches));
      std::vector<BatchInput> In;
      for (const Program &P : Batch)
        In.push_back({P.Source, P.Name});
      const uint64_t First = NextRequest;
      NextRequest += Batch.size();
      std::vector<const DriverOutcome *> Outs(Batch.size());
      Clock::time_point T0 = Clock::now();
      std::vector<JobHandle> H;
      {
        Scope Sp(T, "engine.submitBatch", First);
        H = E->submitBatch(Req, In);
      }
      for (size_t I = 0; I < H.size(); ++I) {
        Scope Sp(T, "engine.wait", First + I);
        Outs[I] = &H[I].wait();
        if (T)
          maxMemory(S.MemPeak, E->memoryStats());
      }
      Clock::time_point T1 = Clock::now();
      S.WallUs += microsBetween(T0, T1);
      for (size_t I = 0; I < H.size(); ++I) {
        Sample Smp = sampleOf(*Outs[I], H[I].wallMicros(), H[I].wallMicros());
        if (T)
          codecProbe(T, First + I, Req, Batch[I], *Outs[I], Smp);
        grade(S, Smp, Batch[I], *Outs[I]);
        S.Samples.push_back(Smp);
      }
      H.clear();
      E->drain();
      ++Batches;
    }
    Before.diffInto(*E, S);
    checkNoHits(S, 0);
    if (T)
      S.MemAfterDrain = E->memoryStats();
    S.MemoryMb = Heap.stop();
    return S;
  }
};

/// deep-search: one closed-loop caller, one program at a time, at budget
/// 512 — a developer running `kcc --search` on a file, against a warm
/// engine. Machine stepping, fingerprints, snapshots and scheduling
/// dominate; the frontend is a few percent.
class DeepSearch : public EngineWorkload {
public:
  DeepSearch(const Corpus &C, const RunOptions &O)
      : EngineWorkload(C, O, 512) {}

  std::vector<Program> probeSample() override {
    std::vector<Program> Out;
    for (unsigned I = 0; I < 8; ++I)
      Out.push_back(C.deepProgram(ProbeRng, I, "probe"));
    return Out;
  }

protected:
  Limit warmLimit() const override {
    Limit L;
    L.Count = O.Smoke ? 8 : 40;
    return L;
  }
  Limit tracedLimit() const override {
    Limit L;
    L.Count = O.Smoke ? 8 : 80;
    return L;
  }

  PhaseStats phase(Tracer *T, Limit L, Rng &R, const char *Tag) override {
    PhaseStats S;
    EngineCounters Before(*E);
    HeapSampler Heap;
    unsigned N = 0;
    while (!L.done(N)) {
      Program P = C.deepProgram(R, N, tagOf(Tag, N));
      const uint64_t Id = NextRequest++;
      Clock::time_point T0 = Clock::now();
      JobHandle H;
      {
        Scope Sp(T, "engine.request", Id);
        H = E->submit(Req, P.Source, P.Name);
        H.wait();
      }
      Clock::time_point T1 = Clock::now();
      const DriverOutcome &Out = H.wait();
      Sample Smp = sampleOf(Out, microsBetween(T0, T1), H.wallMicros());
      if (T) {
        maxMemory(S.MemPeak, E->memoryStats());
        codecProbe(T, Id, Req, P, Out, Smp);
      }
      grade(S, Smp, P, Out);
      S.Samples.push_back(Smp);
      S.WallUs += microsBetween(T0, T1);
      // The engine is idle between a caller's requests: reclaim, as a
      // service does when it goes idle.
      H = JobHandle();
      E->drain();
      ++N;
    }
    Before.diffInto(*E, S);
    checkNoHits(S, 0);
    if (T)
      S.MemAfterDrain = E->memoryStats();
    S.MemoryMb = Heap.stop();
    return S;
  }
};

//===----------------------------------------------------------------------===//
// serve-repeat
//===----------------------------------------------------------------------===//

/// A daemon on a Unix socket inside the work directory, serving from a
/// loop thread. ServeConfig keeps kcc-serve's defaults.
class Daemon {
public:
  bool start(const std::string &WorkDir, std::string &Err) {
    static std::atomic<unsigned> Next{0};
    Path = WorkDir + "/serve-" + std::to_string(::getpid()) + "-" +
           std::to_string(Next++) + ".sock";
    ServeConfig Cfg;
    Cfg.UnixPath = Path;
    D = std::make_unique<ServeDaemon>(std::move(Cfg));
    if (!D->listen(Err))
      return false;
    Loop = std::thread([this] { Exit = D->run(); });
    return true;
  }

  bool connect(RemoteClient &Client, std::string &Err) const {
    RemoteEndpoint Ep;
    Ep.IsUnix = true;
    Ep.UnixPath = Path;
    return Client.connect(Ep, Err);
  }

  ServeDaemon &daemon() { return *D; }

  /// Graceful drain; false when the daemon did not exit cleanly.
  bool stop() {
    if (!D)
      return true;
    D->requestStop();
    if (Loop.joinable())
      Loop.join();
    D.reset();
    ::unlink(Path.c_str());
    return Exit == 0;
  }

  ~Daemon() { stop(); }

private:
  std::string Path;
  std::unique_ptr<ServeDaemon> D;
  std::thread Loop;
  int Exit = 0;
};

/// One request over the wire, graded. Returns the outcome through \p Out.
Sample remoteRequest(RemoteClient &Client, const AnalysisRequest &Req,
                     const Program &P, Tracer *T, uint64_t Id,
                     PhaseStats &S, DriverOutcome &Out) {
  std::vector<DriverOutcome> Outs;
  std::vector<double> Micros;
  std::string Err;
  Clock::time_point T0 = Clock::now();
  bool Ok;
  {
    Scope Sp(T, "serve.request", Id);
    Ok = Client.runBatch(Req, {{P.Source, P.Name}}, Outs, Micros, Err);
  }
  Clock::time_point T1 = Clock::now();
  if (!Ok || Outs.size() != 1) {
    Sample Smp;
    Smp.Ok = false;
    ++S.Attempted;
    S.fail(P.Name + ": " + (Client.errorCode().empty()
                                ? "transport: " + Err
                                : "refused: " + Client.errorCode()));
    return Smp;
  }
  Out = std::move(Outs[0]);
  Sample Smp = sampleOf(Out, microsBetween(T0, T1), Micros[0]);
  if (T)
    codecProbe(T, Id, Req, P, Out, Smp);
  grade(S, Smp, P, Out);
  return Smp;
}

void serveCounters(ServeDaemon &D, const ServeCounters &Before,
                   PhaseStats &S) {
  ServeCounters After = D.counters();
  S.Rejected = After.Rejected - Before.Rejected;
  S.IdleReclaims = After.IdleReclaims - Before.IdleReclaims;
}

/// serve-repeat: 4 closed-loop clients on one daemon. Each client's
/// stream cycles a unique Juliet bad half, a small deep tree, a unique
/// Juliet good half, and an exact resubmission of one of its 16 most
/// recent requests, so cache writes (misses that publish) interleave
/// with reads (hits).
class ServeRepeat : public Workload {
public:
  static constexpr unsigned Clients = 4;
  static constexpr unsigned Recent = 16;

  ServeRepeat(const Corpus &C, const RunOptions &O)
      : C(C), O(O),
        Req(AnalysisRequest::Builder().searchRuns(64).buildOrDie()) {}

  AnalysisRequest request() const override { return Req; }
  System system() const override { return System::Daemon; }

  double setupOnce(unsigned Index, PhaseStats &Check) override {
    Program P = C.setupProgram(Index);
    Clock::time_point T0 = Clock::now();
    Daemon D;
    std::string Err;
    RemoteClient Client;
    if (!D.start(O.WorkDir, Err) || !D.connect(Client, Err)) {
      ++Check.Attempted;
      Check.fail("daemon setup: " + Err);
      return 0;
    }
    DriverOutcome Out;
    remoteRequest(Client, Req, P, nullptr, 0, Check, Out);
    const double Secs = microsBetween(T0, Clock::now()) / 1e6;
    Client.close();
    if (!D.stop())
      Check.fail("daemon did not drain cleanly");
    return Secs;
  }

  bool start(std::string &Err) override {
    if (!D.start(O.WorkDir, Err))
      return false;
    for (unsigned I = 0; I < Clients; ++I) {
      Conns.push_back(std::make_unique<RemoteClient>());
      if (!D.connect(*Conns.back(), Err))
        return false;
    }
    // Enough unique requests to fill both 256-entry caches, so the
    // timed phase starts at the daemon's steady-state footprint.
    PhaseStats W = phase(nullptr, countLimit(O.Smoke ? 8 : 100), "warm",
                         C.seed() * 8 + 1);
    if (W.Failed) {
      Err = "warm-up failed: " + W.Failures.front();
      return false;
    }
    return true;
  }

  PhaseStats runFor(double Seconds) override {
    Limit L;
    L.Seconds = Seconds;
    return phase(nullptr, L, "t", C.seed() * 8 + 2);
  }

  PhaseStats runTraced(Tracer &T) override {
    return phase(&T, countLimit(O.Smoke ? 12 : 160), "x", C.seed() * 8 + 3);
  }

  std::vector<Program> probeSample() override {
    Rng R(C.seed() * 8 + 4);
    std::vector<Program> Out;
    for (unsigned I = 0; I < 12; ++I) {
      const std::string Tag = tagOf("probe", I);
      Out.push_back(I % 3 == 1 ? C.smallTree(R, Tag)
                               : C.julietHalf(R, Tag, I % 3 == 0));
    }
    return Out;
  }

  void stop() override {
    for (auto &Conn : Conns)
      Conn->close();
    Conns.clear();
    D.stop();
  }

private:
  static Limit countLimit(unsigned PerClient) {
    Limit L;
    L.Count = PerClient;
    return L;
  }

  PhaseStats phase(Tracer *T, Limit L, const char *Tag, uint64_t Seed) {
    EngineCounters Before(D.daemon().engine());
    ServeCounters ServeBefore = D.daemon().counters();
    HeapSampler Heap;
    std::vector<PhaseStats> Per(Clients);
    std::vector<uint64_t> Repeats(Clients, 0);
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Threads;
    for (unsigned Cl = 0; Cl < Clients; ++Cl)
      Threads.emplace_back([&, Cl] {
        Rng R(Seed * 16 + Cl);
        std::vector<Program> History;
        PhaseStats &S = Per[Cl];
        for (unsigned K = 0; !L.done(K); ++K) {
          const std::string ReqTag =
              std::string(Tag) + "c" + std::to_string(Cl) + "n" +
              std::to_string(K);
          Program P;
          switch (K % 4) {
          case 0:
            P = C.julietHalf(R, ReqTag, true);
            break;
          case 1:
            P = C.smallTree(R, ReqTag);
            break;
          case 2:
            P = C.julietHalf(R, ReqTag, false);
            break;
          default: {
            const size_t Window = std::min<size_t>(Recent, History.size());
            P = History[History.size() - 1 - R.below(Window)];
            P.Repeat = true;
            ++Repeats[Cl];
            break;
          }
          }
          const uint64_t Id = (uint64_t(Cl) << 32) | K;
          DriverOutcome Out;
          Sample Smp =
              remoteRequest(*Conns[Cl], Req, P, T, Id, S, Out);
          if (T)
            maxMemory(S.MemPeak, D.daemon().engine().memoryStats());
          S.Samples.push_back(Smp);
          if (!P.Repeat)
            History.push_back(std::move(P));
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    PhaseStats S;
    S.WallUs = microsBetween(T0, Clock::now());
    uint64_t RepeatCount = 0;
    for (unsigned Cl = 0; Cl < Clients; ++Cl) {
      S.merge(Per[Cl]);
      maxMemory(S.MemPeak, Per[Cl].MemPeak);
      RepeatCount += Repeats[Cl];
    }
    Before.diffInto(D.daemon().engine(), S);
    checkNoHits(S, RepeatCount);
    serveCounters(D.daemon(), ServeBefore, S);
    if (T) {
      D.daemon().engine().drain();
      S.MemAfterDrain = D.daemon().engine().memoryStats();
    }
    S.MemoryMb = Heap.stop();
    return S;
  }

  const Corpus &C;
  RunOptions O;
  AnalysisRequest Req;
  Daemon D;
  std::vector<std::unique_ptr<RemoteClient>> Conns;
};

//===----------------------------------------------------------------------===//
// cli-cold
//===----------------------------------------------------------------------===//

/// Writes \p Inputs under \p Dir; returns their paths (empty on error).
std::vector<std::string> writeInputs(const std::string &Dir,
                                     const std::vector<Program> &Inputs) {
  ::mkdir(Dir.c_str(), 0755);
  std::vector<std::string> Paths;
  for (const Program &P : Inputs) {
    Paths.push_back(Dir + "/" + P.Name);
    if (!writeFile(Paths.back(), P.Source))
      return {};
  }
  return Paths;
}

void removeInputs(const std::string &Dir,
                  const std::vector<std::string> &Paths) {
  for (const std::string &P : Paths)
    ::unlink(P.c_str());
  ::rmdir(Dir.c_str());
}

/// Runs kcc once per path, cycling, until \p L ends.
PhaseStats cliPhase(const std::string &Kcc,
                    const std::vector<std::string> &Paths,
                    const std::vector<Program> &Inputs, Limit L, Tracer *T,
                    size_t &Cursor) {
  PhaseStats S;
  std::vector<double> PeakMb;
  unsigned N = 0;
  while (!L.done(N)) {
    const size_t I = Cursor++ % Paths.size();
    Sample Smp;
    CliResult R;
    std::string Why;
    bool Ok;
    {
      Scope Sp(T, "tools.kcc_process", N + 1);
      Ok = runKcc(Kcc, Paths[I], Inputs[I].Want, Smp, R, Why);
    }
    ++S.Attempted;
    if (!Ok) {
      Smp.Ok = false;
      S.fail(Why);
    }
    S.WallUs += Smp.LatencyUs;
    PeakMb.push_back(R.PeakRssKb / 1024.0);
    SchedulerStats &P = S.Pool;
    P.Programs += R.Pool.Programs;
    P.Jobs = std::max(P.Jobs, R.Pool.Jobs);
    P.RunsExecuted += R.Pool.RunsExecuted;
    P.RunsCommitted += R.Pool.RunsCommitted;
    P.CommitLagPeak = std::max(P.CommitLagPeak, R.Pool.CommitLagPeak);
    P.Steals += R.Pool.Steals;
    P.DedupHits += R.Pool.DedupHits;
    P.SnapshotTakes += R.Pool.SnapshotTakes;
    P.SnapshotHits += R.Pool.SnapshotHits;
    P.SnapshotSlotSteals += R.Pool.SnapshotSlotSteals;
    P.SnapshotEvictions += R.Pool.SnapshotEvictions;
    P.PeakFrontier = std::max(P.PeakFrontier, R.Pool.PeakFrontier);
    S.Trans.Lookups += R.TransLookups;
    S.Trans.Hits += R.TransHits;
    S.Results.Lookups += R.ResultLookups;
    S.Results.Hits += R.ResultHits;
    S.Results.InflightJoins += R.ResultJoins;
    // The in-process wall the document reports, kept beside the
    // process wall so startup overhead is their difference.
    Smp.InProcessUs = R.InProcessWallMs * 1000.0;
    Smp.Input = I + 1;
    S.Samples.push_back(Smp);
    ++N;
  }
  S.MemoryMb = median(PeakMb);
  return S;
}

/// cli-cold: sequential `kcc --json FILE` processes over a seeded sample
/// of the suite-sweep corpus written to disk during set-up — the tools
/// layer (startup, header registration, pool spawn, rendering) that no
/// in-process workload measures.
class CliCold : public Workload {
public:
  CliCold(const Corpus &C, const RunOptions &O)
      : C(C), O(O), Dir(O.WorkDir + "/cli-" + std::to_string(::getpid())) {}

  AnalysisRequest request() const override {
    return AnalysisRequest::Builder().searchRuns(8).buildOrDie();
  }
  System system() const override { return System::Cli; }

  double setupOnce(unsigned Index, PhaseStats &Check) override {
    Program P = C.setupProgram(Index);
    const std::string Path = O.WorkDir + "/" + P.Name;
    writeFile(Path, P.Source);
    Sample S;
    CliResult Res;
    std::string Why;
    ++Check.Attempted;
    if (!runKcc(O.Kcc, Path, P.Want, S, Res, Why))
      Check.fail(Why);
    ::unlink(Path.c_str());
    return S.LatencyUs / 1e6;
  }

  bool start(std::string &Err) override {
    Rng R(C.seed() * 4 + 1);
    Inputs = C.sweepBatch(R, "cli");
    Paths = writeInputs(Dir, Inputs);
    if (Paths.empty()) {
      Err = "cannot write inputs under " + Dir;
      return false;
    }
    Limit Warm;
    Warm.Count = O.Smoke ? 4 : 40;
    size_t WarmCursor = 0;
    PhaseStats W = cliPhase(O.Kcc, Paths, Inputs, Warm, nullptr, WarmCursor);
    if (W.Failed) {
      Err = "warm-up failed: " + W.Failures.front();
      return false;
    }
    return true;
  }

  PhaseStats runFor(double Seconds) override {
    Limit L;
    L.Seconds = Seconds;
    PhaseStats S = cliPhase(O.Kcc, Paths, Inputs, L, nullptr, TimedCursor);
    checkNoHits(S, 0);
    return S;
  }

  PhaseStats runTraced(Tracer &T) override {
    Limit L;
    L.Count = O.Smoke ? 8 : static_cast<unsigned>(Paths.size());
    size_t Cursor = 0;
    PhaseStats S = cliPhase(O.Kcc, Paths, Inputs, L, &T, Cursor);
    checkNoHits(S, 0);
    return S;
  }

  std::vector<Program> probeSample() override {
    std::vector<Program> Out;
    for (size_t I = 0; I < Inputs.size(); I += 13)
      Out.push_back(Inputs[I]);
    return Out;
  }

  void stop() override { removeInputs(Dir, Paths); }

private:
  const Corpus &C;
  RunOptions O;
  std::string Dir;
  std::vector<Program> Inputs;
  std::vector<std::string> Paths;
  size_t TimedCursor = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  const Corpus &C,
                                                  const RunOptions &O) {
  if (Name == "suite-sweep")
    return std::make_unique<SuiteSweep>(C, O);
  if (Name == "deep-search")
    return std::make_unique<DeepSearch>(C, O);
  if (Name == "serve-repeat")
    return std::make_unique<ServeRepeat>(C, O);
  if (Name == "cli-cold")
    return std::make_unique<CliCold>(C, O);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Cross-system probes
//===----------------------------------------------------------------------===//

PhaseStats perfbench::serveProbe(const std::vector<Program> &Inputs,
                                 const AnalysisRequest &Req, Tracer &T,
                                 const RunOptions &O) {
  PhaseStats S;
  Daemon D;
  RemoteClient Client;
  std::string Err;
  if (!D.start(O.WorkDir, Err) || !D.connect(Client, Err)) {
    ++S.Attempted;
    S.fail("serve probe: " + Err);
    return S;
  }
  ServeCounters Before = D.daemon().counters();
  // Each input once (a miss), then again (a result-cache hit).
  uint64_t Id = 1u << 30;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (Program P : Inputs) {
      P.Name = "serveprobe-" + P.Name;
      P.Repeat = Pass == 1;
      DriverOutcome Out;
      S.Samples.push_back(remoteRequest(Client, Req, P, &T, Id++, S, Out));
      maxMemory(S.MemPeak, D.daemon().engine().memoryStats());
    }
  serveCounters(D.daemon(), Before, S);
  Client.close();
  if (!D.stop())
    S.fail("serve probe: daemon did not drain cleanly");
  return S;
}

PhaseStats perfbench::cliProbe(const std::vector<Program> &Inputs, Tracer &T,
                               const RunOptions &O) {
  const std::string Dir = O.WorkDir + "/cliprobe-" + std::to_string(::getpid());
  std::vector<std::string> Paths = writeInputs(Dir, Inputs);
  if (Paths.empty()) {
    PhaseStats S;
    ++S.Attempted;
    S.fail("cli probe: cannot write inputs under " + Dir);
    return S;
  }
  Limit L;
  L.Count = static_cast<unsigned>(Paths.size());
  size_t Cursor = 0;
  PhaseStats S = cliPhase(O.Kcc, Paths, Inputs, L, &T, Cursor);
  removeInputs(Dir, Paths);
  return S;
}

PhaseStats perfbench::engineProbe(const std::vector<Program> &Inputs,
                                  const AnalysisRequest &Req, Tracer &T) {
  PhaseStats S;
  AnalysisEngine E;
  std::vector<BatchInput> In;
  for (const Program &P : Inputs)
    In.push_back({P.Source, "engineprobe-" + P.Name});
  std::vector<JobHandle> H;
  {
    Scope Sp(&T, "engine.submitBatch", 1u << 29);
    H = E.submitBatch(Req, In);
  }
  for (size_t I = 0; I < H.size(); ++I) {
    const DriverOutcome &Out = H[I].wait();
    maxMemory(S.MemPeak, E.memoryStats());
    Sample Smp = sampleOf(Out, H[I].wallMicros(), H[I].wallMicros());
    grade(S, Smp, Inputs[I], Out);
    S.Samples.push_back(Smp);
  }
  H.clear();
  E.drain();
  S.MemAfterDrain = E.memoryStats();
  E.shutdown();
  return S;
}
