//===- perfbench/src/Support.cpp - Statistics, tracing, processes ---------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "serve/Protocol.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace cundef;
using namespace perfbench;

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

namespace {
double liveHeapMb() {
  struct mallinfo2 M = mallinfo2();
  return static_cast<double>(M.uordblks + M.hblkhd) / (1024.0 * 1024.0);
}
} // namespace

HeapSampler::HeapSampler() {
  Samples.push_back(liveHeapMb());
  Worker = std::thread([this] {
    std::unique_lock<std::mutex> L(Mu);
    while (!Wake.wait_for(L, std::chrono::milliseconds(50),
                          [this] { return Done; }))
      Samples.push_back(liveHeapMb());
  });
}

double HeapSampler::stop() {
  {
    std::lock_guard<std::mutex> G(Mu);
    Done = true;
  }
  Wake.notify_all();
  if (Worker.joinable())
    Worker.join();
  return median(Samples);
}

bool perfbench::writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
/// The innermost open span of this thread, for parent links.
thread_local std::vector<uint32_t> OpenSpans;

uint32_t threadTag() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Tag = Next++;
  return Tag;
}
} // namespace

Tracer::Tracer() : Epoch(Clock::now()) {}

uint32_t Tracer::begin(const char *Name, uint64_t Request) {
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
  S.Thread = threadTag();
  uint32_t Id;
  {
    std::lock_guard<std::mutex> G(Mu);
    Spans.push_back(S);
    Id = static_cast<uint32_t>(Spans.size());
  }
  OpenSpans.push_back(Id);
  // Stamp last so the bookkeeping above stays outside the span.
  const double Now = microsBetween(Epoch, Clock::now());
  std::lock_guard<std::mutex> G(Mu);
  Spans[Id - 1].Start = Now;
  return Id;
}

void Tracer::end(uint32_t Id) {
  const double Now = microsBetween(Epoch, Clock::now());
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> G(Mu);
  Spans[Id - 1].End = Now;
}

void Tracer::record(const char *Name, uint64_t Request,
                    Clock::time_point Start, Clock::time_point End) {
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
  S.Thread = threadTag();
  S.Start = microsBetween(Epoch, Start);
  S.End = microsBetween(Epoch, End);
  std::lock_guard<std::mutex> G(Mu);
  Spans.push_back(S);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> G(Mu);
  return Spans.size();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> G(Mu);
  // Children of one parent run on the parent's thread, one after the
  // other, so the time they cover is the sum of their durations.
  std::vector<double> ChildUs(Spans.size() + 1, 0.0);
  for (const Span &S : Spans)
    if (S.Parent)
      ChildUs[S.Parent] += S.End - S.Start;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Totals &T = Out[S.Name];
    const double Dur = S.End - S.Start;
    T.TotalUs += Dur;
    T.SelfUs += std::max(0.0, Dur - ChildUs[I + 1]);
    T.Durations.push_back(Dur);
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> G(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u,\"request\":%llu}}%s\n",
                 S.Name, S.Thread, S.Start, S.End - S.Start, I + 1, S.Parent,
                 static_cast<unsigned long long>(S.Request),
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

SchedulerStats perfbench::poolDelta(const SchedulerStats &A,
                                    const SchedulerStats &B) {
  SchedulerStats D = B;
  D.Programs = B.Programs - A.Programs;
  D.Steals = B.Steals - A.Steals;
  D.SnapshotEvictions = B.SnapshotEvictions - A.SnapshotEvictions;
  D.RunsExecuted = B.RunsExecuted - A.RunsExecuted;
  D.DedupHits = B.DedupHits - A.DedupHits;
  D.RunsCommitted = B.RunsCommitted - A.RunsCommitted;
  D.ProvisionalHits = B.ProvisionalHits - A.ProvisionalHits;
  D.ProvisionalRequeues = B.ProvisionalRequeues - A.ProvisionalRequeues;
  D.SnapshotTakes = B.SnapshotTakes - A.SnapshotTakes;
  D.SnapshotHits = B.SnapshotHits - A.SnapshotHits;
  D.SnapshotSlotSteals = B.SnapshotSlotSteals - A.SnapshotSlotSteals;
  D.SnapshotSharedHits = B.SnapshotSharedHits - A.SnapshotSharedHits;
  return D;
}

void PhaseStats::merge(const PhaseStats &O) {
  Samples.insert(Samples.end(), O.Samples.begin(), O.Samples.end());
  Attempted += O.Attempted;
  Failed += O.Failed;
  for (const std::string &F : O.Failures)
    if (Failures.size() < 8)
      Failures.push_back(F);
  WallUs += O.WallUs;
  MemoryMb = std::max(MemoryMb, O.MemoryMb);
}

//===----------------------------------------------------------------------===//
// The serve codec, applied to one request/outcome pair
//===----------------------------------------------------------------------===//

void perfbench::codecProbe(Tracer *T, uint64_t Req, const AnalysisRequest &AR,
                           const Program &P, const DriverOutcome &O,
                           Sample &S) {
  Clock::time_point T0 = Clock::now();
  std::string Frame;
  {
    Scope Sp(T, "serve.encode", Req);
    Frame = submitFrame(Req, P.Name, P.Source, AR);
  }
  Clock::time_point T1 = Clock::now();
  const std::string Finished = finishedFrame(Req, O, S.JobWallUs);
  S.FrameBytes = Finished.size() + 4; // plus the length prefix
  Clock::time_point T2 = Clock::now();
  bool Ok;
  {
    Scope Sp(T, "serve.decode", Req);
    JsonValue V;
    std::string Err;
    DriverOutcome Back;
    Ok = JsonValue::parse(Finished, V, Err) && V.get("outcome") &&
         parseOutcome(*V.get("outcome"), Back, Err) &&
         Back.anyUb() == O.anyUb() && Back.Output == O.Output;
  }
  Clock::time_point T3 = Clock::now();
  S.EncodeUs = microsBetween(T0, T1);
  S.DecodeUs = microsBetween(T2, T3);
  if (!Ok)
    S.Ok = false;
}

//===----------------------------------------------------------------------===//
// Cold kcc processes
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Argv with stdout captured. Returns false when the process
/// could not be started or outlived \p TimeoutMs (it is then killed).
bool runCaptured(const std::vector<std::string> &Argv, int TimeoutMs,
                 std::string &Out, int &Status, long &MaxRssKb,
                 std::string &Err) {
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_adddup2(&Fa, Pipe[1], 1);
  posix_spawn_file_actions_addclose(&Fa, Pipe[0]);
  posix_spawn_file_actions_addclose(&Fa, Pipe[1]);
  posix_spawn_file_actions_addopen(&Fa, 2, "/dev/null", O_WRONLY, 0);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, Args[0], &Fa, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Fa);
  ::close(Pipe[1]);
  if (Rc != 0) {
    ::close(Pipe[0]);
    Err = std::string("spawn: ") + std::strerror(Rc);
    return false;
  }
  bool TimedOut = false;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);
  char Buf[8192];
  for (;;) {
    int Left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline -
                                                              Clock::now())
            .count());
    if (Left <= 0) {
      TimedOut = true;
      break;
    }
    pollfd P{Pipe[0], POLLIN, 0};
    int N = ::poll(&P, 1, Left);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      TimedOut = N == 0;
      break;
    }
    ssize_t R = ::read(Pipe[0], Buf, sizeof(Buf));
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(R));
  }
  ::close(Pipe[0]);
  if (TimedOut)
    ::kill(Pid, SIGKILL);
  rusage Usage{};
  while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  MaxRssKb = Usage.ru_maxrss;
  if (TimedOut) {
    Err = "timed out";
    return false;
  }
  return true;
}

} // namespace

bool perfbench::runKcc(const std::string &Kcc, const std::string &Path,
                       const Expect &E, Sample &S, CliResult &Out,
                       std::string &Why) {
  std::string Doc, Err;
  int Status = 0;
  long RssKb = 0;
  Clock::time_point T0 = Clock::now();
  const bool Ran =
      runCaptured({Kcc, "--json", Path}, 30000, Doc, Status, RssKb, Err);
  S.LatencyUs = microsBetween(T0, Clock::now());
  S.JsonBytes = static_cast<double>(Doc.size());
  Out.PeakRssKb = RssKb;
  if (!Ran) {
    Why = Path + ": " + Err;
    return false;
  }
  if (!WIFEXITED(Status)) {
    Why = Path + ": kcc died with signal " + std::to_string(WTERMSIG(Status));
    return false;
  }
  const int Exit = WEXITSTATUS(Status);
  JsonValue V;
  if (!JsonValue::parse(Doc, V, Err) || V.get("programs") == nullptr ||
      V.get("programs")->items().size() != 1) {
    Why = Path + ": unreadable --json document (exit " +
          std::to_string(Exit) + ")";
    return false;
  }
  const JsonValue &Prog = V.get("programs")->items()[0];
  const std::string &Verdict = Prog.getString("verdict");
  const JsonValue *Compile = Prog.get("compile");
  S.JobWallUs = Prog.getDouble("wall_micros");
  if (Compile) {
    S.FrontendUs = Compile->getDouble("frontend_micros");
    S.SearchUs = Compile->getDouble("search_micros");
    S.TranslationHit = Compile->getBool("cache_hit");
    S.ResultHit = Compile->getBool("result_cache_hit");
  }
  if (const JsonValue *Pool = V.get("pool")) {
    SchedulerStats &P = Out.Pool;
    P.Programs = static_cast<unsigned>(Pool->getU64("programs"));
    P.Jobs = static_cast<unsigned>(Pool->getU64("workers"));
    P.RunsExecuted = Pool->getU64("runs_executed");
    P.RunsCommitted = Pool->getU64("runs_committed");
    P.CommitLagPeak = Pool->getU64("commit_lag_peak");
    P.Steals = Pool->getU64("steals");
    P.DedupHits = Pool->getU64("dedup_hits");
    P.SnapshotTakes = Pool->getU64("snapshot_takes");
    P.SnapshotHits = Pool->getU64("snapshot_hits");
    P.SnapshotSlotSteals = Pool->getU64("snapshot_slot_steals");
    P.SnapshotEvictions = Pool->getU64("snapshot_evictions");
    P.PeakFrontier = Pool->getU64("peak_frontier");
    Out.InProcessWallMs = Pool->getDouble("wall_ms");
  }
  if (const JsonValue *TC = V.get("translation_cache")) {
    Out.TransLookups = TC->getU64("lookups");
    Out.TransHits = TC->getU64("hits") + TC->getU64("inflight_joins");
  }
  if (const JsonValue *RC = V.get("result_cache")) {
    Out.ResultLookups = RC->getU64("lookups");
    Out.ResultHits = RC->getU64("hits");
    Out.ResultJoins = RC->getU64("inflight_joins");
  }
  // The 139/exit-code contract: 139 exactly for undefined programs,
  // otherwise the program's own exit code, repeated in the document.
  if (static_cast<int>(V.getU64("exit_code", 1000)) != Exit) {
    Why = Path + ": exit " + std::to_string(Exit) +
          " differs from the document's exit_code";
    return false;
  }
  uint16_t Code = 0;
  const auto &Findings = Prog.get("findings") ? Prog.get("findings")->items()
                                              : std::vector<JsonValue>();
  if (!Findings.empty())
    Code = static_cast<uint16_t>(
        std::strtoul(Findings.front().getString("code").c_str(), nullptr, 10));
  const bool Undefined = Verdict == "undefined";
  if (Undefined != (Exit == 139)) {
    Why = Path + ": verdict " + Verdict + " with exit " + std::to_string(Exit);
    return false;
  }
  if (E.Undefined != Undefined) {
    Why = Path + ": verdict " + Verdict;
    return false;
  }
  if (!E.Undefined && Prog.getString("status") != "completed") {
    Why = Path + ": clean program ended with status " +
          Prog.getString("status");
    return false;
  }
  if (E.Undefined &&
      std::find(E.Codes.begin(), E.Codes.end(), Code) == E.Codes.end()) {
    Why = Path + ": reported code " + std::to_string(Code);
    return false;
  }
  if (S.TranslationHit || S.ResultHit) {
    Why = Path + ": a cold process reported a cache hit";
    return false;
  }
  return true;
}
