//===- perfbench/src/Bench.h - Shared benchmark types ----------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's corpus, the three systems it drives
/// (a warm AnalysisEngine, a kcc-serve daemon over a Unix socket, cold
/// kcc processes) and its span tracer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "driver/Engine.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Clocks and statistics
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Nearest-rank percentile (P in [0, 1]) of an unsorted sample; 0 for an
/// empty one.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

/// Samples this process's live heap every 50 ms, on a thread of its own,
/// from construction until stop(). Live heap (malloc's in-use bytes,
/// mmapped chunks included) tracks what the analysis holds; resident set
/// also counts memory the allocator keeps cached, which varies from run
/// to run with thread interleaving.
class HeapSampler {
public:
  HeapSampler();
  ~HeapSampler() { stop(); }
  HeapSampler(const HeapSampler &) = delete;
  HeapSampler &operator=(const HeapSampler &) = delete;
  /// Ends sampling; returns the median sample in MiB.
  double stop();

private:
  std::mutex Mu;
  std::condition_variable Wake;
  bool Done = false;
  std::vector<double> Samples;
  std::thread Worker;
};

/// splitmix64: the benchmark's only randomness, seeded from --seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Corpus and oracle
//===----------------------------------------------------------------------===//

/// The hand-written expected answer for one input. Undefined programs
/// list every catalog code their flaw may be reported under; the first
/// finding must carry one of them.
struct Expect {
  bool Undefined = false;
  std::vector<uint16_t> Codes;
};

struct Program {
  std::string Name;
  std::string Source;
  Expect Want;
  /// An exact resubmission of an earlier request (serve-repeat only):
  /// the result cache must serve it.
  bool Repeat = false;
};

/// Checks an outcome against the oracle; on a mismatch returns false and
/// describes it in \p Why.
bool verdictMatches(const cundef::DriverOutcome &O, const Expect &E,
                    std::string &Why);

/// The first finding's catalog code (static findings come first), or 0.
uint16_t firstCode(const cundef::DriverOutcome &O);

/// Seeded input generators. Every name carries the seed and a tag, so no
/// two requests of a run share a cache key unless they are meant to.
class Corpus {
public:
  Corpus(uint64_t Seed, std::string DesktopDir);

  /// Loads the desktop suite; false with a diagnostic when it is missing.
  bool load(std::string &Err);

  /// One suite-sweep batch: a stratified draw of Juliet-like pairs plus
  /// every desktop pair, both halves of each, named under \p Tag.
  std::vector<Program> sweepBatch(Rng &R, const std::string &Tag) const;
  /// One Juliet half (bad or good) of a stratified draw.
  Program julietHalf(Rng &R, const std::string &Tag, bool Bad) const;
  /// Deep-search inputs: salted deep trees and symmetric sums hiding the
  /// paper's order-dependent division by zero. \p Index cycles the
  /// shape table so every run sees the same mix.
  Program deepProgram(Rng &R, unsigned Index, const std::string &Tag) const;
  /// A small salted deep tree (serve-repeat traffic).
  Program smallTree(Rng &R, const std::string &Tag) const;
  /// The first request of a set-up: one fixed Juliet bad half, renamed
  /// per set-up so each is a unique request of equal cost.
  Program setupProgram(unsigned Index) const;

  uint64_t seed() const { return Seed; }

private:
  uint64_t Seed;
  std::string DesktopDir;
  struct DesktopPair {
    std::string Name, Bad, Good;
    Expect BadWant;
  };
  std::vector<DesktopPair> Desktop;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Spans nest per thread: a span's parent is
/// the innermost open span of the same thread. Written out once, when
/// the run ends.
class Tracer {
public:
  struct Span {
    const char *Name = "";
    uint64_t Request = 0;
    uint32_t Parent = 0; ///< 0 = root
    uint32_t Thread = 0;
    double Start = 0, End = 0; ///< micros since the tracer started
  };

  Tracer();
  uint32_t begin(const char *Name, uint64_t Request);
  void end(uint32_t Id);
  /// Records an already-timed span under the innermost open span, for
  /// operations too short to time with begin()/end() around them.
  void record(const char *Name, uint64_t Request, Clock::time_point Start,
              Clock::time_point End);

  /// Per-name totals: span count, summed duration, and self time (the
  /// duration minus the time its child spans cover).
  struct Totals {
    double TotalUs = 0, SelfUs = 0;
    std::vector<double> Durations;
  };
  std::map<std::string, Totals> totals() const;
  size_t size() const;
  /// Writes every span as Chrome trace-event JSON.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans; ///< id = index + 1
  Clock::time_point Epoch;
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint64_t Request)
      : T(T), Id(T ? T->begin(Name, Request) : 0) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  uint32_t Id;
};

//===----------------------------------------------------------------------===//
// Systems under test
//===----------------------------------------------------------------------===//

/// One request's result as its caller saw it.
struct Sample {
  double LatencyUs = 0;   ///< caller-observed submit-to-verdict
  double JobWallUs = 0;   ///< the engine's own submit-to-completion wall
  double FrontendUs = 0;
  double SearchUs = 0;
  bool TranslationHit = false;
  bool ResultHit = false;
  bool Ok = true;
  /// Nonzero when inputs repeat within a phase: which input this was.
  size_t Input = 0;
  double EncodeUs = 0;    ///< request codec (traced passes)
  double DecodeUs = 0;    ///< outcome codec (traced passes)
  size_t FrameBytes = 0;  ///< finished-frame size (traced passes)
  double JsonBytes = 0;   ///< kcc --json document size (cli)
  double InProcessUs = 0; ///< kcc --json pool.wall_ms, in micros (cli)
};

/// What a system reported about one phase, as deltas over the phase.
struct PhaseStats {
  std::vector<Sample> Samples;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< first few, for the log
  double WallUs = 0;
  cundef::SchedulerStats Pool;            ///< deltas (peaks are maxima)
  cundef::TranslationCacheStats Trans;    ///< deltas
  cundef::ResultCacheStats Results;       ///< deltas
  cundef::EngineMemoryStats MemPeak, MemAfterDrain;
  uint64_t Rejected = 0, IdleReclaims = 0;
  /// Memory of the process doing the analysis, in MiB: median live heap
  /// in process, median peak RSS of kcc children.
  double MemoryMb = 0;

  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(std::move(Why));
  }
  void merge(const PhaseStats &O);
};

/// Deltas of the monotonic pool counters (peak fields keep the later
/// snapshot's high-water mark).
cundef::SchedulerStats poolDelta(const cundef::SchedulerStats &A,
                                 const cundef::SchedulerStats &B);

/// Records the codec spans for one request/outcome pair and fills the
/// sample's codec fields: the serve-layer cost of this request, measured
/// on every workload.
void codecProbe(Tracer *T, uint64_t Req, const cundef::AnalysisRequest &AR,
                const Program &P, const cundef::DriverOutcome &O, Sample &S);

/// A cold `kcc --json FILE` process. Fills \p S and checks the verdict,
/// the 139/exit-code contract and the cache flags; false on any failure
/// (\p Why says which). \p PeakRssKb receives the child's max RSS.
struct CliResult {
  cundef::SchedulerStats Pool;
  uint64_t TransLookups = 0, TransHits = 0, ResultLookups = 0,
           ResultHits = 0, ResultJoins = 0;
  double InProcessWallMs = 0;
  long PeakRssKb = 0;
};
bool runKcc(const std::string &Kcc, const std::string &Path, const Expect &E,
            Sample &S, CliResult &Out, std::string &Why);

/// Writes \p Text to \p Path; false on error.
bool writeFile(const std::string &Path, const std::string &Text);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
