//===- core/Search.h - Parallel search over evaluation orders ---*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whether a program is undefined can depend on the unspecified
/// evaluation order (paper section 2.5.2: `(10/d) + setDenom(0)` is
/// miscompilable because *some* order divides by zero); "any tool
/// seeking to identify all undefined behaviors must search all possible
/// evaluation strategies". This driver enumerates order decisions in
/// parallel waves:
///
///  * The frontier is a wave of decision prefixes. Workers claim
///    entries from a shared index; children (one per flippable choice
///    point beyond the prefix) form the next wave.
///  * A run starts from a **snapshot** its parent captured at the
///    flipped choice point — the paper's "clone the configuration at
///    choice points" — so only the new suffix executes. When no
///    snapshot exists (memory budget, sync-call choice points, the
///    Random policy, forced-replay mode) the run falls back to
///    replaying its pinned prefix from main(). Both start modes are
///    step-for-step identical; witnesses never depend on which was
///    used.
///  * A visited-set keyed by (decision depth, configuration
///    fingerprint) recognizes symmetric interleavings: when a run
///    reaches a state some earlier prefix already reached at the same
///    depth, the run is cancelled mid-flight and its redundant subtree
///    is never spawned, so commuting choice points cost linear instead
///    of exponential work. Fingerprints are maintained incrementally
///    (O(state touched), core/Fingerprint.cpp).
///  * A cancellation token stops all in-flight machines once
///    undefinedness is found by a prefix that is canonically (lex)
///    smaller than anything still outstanding.
///
/// The reported witness is deterministic: independent of the number of
/// worker threads, of thread scheduling, and of the snapshot/replay
/// start mode, because waves are processed as sorted batches, per-run
/// outcomes depend only on (prefix, committed visited-set), the
/// visited-set is committed at wave barriers, and ties are broken
/// canonically. See docs/SEARCH.md.
///
/// Every production search runs on the work-stealing scheduler
/// (core/Scheduler.h), which executes runs speculatively on per-worker
/// deques and commits them through a canonical wavefront that
/// reproduces the wave engine's outputs byte-for-byte without its
/// barriers. The wave engine above stays in Search.cpp as the verified
/// reference (OrderSearch::runReference) the scheduler is tested
/// against.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_SEARCH_H
#define CUNDEF_CORE_SEARCH_H

#include "core/Machine.h"

namespace cundef {

/// Visited-set key. Depth is mixed in because the chooser consumes
/// replay decisions positionally, making depth part of the machine's
/// effective state. Depth is avalanched through splitmix64 *before*
/// combining: the previous bare `fp ^ depth*phi` aliased structured
/// (depth, fp) pairs (every pair on a phi-stride line collapsed to one
/// key — a mix applied only after the xor would keep those collisions,
/// since equal inputs stay equal through any bijection). A regression
/// test pins the adversarial families down.
inline uint64_t searchVisitKey(size_t Depth, uint64_t Fp) {
  return mix64(Fp ^ mix64(static_cast<uint64_t>(Depth) *
                              0x9e3779b97f4a7c15ull +
                          1));
}

struct SearchOptions {
  /// Replay budget: at most this many machine runs (including runs the
  /// dedup cancels mid-flight).
  unsigned MaxRuns = 64;
  /// OrderSearch::run()'s worker threads; 0 = auto-detect
  /// std::thread::hardware_concurrency(). A shared scheduler sizes its
  /// pool from its own Config and ignores this. The verdict and witness
  /// do not depend on it; only wall-clock does.
  unsigned Jobs = 1;
  /// Deduplicate symmetric interleavings through configuration
  /// fingerprints. Off = pure prefix enumeration (the exhaustive
  /// baseline test_scheduler compares against). Ignored under
  /// EvalOrderKind::Random: replay cannot reproduce the policy's
  /// shuffle stream, so the dedup invariant does not hold there (see
  /// Search.cpp).
  bool Dedup = true;
  /// Fork children from configuration snapshots captured at their
  /// choice points instead of replaying prefixes from main(). Off =
  /// forced-replay mode (the PR-1 engine; the equivalence suite and
  /// test_scheduler compare against it). Ignored under Random (the
  /// chooser's RNG stream position would diverge between fork and
  /// replay) and under RuleStyle::Declarative (its monitors keep state
  /// outside the configuration).
  bool UseSnapshots = true;
  /// Capacity of the LRU snapshot cache (core/Scheduler.h). Every
  /// capture is admitted; going over capacity evicts the *oldest*
  /// pending snapshot, whose child falls back to prefix replay (the old
  /// scheme refused new captures instead, so deep programs thrashed
  /// against a budget full of stale entries). 0 = pure replay.
  /// Snapshots are copy-on-write-cheap but not free: each pins the
  /// unshared parts of one configuration.
  unsigned SnapshotBudget = 1024;
  /// Fingerprint via Configuration::fingerprintFull() (full-state
  /// rehash at every choice point) instead of the incremental digests.
  /// The oldest engine's cost model; test_scheduler's engine matrix
  /// runs it as its exhaustive baseline.
  bool FullRehash = false;
  /// Record every run's decision trace and fingerprint stream in
  /// SearchResult::Runs (testing: the fork-vs-replay equivalence
  /// suite). Deterministic at Jobs=1; with more jobs, runs cancelled by
  /// a concurrent witness may record partial streams.
  bool CollectRuns = false;
};

/// Stable FNV-1a digest over the *outcome-affecting* SearchOptions
/// fields. MaxRuns, Dedup, and UseSnapshots change what the search
/// explores. Jobs, SnapshotBudget, FullRehash, and CollectRuns shape
/// only wall-clock and test instrumentation (committed outcomes are
/// independent of them by the scheduler's determinism contract), so
/// they are deliberately excluded: a 4-job and an 8-job search of the
/// same program share one cache entry.
inline uint64_t searchOptionsFingerprint(const SearchOptions &S) {
  Fnv1a H;
  H.u32(S.MaxRuns);
  H.u8(S.Dedup);
  H.u8(S.UseSnapshots);
  return mix64(H.digest());
}

/// One explored run, recorded when SearchOptions::CollectRuns is set.
struct SearchRunRecord {
  std::vector<uint8_t> Pinned;
  /// The full decision trace (decision, arity) the run recorded.
  std::vector<std::pair<uint8_t, uint8_t>> Trace;
  /// (depth, fingerprint) observed at flippable choice points at or
  /// beyond the divergence.
  std::vector<std::pair<uint64_t, uint64_t>> FpStream;
  RunStatus Status = RunStatus::Completed;
  bool DedupAborted = false;
  /// Whether the run started from a snapshot (perf detail — excluded
  /// from equivalence comparisons, which assert everything above is
  /// identical across start modes).
  bool Forked = false;
};

struct SearchResult {
  unsigned RunsExplored = 0;
  /// Runs cancelled mid-flight because their configuration fingerprint
  /// was already visited (a subset of RunsExplored).
  unsigned DedupHits = 0;
  /// Whole subtrees dropped at a wave barrier because two entries of
  /// one wave diverged into the same state (in-wave twins). These never
  /// became runs.
  unsigned SubtreesPruned = 0;
  /// Runs that started from a forked snapshot (the rest replayed their
  /// prefix from main()). Wall-clock detail: under parallel execution
  /// the fork/replay split depends on snapshot-cache timing.
  unsigned ForkedRuns = 0;
  /// Frontier waves (stealing scheduler: committed generations).
  unsigned Waves = 0;
  /// Pending snapshots of this search evicted by the LRU cache; each
  /// eviction turned one fork into a prefix replay.
  unsigned SnapshotEvictions = 0;
  /// Tasks of this program taken from another worker's deque (stealing
  /// scheduler only; wall-clock detail).
  unsigned Steals = 0;
  /// Peak frontier size. The stealing scheduler stamps its pool-wide
  /// maximum queued-task count at the moment this program finished, so
  /// on a shared pool it counts other programs' tasks too; the wave
  /// engine reports this search's largest wave.
  unsigned PeakFrontier = 0;
  /// True when the search ran out of budget with unexplored subtrees
  /// still on the frontier: a clean verdict is then *not* exhaustive.
  /// Callers must surface this (kcc --show-witness prints it); the
  /// previous behavior of silently resizing the frontier made partial
  /// results look like full enumerations.
  bool FrontierTruncated = false;
  /// Subtrees dropped unexplored on budget edges (frontier entries cut
  /// by MaxRuns plus children left when the budget ran out).
  unsigned DroppedSubtrees = 0;
  bool UbFound = false;
  /// Reports of the first undefined run (empty when none found).
  std::vector<UbReport> Reports;
  /// Status of the last run (Completed when no UB was ever found).
  RunStatus LastStatus = RunStatus::Completed;
  /// Outcome of the root run (the empty prefix = the policy default
  /// order): its status, program output, and exit code. The batched
  /// driver reads these instead of executing the default order a second
  /// time outside the search.
  RunStatus RootStatus = RunStatus::Internal;
  std::string RootOutput;
  int RootExitCode = 0;
  /// The decision prefix that exposed the undefinedness: pin it with
  /// Machine::setReplayDecisions to reproduce the run. Empty when the
  /// default order is already undefined.
  std::vector<uint8_t> Witness;
  /// Per-run records (only when SearchOptions::CollectRuns).
  std::vector<SearchRunRecord> Runs;
};

/// Parallel deduplicated search over evaluation orders.
class OrderSearch {
public:
  OrderSearch(const AstContext &Ctx, MachineOptions BaseOpts,
              unsigned MaxRuns = 64)
      : Ctx(Ctx), BaseOpts(BaseOpts) {
    Opts.MaxRuns = MaxRuns;
  }
  OrderSearch(const AstContext &Ctx, MachineOptions BaseOpts,
              SearchOptions Opts)
      : Ctx(Ctx), BaseOpts(BaseOpts), Opts(Opts) {}

  /// Runs the search on a work-stealing scheduler of its own: submit,
  /// drain, take the result. The pool (Opts.Jobs workers, clamped to
  /// the hardware) spawns for the call and is joined before it returns.
  SearchResult run();

  /// Runs the wave-synchronous reference engine: the oracle run() is
  /// tested against (test_scheduler). Committed outputs are
  /// byte-identical to run()'s; only wall-clock differs.
  SearchResult runReference();

private:
  const AstContext &Ctx;
  MachineOptions BaseOpts;
  SearchOptions Opts;
};

} // namespace cundef

#endif // CUNDEF_CORE_SEARCH_H
