//===- core/Scheduler.h - Work-stealing search scheduling -------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling layer under the evaluation-order search. The wave
/// engine (core/Search.cpp) barriers every frontier generation on its
/// slowest machine; this layer removes the barrier by splitting the
/// search into two planes:
///
///  * **Execution plane** — per-worker deques with work stealing. A
///    worker pops its own deque oldest-first and steals oldest-first
///    from siblings when empty; runs execute *speculatively*, in
///    whatever order keeps every core busy, recording their full
///    decision trace and fingerprint stream.
///  * **Commit plane** — a per-program wavefront that finalizes runs in
///    canonical (generation, lex-prefix) order: exactly the order the
///    wave engine's barrier processed them. Finalization derives each
///    run's *effective* outcome (where the committed visited-set would
///    have cancelled it, which children it spawns, whether its
///    undefinedness verdict stands) from the recorded stream — a pure
///    function of (prefix, visits committed by earlier generations), so
///    every committed output is byte-identical to the wave engine's no
///    matter how steals interleave. Speculation can only waste
///    wall-clock, never change a result (docs/SEARCH.md has the full
///    argument).
///
/// The layer also owns the two shared structures both engines use,
/// each behind one lock:
///
///  * SnapshotCache — an LRU cache of choice-point snapshots: new
///    captures are always admitted and the *oldest* pending snapshot is
///    evicted instead, so deep programs stop thrashing against a full
///    budget. A child whose snapshot was evicted falls back to prefix
///    replay; evictions are counted in SearchResult::SnapshotEvictions.
///  * A visited-set (per program) tagging each committed (depth,
///    fingerprint) key with the smallest generation that published it,
///    so speculative runs may consult it mid-flight: a key published by
///    an earlier generation is always a sound cancellation, and missing
///    one only defers the cancellation to commit time.
///
/// One scheduler can host **many programs** (the batched driver submits
/// N translation units into a single worker pool); results aggregate
/// per program id and are deterministic per program.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_SCHEDULER_H
#define CUNDEF_CORE_SCHEDULER_H

#include "core/Search.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace cundef {

/// LRU cache of choice-point snapshots, shared by every run of a
/// scheduler (and by the wave engine). Thread-safe: one mutex guards
/// the whole cache. Each snapshot is handed to exactly one child:
/// take() moves it out and the cache forgets it. Capacity bounds the
/// number of *pending* snapshots (captured, not yet taken by the child
/// that will fork from them); inserting beyond capacity evicts the
/// oldest pending entry, whose child then replays its prefix from
/// main() instead — the eviction is counted, never an error.
class SnapshotCache {
public:
  explicit SnapshotCache(unsigned Capacity) : Capacity(Capacity) {}

  /// Monotonic counters.
  struct Counters {
    uint64_t Inserts = 0;   ///< admitted captures
    uint64_t Takes = 0;     ///< take() calls with a nonzero id
    uint64_t Hits = 0;      ///< takes that found the entry (child forked)
    uint64_t Evictions = 0; ///< pending entries evicted
  };

  /// Admits \p Snap and returns its handle (0 when Capacity is 0: the
  /// snapshot is dropped immediately, which keeps the "budget 0 means
  /// pure replay" contract). When full, evicts the oldest pending entry
  /// and charges the eviction to *that entry's* \p EvictCounter (one
  /// counter per program), not to the inserter's.
  uint64_t insert(MachineSnapshot Snap, std::atomic<unsigned> *EvictCounter);

  /// Removes and returns the snapshot for \p Id; null when the entry
  /// was evicted (or \p Id is 0).
  std::unique_ptr<MachineSnapshot> take(uint64_t Id);

  /// Discards \p Id without counting an eviction (the child's subtree
  /// was pruned or dropped, so the snapshot can never be used).
  /// Dropping an evicted, already-taken, or already-dropped id is a
  /// no-op.
  void drop(uint64_t Id);

  size_t pending() const;
  Counters counters() const;

private:
  struct Entry {
    std::unique_ptr<MachineSnapshot> Snap;
    /// Eviction accounting target (the owning program's counter).
    std::atomic<unsigned> *EvictCounter = nullptr;
  };

  const unsigned Capacity;
  mutable std::mutex Mu;
  /// Keyed by increasing id and never reordered (take/drop remove an
  /// entry, nothing refreshes one), so begin() is the oldest pending
  /// entry: the map is its own LRU list.
  std::map<uint64_t, Entry> Entries;
  uint64_t NextId = 1;
  Counters Count;
};

/// Scheduler-wide counters (aggregated across all submitted programs;
/// per-program copies land in each SearchResult).
struct SchedulerStats {
  unsigned Programs = 0;
  unsigned Jobs = 0;
  /// Tasks taken from another worker's deque.
  uint64_t Steals = 0;
  /// Pending snapshots evicted by the LRU cache.
  uint64_t SnapshotEvictions = 0;
  /// Maximum simultaneously queued tasks across all deques.
  uint64_t PeakFrontier = 0;
  /// Machine runs actually executed, including speculative runs whose
  /// effective outcome was a dedup cancellation (the wave engine never
  /// executes those past the cancellation point; the surplus is the
  /// price of barrier-free scheduling, bounded by the run budget).
  uint64_t RunsExecuted = 0;
  /// Sum of per-program dedup hits (committed, deterministic).
  uint64_t DedupHits = 0;
  /// Runs finalized by the commit wavefront (deterministic; equal to
  /// the wave engine's started-run count). RunsExecuted - RunsCommitted
  /// is the speculative surplus (see speculativeWaste()).
  uint64_t RunsCommitted = 0;
  /// Peak of (runs executed - runs committed): how far speculation ran
  /// ahead of the commit wavefront.
  uint64_t CommitLagPeak = 0;
  uint64_t SnapshotCaptures = 0; ///< snapshots captured at choice points
  uint64_t SnapshotTakes = 0;    ///< child fork attempts
  uint64_t SnapshotHits = 0;     ///< forks served (entry still cached)
  /// Always 0: the mechanisms they counted (provisional visited claims,
  /// snapshot-cache slot stealing, cross-program snapshot sharing) are
  /// gone. Kept, unrendered, because perfbench/ still reads them.
  uint64_t ProvisionalHits = 0;
  uint64_t ProvisionalRequeues = 0;
  uint64_t SnapshotSlotSteals = 0;
  uint64_t SnapshotSharedHits = 0;

  /// The speculative surplus over committed runs,
  /// (RunsExecuted - RunsCommitted) / RunsCommitted; 0.0 when nothing
  /// committed, and at jobs=1, where speculation cannot outrun the
  /// wavefront.
  double speculativeWaste() const {
    return RunsCommitted ? static_cast<double>(RunsExecuted - RunsCommitted) /
                               static_cast<double>(RunsCommitted)
                         : 0.0;
  }
};

/// Memory-observability counters: how much per-program state the
/// scheduler currently retains. After drain() + reclaimFinished() on an
/// idle pool, RetainedPrograms and PendingSnapshots are both zero
/// (ProgramSlots is the monotonic index space, which reclamation nulls
/// but never shrinks) — the reclaim contract
/// tests/test_catalog_coverage.cpp pins down over a 200+-program batch.
struct SchedulerMemoryStats {
  size_t ProgramSlots = 0;     ///< slots in the program index (monotonic)
  size_t RetainedPrograms = 0; ///< non-reclaimed program states (arenas)
  size_t PendingSnapshots = 0; ///< live entries in the snapshot cache
};

/// The work-stealing search scheduler. One lifecycle: the worker pool
/// spawns on the first submit(); programs may then be submitted at any
/// time, from any thread, and each completes asynchronously (the
/// completion callback, or drain() for callers that block). The pool
/// idles between submissions and the destructor stops it. This is the
/// pool an AnalysisEngine keeps alive across batches, so consecutive
/// submissions amortize worker startup and share one snapshot cache;
/// OrderSearch::run() is the same lifecycle for a single program.
///
/// Every committed per-program output (verdict, witness, reports, runs,
/// dedup hits, pruned subtrees, truncation) is deterministic —
/// byte-identical to the wave engine's — regardless of job count, steal
/// interleaving, or how submissions interleave with running programs:
/// all cross-program sharing (worker deques, the snapshot cache)
/// affects wall-clock only.
class SearchScheduler {
public:
  struct Config {
    /// Requested worker threads; 0 = auto-detect
    /// std::thread::hardware_concurrency().
    unsigned Jobs = 1;
    /// Cap the pool at hardware_concurrency() (default). The search is
    /// CPU-bound, so oversubscribed workers only add context switches
    /// — worse, they outrun the commit wavefront and execute runs the
    /// visited-set would have cancelled. Tests disable the clamp to
    /// force cross-thread interleaving on small CI machines; results
    /// are worker-count-independent either way.
    bool ClampJobsToHardware = true;
    /// LRU capacity of the shared snapshot cache.
    unsigned SnapshotBudget = 1024;
  };

  explicit SearchScheduler(Config Cfg);
  ~SearchScheduler();

  SearchScheduler(const SearchScheduler &) = delete;
  SearchScheduler &operator=(const SearchScheduler &) = delete;

  /// Registers one program's evaluation-order search and starts it on
  /// the pool (spawning the pool on the first call). Thread-safe.
  /// \p RootGated reproduces the driver's single-program contract: the
  /// root (policy default) run executes first, and the order search
  /// only fans out when it completed cleanly — otherwise the program
  /// finishes with the root's outcome and no truncation is reported. A
  /// per-program SOpts.SnapshotBudget of 0 disables forking for that
  /// program; any nonzero capacity is supplied by Config.SnapshotBudget,
  /// since the cache is shared across programs. Returns the program id
  /// (submission order).
  size_t submit(const AstContext &Ast, MachineOptions MOpts,
                SearchOptions SOpts, bool RootGated = false);

  /// The finished result for \p Program (valid once it completed).
  SearchResult takeResult(size_t Program);

  /// Live monotonic snapshot of the aggregate pool counters (callers
  /// diff two snapshots for per-batch numbers).
  SchedulerStats stats() const;

  /// Invoked once per program, with its id, after the program completed
  /// (its SearchResult is final and takeResult is safe). Called from a
  /// worker thread with no scheduler locks held, so the callback may
  /// call back into the scheduler — including submit(). Set before the
  /// first submit().
  void setProgramDoneCallback(std::function<void(size_t)> Fn);

  /// Blocks until every submitted program completed. The pool stays
  /// alive, idle, ready for the next submission.
  void drain();

  /// Reclaims the per-program search state (task arenas, visited sets)
  /// of completed programs whose result was taken. Only acts when the
  /// pool is fully idle — every submitted program done and no run in
  /// flight — so it is safe to call whenever, and an engine calls it
  /// after drain(): a long-lived service then holds memory proportional
  /// to the largest batch, not to its whole history. Returns true when
  /// the pool was idle and reclamation ran (callers holding resources
  /// the pool references — e.g. ASTs — may free theirs then too).
  bool reclaimFinished();

  /// Live snapshot of the retained-state counters (see
  /// SchedulerMemoryStats for the post-reclaim contract).
  SchedulerMemoryStats memoryStats() const;

  /// Stops and joins the worker pool (idempotent; the destructor calls
  /// it). Graceful shutdown is drain()-then-stop(); stopping with
  /// unfinished programs abandons their queued work (their results
  /// never become valid).
  void stop();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace cundef

#endif // CUNDEF_CORE_SCHEDULER_H
