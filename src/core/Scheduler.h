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
/// The layer also owns the two shared structures both engines use:
///
///  * SnapshotCache — an LRU cache of choice-point snapshots replacing
///    the old admission-only SnapshotBudget: new captures are always
///    admitted and the *oldest* pending snapshot is evicted instead,
///    so deep programs stop thrashing against a full budget. A child
///    whose snapshot was evicted falls back to prefix replay; evictions
///    are counted in SearchResult::SnapshotEvictions.
///  * A sharded-lock visited-set (per program) tagging each committed
///    (depth, fingerprint) key with the generation that published it,
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
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace cundef {

/// LRU cache of choice-point snapshots, shared by every run of a
/// scheduler (and by the wave engine). Thread-safe. Each snapshot is
/// handed to exactly one child: take() moves it out and the cache
/// forgets it. Capacity bounds the number of *pending* snapshots
/// (captured, not yet taken by the child that will fork from them);
/// inserting beyond capacity evicts a pending entry, whose child then
/// replays its prefix from main() instead — the eviction is counted,
/// never an error.
///
/// Internally the capacity is split across per-worker **shards** (one
/// mutex + LRU list each) so 16-64 workers capturing snapshots stop
/// serializing on one global lock. Small capacities (< 64) keep a
/// single shard, preserving the original global-LRU behavior exactly.
/// An insert goes to the caller's home shard (the \p ShardHint, worker
/// index); when that shard is full it first *steals a free slot* from a
/// sibling shard (so total capacity is never wasted on an imbalanced
/// pool), and only evicts when every shard is full. Eviction is
/// **program-affine**: the victim is the oldest pending entry of the
/// *same program* as the incoming snapshot when one exists (one
/// deep program then thrashes against its own snapshots instead of
/// evicting every other program's), else the home shard's oldest.
class SnapshotCache {
public:
  explicit SnapshotCache(unsigned Capacity);

  /// Aggregated shard counters (monotonic).
  struct Counters {
    uint64_t Inserts = 0;    ///< admitted captures
    uint64_t Takes = 0;      ///< take() calls with a nonzero id
    uint64_t Hits = 0;       ///< takes that found the entry (child forked)
    uint64_t SlotSteals = 0; ///< inserts placed in a sibling shard
    uint64_t Evictions = 0;  ///< pending entries evicted
  };

  /// Admits \p Snap and returns its handle (0 when Capacity is 0: the
  /// snapshot is dropped immediately, which keeps the "budget 0 means
  /// pure replay" contract). May evict a pending entry; the eviction is
  /// charged to that entry's \p EvictCounter. \p EvictCounter doubles
  /// as the inserting program's identity for affinity decisions.
  /// \p ShardHint selects the home shard (callers pass their worker
  /// index; any value is valid).
  uint64_t insert(MachineSnapshot Snap, std::atomic<unsigned> *EvictCounter,
                  unsigned ShardHint = 0);

  /// Removes and returns the snapshot for \p Id; null when the entry
  /// was evicted (or \p Id is 0).
  std::unique_ptr<MachineSnapshot> take(uint64_t Id);

  /// Discards \p Id without counting an eviction (the child's subtree
  /// was pruned or dropped, so the snapshot can never be used).
  /// Dropping an evicted, already-taken, or already-dropped id is a
  /// no-op.
  void drop(uint64_t Id);

  unsigned evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  size_t pending() const;
  unsigned shards() const { return NumShards; }
  Counters counters() const;

private:
  struct Entry {
    std::unique_ptr<MachineSnapshot> Snap;
    std::list<uint64_t>::iterator LruIt;
    /// Eviction accounting target; also the owning program's identity
    /// (one counter per program) for affinity-aware victim selection.
    std::atomic<unsigned> *EvictCounter = nullptr;
  };

  /// One shard: its own lock, map, LRU list, and slice of the
  /// capacity. Cacheline-aligned so neighboring shard locks never
  /// false-share.
  struct alignas(64) Shard {
    mutable std::mutex Mu;
    std::unordered_map<uint64_t, Entry> Entries;
    std::list<uint64_t> Lru; ///< front = oldest = next eviction victim
    uint64_t NextSeq = 1;
    unsigned Capacity = 0;
    uint64_t Inserts = 0;
    uint64_t Takes = 0;
    uint64_t Hits = 0;
    uint64_t SlotSteals = 0;
  };

  /// Ids encode their shard in the low bits so take/drop touch exactly
  /// one shard lock.
  static constexpr unsigned kShardBits = 5; ///< up to 32 shards
  static unsigned shardCountFor(unsigned Capacity);
  Shard &shardOf(uint64_t Id) {
    return ShardVec[static_cast<size_t>(Id) & (NumShards - 1)];
  }
  /// Inserts into \p S (caller holds S.Mu; S must have a free slot).
  uint64_t insertInto(Shard &S, unsigned ShardIdx, MachineSnapshot &&Snap,
                      std::atomic<unsigned> *EvictCounter);

  const unsigned Capacity;
  const unsigned NumShards;
  std::vector<Shard> ShardVec;
  std::atomic<unsigned> Evictions{0};
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
  /// price of barrier-free scheduling, bounded by the run budget) and
  /// re-executions forced by a provisional-publication rollback.
  uint64_t RunsExecuted = 0;
  /// Sum of per-program dedup hits (committed, deterministic).
  uint64_t DedupHits = 0;
  /// Runs finalized by the commit wavefront (deterministic; equal to
  /// the wave engine's started-run count). RunsExecuted - RunsCommitted
  /// is the speculative surplus (see speculativeWaste()).
  uint64_t RunsCommitted = 0;
  /// Speculative runs stopped early by a *provisional* visited entry —
  /// one claimed by an in-flight run of an earlier generation, not yet
  /// committed. Each hit is execution the pre-provisional scheduler
  /// would have wasted re-exploring a claimed subtree.
  uint64_t ProvisionalHits = 0;
  /// Provisionally-stopped runs whose claim did not survive commit
  /// (no committed entry justified the stop), re-executed against the
  /// committed set. Determinism's rollback cost; typically tiny.
  uint64_t ProvisionalRequeues = 0;
  /// Peak of (runs executed - runs committed): how far speculation ran
  /// ahead of the commit wavefront.
  uint64_t CommitLagPeak = 0;
  /// Snapshot-cache shard count and aggregated shard counters.
  unsigned SnapshotShards = 0;
  uint64_t SnapshotCaptures = 0;   ///< snapshots captured at choice points
  uint64_t SnapshotTakes = 0;      ///< child fork attempts
  uint64_t SnapshotHits = 0;       ///< forks served (entry still cached)
  uint64_t SnapshotSlotSteals = 0; ///< inserts placed via a sibling shard
  /// Always 0: snapshots are never shared; kept because perfbench reads it.
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
