//===- core/Scheduler.cpp - Work-stealing search scheduling ------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// Determinism model (docs/SEARCH.md has the full argument):
//
//  * Execution is speculative. A task's machine runs as soon as any
//    worker picks it up, consulting the visited-set only for entries
//    *published by earlier generations* — a subset of what the wave
//    engine's barrier would have committed, so an in-flight
//    cancellation is always one the wave engine would also have made,
//    and a missed one only means the run executes further than strictly
//    needed. The task records its raw decision trace and the full
//    (depth, fingerprint) stream it observed.
//
//  * Commit is canonical. Per program, tasks finalize in (generation,
//    lex prefix) order — the exact order the wave engine's sorted
//    barrier used. Generation g finalizes only after generation g-1
//    finished entirely, so at finalization the visited-set restricted
//    to generations < g is complete; the task's *effective* outcome
//    (first committed hit in its stream = the wave engine's
//    cancellation point; children = flippable points of the truncated
//    trace; undefinedness discarded if it occurred past the cut) is a
//    pure function of (prefix, that set). Induction over the commit
//    order makes every committed output equal to the wave engine's.
//
//  * Undefinedness wins canonically. The first task to finalize with an
//    effective UB verdict is the winner: all canonically smaller tasks
//    already finalized clean, and every unfinalized task is canonically
//    larger. In-flight runs then cancel via the program's done flag.
//
// The budget is applied where the wave engine applied it: when a
// generation seals (its predecessor fully finalized), it is sorted,
// and entries beyond (MaxRuns - runs finalized so far) are dropped as
// unexplored subtrees — including any that already started
// speculatively; their results are discarded, keeping the accounting
// identical to the wave engine's truncation.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <thread>
#include <unordered_set>

using namespace cundef;

//===----------------------------------------------------------------------===//
// SnapshotCache
//===----------------------------------------------------------------------===//

unsigned SnapshotCache::shardCountFor(unsigned Capacity) {
  // Shards must each hold a meaningful LRU slice (>= 64 slots) or the
  // split would change eviction behavior where tests pin it down
  // (capacity 0/1/2 contracts, exact-victim assertions); a single shard
  // reproduces the original global-LRU cache bit for bit. Power of two
  // so ids can encode the shard in their low bits.
  unsigned N = 1;
  while (N < (1u << kShardBits) && Capacity / (N * 2) >= 64)
    N *= 2;
  return N;
}

SnapshotCache::SnapshotCache(unsigned Capacity)
    : Capacity(Capacity), NumShards(shardCountFor(Capacity)),
      ShardVec(NumShards) {
  // Distribute the capacity exactly (sum of slices == Capacity), with
  // the remainder on the first shards, so "pending() never exceeds
  // capacity" stays a precise invariant.
  for (unsigned S = 0; S < NumShards; ++S)
    ShardVec[S].Capacity =
        Capacity / NumShards + (S < Capacity % NumShards ? 1 : 0);
}

uint64_t SnapshotCache::insertInto(Shard &S, unsigned ShardIdx,
                                   MachineSnapshot &&Snap,
                                   std::atomic<unsigned> *EvictCounter) {
  uint64_t Id = (S.NextSeq++ << kShardBits) | ShardIdx;
  S.Lru.push_back(Id);
  Entry E;
  E.Snap = std::make_unique<MachineSnapshot>(std::move(Snap));
  E.LruIt = std::prev(S.Lru.end());
  E.EvictCounter = EvictCounter;
  S.Entries.emplace(Id, std::move(E));
  ++S.Inserts;
  return Id;
}

uint64_t SnapshotCache::insert(MachineSnapshot Snap,
                               std::atomic<unsigned> *EvictCounter,
                               unsigned ShardHint) {
  if (Capacity == 0)
    return 0;
  const unsigned Home = ShardHint & (NumShards - 1);
  uint64_t Id = 0;
  {
    Shard &S = ShardVec[Home];
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (S.Entries.size() < S.Capacity)
      Id = insertInto(S, Home, std::move(Snap), EvictCounter);
  }
  // Home shard full: steal a free slot from a sibling before evicting
  // anything — an imbalanced pool must not waste total capacity. One
  // shard lock at a time, never nested.
  if (!Id)
    for (unsigned I = 1; I < NumShards && !Id; ++I) {
      const unsigned Idx = (Home + I) & (NumShards - 1);
      Shard &S = ShardVec[Idx];
      std::lock_guard<std::mutex> Lock(S.Mu);
      if (S.Entries.size() < S.Capacity) {
        ++S.SlotSteals;
        Id = insertInto(S, Idx, std::move(Snap), EvictCounter);
      }
    }
  if (!Id) {
    // Every shard full: evict from the home shard. Eviction is
    // program-affine — the oldest pending entry of the *inserting*
    // program when one exists (a deep program then thrashes against
    // itself), else the shard's global oldest.
    std::unique_ptr<MachineSnapshot> Victim; // destroyed outside the lock
    Shard &S = ShardVec[Home];
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (S.Entries.size() < S.Capacity) { // re-check: a take() raced us
      Id = insertInto(S, Home, std::move(Snap), EvictCounter);
    } else {
      auto VictimIt = S.Entries.end();
      for (uint64_t Old : S.Lru) {
        auto It = S.Entries.find(Old);
        if (It->second.EvictCounter == EvictCounter) {
          VictimIt = It;
          break;
        }
      }
      if (VictimIt == S.Entries.end())
        VictimIt = S.Entries.find(S.Lru.front());
      Victim = std::move(VictimIt->second.Snap);
      if (VictimIt->second.EvictCounter)
        VictimIt->second.EvictCounter->fetch_add(1, std::memory_order_relaxed);
      Evictions.fetch_add(1, std::memory_order_relaxed);
      S.Lru.erase(VictimIt->second.LruIt);
      S.Entries.erase(VictimIt);
      Id = insertInto(S, Home, std::move(Snap), EvictCounter);
    }
  }
  return Id;
}

std::unique_ptr<MachineSnapshot> SnapshotCache::take(uint64_t Id) {
  if (!Id)
    return nullptr;
  Shard &S = shardOf(Id);
  std::lock_guard<std::mutex> Lock(S.Mu);
  ++S.Takes;
  auto It = S.Entries.find(Id);
  if (It == S.Entries.end())
    return nullptr; // evicted: the caller replays its prefix instead
  ++S.Hits;
  std::unique_ptr<MachineSnapshot> Snap = std::move(It->second.Snap);
  S.Lru.erase(It->second.LruIt);
  S.Entries.erase(It);
  return Snap;
}

void SnapshotCache::drop(uint64_t Id) {
  if (!Id)
    return;
  std::unique_ptr<MachineSnapshot> Dead;
  Shard &S = shardOf(Id);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Entries.find(Id);
  if (It == S.Entries.end())
    return;
  Dead = std::move(It->second.Snap);
  S.Lru.erase(It->second.LruIt);
  S.Entries.erase(It);
}

size_t SnapshotCache::pending() const {
  size_t N = 0;
  for (const Shard &S : ShardVec) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    N += S.Entries.size();
  }
  return N;
}

SnapshotCache::Counters SnapshotCache::counters() const {
  Counters C;
  for (const Shard &S : ShardVec) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    C.Inserts += S.Inserts;
    C.Takes += S.Takes;
    C.Hits += S.Hits;
    C.SlotSteals += S.SlotSteals;
  }
  C.Evictions = Evictions.load(std::memory_order_relaxed);
  return C;
}

//===----------------------------------------------------------------------===//
// Scheduler internals
//===----------------------------------------------------------------------===//

namespace {

/// Per-program visited-set with sharded locks. Each key carries up to
/// two marks:
///
///  * a **committed** generation — the smallest generation whose
///    finalization published the key. Speculative lookups accept a
///    committed hit only from a strictly earlier generation, which
///    makes every in-flight answer a subset of the committed truth.
///  * a **provisional** (generation, owner) claim — an in-flight run of
///    that generation observed this state and *may* commit it. At most
///    one owner holds a claim at a time; the owner retracts it at
///    finalization (keys it commits are promoted, the rest erased) and
///    on abandonment. A later-generation speculative run that sees a
///    provisional claim may stop early: if the claim commits, the stop
///    was exactly the wave engine's cancellation; if it does not, the
///    commit wavefront detects the unjustified stop and re-executes the
///    run against the committed set (rollback). Either way no committed
///    output changes — provisional marks only steer speculation.
class VisitedMap {
public:
  enum class Hit : uint8_t { None, Committed, Provisional };

  bool hitBefore(uint64_t Key, uint32_t Gen) const {
    const Shard &S = Shards[shardOf(Key)];
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(Key);
    return It != S.Map.end() && It->second.CommitGen < Gen;
  }

  /// Speculative lookup: a committed hit (sound, final), a provisional
  /// hit (an earlier-generation in-flight run claimed the key), or
  /// nothing.
  Hit hitBeforeSpec(uint64_t Key, uint32_t Gen) const {
    const Shard &S = Shards[shardOf(Key)];
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(Key);
    if (It == S.Map.end())
      return Hit::None;
    if (It->second.CommitGen < Gen)
      return Hit::Committed;
    if (It->second.ProvOwner && It->second.ProvGen < Gen)
      return Hit::Provisional;
    return Hit::None;
  }

  /// Claims \p Key provisionally for \p Owner. First claimant wins;
  /// returns false (nothing to retract later) when another owner
  /// already holds the claim.
  bool publishProvisional(uint64_t Key, uint32_t Gen, const void *Owner) {
    Shard &S = Shards[shardOf(Key)];
    std::lock_guard<std::mutex> Lock(S.Mu);
    VEntry &E = S.Map[Key];
    if (E.ProvOwner)
      return E.ProvOwner == Owner;
    E.ProvOwner = Owner;
    E.ProvGen = Gen;
    return true;
  }

  /// Drops \p Owner's provisional claim on \p Key (no-op for another
  /// owner's claim); erases the entry when no committed mark keeps it
  /// alive.
  void retractProvisional(uint64_t Key, const void *Owner) {
    Shard &S = Shards[shardOf(Key)];
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(Key);
    if (It == S.Map.end() || It->second.ProvOwner != Owner)
      return;
    It->second.ProvOwner = nullptr;
    It->second.ProvGen = VEntry::kNoGen;
    if (It->second.CommitGen == VEntry::kNoGen)
      S.Map.erase(It);
  }

  /// Commits \p Key at \p Gen (keeps the smallest committed
  /// generation) and releases \p Owner's provisional claim on it.
  void publish(uint64_t Key, uint32_t Gen, const void *Owner) {
    Shard &S = Shards[shardOf(Key)];
    std::lock_guard<std::mutex> Lock(S.Mu);
    VEntry &E = S.Map[Key];
    if (Gen < E.CommitGen)
      E.CommitGen = Gen;
    if (E.ProvOwner == Owner) {
      E.ProvOwner = nullptr;
      E.ProvGen = VEntry::kNoGen;
    }
  }

private:
  struct VEntry {
    static constexpr uint32_t kNoGen = 0xffffffffu;
    uint32_t CommitGen = kNoGen;
    uint32_t ProvGen = kNoGen;
    const void *ProvOwner = nullptr;
  };
  // 64 shards (up from 16): with 16-64 workers streaming one lookup +
  // one provisional claim per choice point, shard-lock collisions are
  // the hottest contention in the whole scheduler.
  static constexpr size_t NumShards = 64;
  static size_t shardOf(uint64_t Key) {
    // The keys are already splitmix-mixed (searchVisitKey); the top
    // bits are as good as any.
    return static_cast<size_t>(Key >> 58) & (NumShards - 1);
  }
  struct alignas(64) Shard {
    mutable std::mutex Mu;
    std::unordered_map<uint64_t, VEntry> Map;
  };
  Shard Shards[NumShards];
};

struct ProgramState;

/// One node of a program's search tree. Lives in its program's arena
/// for the whole scheduler lifetime (deques hold raw pointers).
struct Task {
  ProgramState *Prog = nullptr;
  uint32_t Gen = 0;
  std::vector<uint8_t> Pinned;
  uint64_t SnapId = 0; ///< snapshot cache handle (0 = replay)

  enum Phase : uint8_t { Queued, Executed, Finalized, Dropped };
  std::atomic<uint8_t> State{Queued};
  /// Set when the budget truncation or program completion made this
  /// task irrelevant; an in-flight run polls it and cancels.
  std::atomic<bool> Abandoned{false};

  // --- Raw outputs of the speculative run -----------------------------
  RunStatus Status = RunStatus::Running;
  bool UbFound = false;
  bool Forked = false;
  std::vector<UbReport> Reports;
  std::vector<std::pair<uint8_t, uint8_t>> Trace;
  /// Every (depth, fingerprint) observed at flippable choice points at
  /// or beyond the divergence — including the entry that triggered an
  /// in-flight cancellation (the wave engine's Visited stops just
  /// before it; finalization recomputes the cut from this stream).
  std::vector<std::pair<size_t, uint64_t>> Stream;
  /// (depth, snapshot-cache handle) captured during the run.
  std::vector<std::pair<size_t, uint64_t>> Snaps;
  /// Visited keys this run claimed provisionally (retracted or
  /// promoted at finalization; retracted on abandonment).
  std::vector<uint64_t> ProvKeys;
  /// The run stopped on a *provisional* hit (not a committed one). If
  /// commit-time recomputation finds no committed justification, the
  /// run is re-executed with CommittedOnly set.
  bool ProvisionalStop = false;
  /// Rollback re-execution: consult only committed visited entries
  /// (the pre-provisional behavior), guaranteeing the re-run
  /// reproduces the wave engine's exactly.
  bool CommittedOnly = false;
  uint64_t DivergenceFp = 0;
  bool HasDivergence = false;
  /// Root only: the program-visible results of the default-order run.
  std::string Output;
  int ExitCode = 0;
};

bool lexLess(const std::vector<uint8_t> &A, const std::vector<uint8_t> &B) {
  return std::lexicographical_compare(A.begin(), A.end(), B.begin(), B.end());
}

struct ProgramState {
  size_t Id = 0;
  const AstContext *Ast = nullptr;
  MachineOptions MOpts;
  SearchOptions SOpts;
  bool RootGated = false;
  /// takeResult() ran; reclaimFinished() may free this state.
  bool ResultTaken = false;
  /// Effective gates (same policy as the wave engine).
  bool Dedup = true;
  bool Snapshots = true;

  /// All tasks ever created (stable addresses; deques point in here).
  std::deque<Task> Arena;

  std::mutex CommitMu;
  /// The sealed generation being finalized, sorted canonically.
  std::vector<Task *> CurGen;
  size_t NextFinal = 0;
  /// The next generation, accumulating children (sealed & sorted once
  /// CurGen fully finalizes).
  std::vector<Task *> NextGen;
  /// Runs finalized and kept (= the wave engine's RunsStarted on the
  /// deterministic path).
  unsigned RunsFinalized = 0;
  /// In-generation divergence twins (reset per generation).
  std::unordered_set<uint64_t> SeenDivergence;
  /// Dedup hits / twin prunes committed within the current generation.
  /// The wave engine never aggregates the counters of the wave that
  /// produced the witness (its barrier returns first); when a winner
  /// finalizes, these are rolled back for byte-identical stats.
  unsigned GenDedupHits = 0;
  unsigned GenSubtreesPruned = 0;

  VisitedMap Visited;
  std::atomic<bool> Done{false};
  // Cacheline-separated: these are the only ProgramState fields many
  // workers write concurrently; packed together they false-share.
  alignas(64) std::atomic<unsigned> EvictionsAtomic{0};
  alignas(64) std::atomic<unsigned> StealsAtomic{0};
  SearchResult Result;
};

} // namespace

struct SearchScheduler::Impl {
  static unsigned resolveJobs(const Config &Cfg) {
    const unsigned HW = std::max(1u, std::thread::hardware_concurrency());
    unsigned Jobs = Cfg.Jobs ? Cfg.Jobs : HW;
    if (Cfg.ClampJobsToHardware)
      Jobs = std::min(Jobs, HW);
    return std::max(1u, Jobs);
  }

  explicit Impl(Config Cfg)
      : Cfg(Cfg), Jobs(resolveJobs(Cfg)), Cache(Cfg.SnapshotBudget),
        Deques(Jobs), ExecStripes(Jobs), StealStripes(Jobs) {
    Stats.Jobs = Jobs;
  }

  Config Cfg;
  const unsigned Jobs;
  SnapshotCache Cache;

  struct alignas(64) WorkerDeque {
    std::mutex Mu;
    std::deque<Task *> Q;
  };
  std::vector<WorkerDeque> Deques;
  /// One counter per cacheline: the per-run/per-steal counters are
  /// written by every worker on the hot path, so they are **striped**
  /// per worker (summed only at stats/commit points); the rest are
  /// merely **padded** apart so no two hot atomics false-share.
  struct alignas(64) PaddedCounter {
    std::atomic<uint64_t> V{0};
  };
  std::vector<PaddedCounter> ExecStripes;  ///< runs executed, per worker
  std::vector<PaddedCounter> StealStripes; ///< steals, per worker
  uint64_t sumStripes(const std::vector<PaddedCounter> &Stripes) const {
    uint64_t N = 0;
    for (const PaddedCounter &C : Stripes)
      N += C.V.load(std::memory_order_relaxed);
    return N;
  }
  alignas(64) std::atomic<unsigned> NextPush{0};
  alignas(64) std::atomic<size_t> QueuedCount{0};
  alignas(64) std::atomic<size_t> ProgramsLeft{0};
  alignas(64) std::atomic<uint64_t> PeakFrontier{0};
  /// Runs finalized by any program's commit wavefront (monotonic).
  alignas(64) std::atomic<uint64_t> RunsCommittedTotal{0};
  /// Peak of (executed - committed): the speculation wavefront lag.
  alignas(64) std::atomic<uint64_t> CommitLagPeak{0};
  alignas(64) std::atomic<uint64_t> ProvisionalHits{0};
  alignas(64) std::atomic<uint64_t> ProvisionalRequeues{0};
  std::mutex IdleMu;
  std::condition_variable IdleCv;

  /// Submitted programs, by id. unique_ptr so reclaimFinished() can
  /// free a completed program's arena without disturbing the index
  /// space; a null slot is a reclaimed program.
  std::deque<std::unique_ptr<ProgramState>> Programs;
  /// Guards Programs growth/reclaim (service mode submits while
  /// workers run; the deque's internal map is not safe to index
  /// concurrently with push_back).
  mutable std::mutex SubmitMu;
  SchedulerStats Stats;
  bool Ran = false;

  //===--- Service mode --------------------------------------------------===//

  /// start() was called: workers are persistent, submit() is live.
  std::atomic<bool> Persistent{false};
  std::atomic<bool> Stopping{false};
  std::vector<std::thread> Threads;
  /// One-shot lazy helpers: runAll() runs worker 0 on the calling
  /// thread and spawns the remaining Jobs-1 helper threads only when
  /// the frontier actually holds concurrent work. A tiny program
  /// (frontier never exceeding 1 task) then runs entirely inline —
  /// zero thread spawns, zero wakeup latency — which is what fixed the
  /// ~8ms steal-vs-fork pathology on one-choice-point programs.
  std::atomic<bool> LazySpawn{false};
  std::atomic<unsigned> HelpersSpawned{0};
  std::mutex HelperMu; ///< guards helper growth of Threads
  /// Tasks a worker currently holds (popped, not yet finished with);
  /// reclaimFinished() waits for 0 so no worker can be touching a
  /// program state it is about to free.
  std::atomic<size_t> InFlight{0};
  std::atomic<size_t> SubmittedCount{0};
  std::atomic<size_t> FinishedCount{0};
  /// Sum of completed programs' committed dedup hits (live stats()).
  std::atomic<uint64_t> DoneDedupHits{0};
  /// Completion handoff: finishProgram() runs under the program's
  /// commit mutex, so it only queues the id; workers drain the queue
  /// lock-free-of-scheduler-state and invoke the callback, which may
  /// therefore re-enter the scheduler (even submit()). The atomic
  /// mirror of the queue size keeps the idle-wait predicate lock-light.
  std::mutex CompletedMu;
  std::deque<size_t> CompletedQ;
  std::atomic<size_t> CompletedPending{0};
  std::function<void(size_t)> DoneCb;
  /// Signals program completions (waitProgram / drain / reclaim).
  std::mutex DoneMu;
  std::condition_variable DoneCv;

  ProgramState *program(size_t Id) {
    std::lock_guard<std::mutex> Lock(SubmitMu);
    return Id < Programs.size() ? Programs[Id].get() : nullptr;
  }

  void drainCompleted() {
    for (;;) {
      size_t Id;
      {
        std::lock_guard<std::mutex> Lock(CompletedMu);
        if (CompletedQ.empty())
          return;
        Id = CompletedQ.front();
        CompletedQ.pop_front();
        CompletedPending.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (DoneCb)
        DoneCb(Id);
    }
  }

  //===--- Frontier ------------------------------------------------------===//

  void pushTask(Task *T, unsigned Worker) {
    {
      WorkerDeque &D = Deques[Worker % Deques.size()];
      std::lock_guard<std::mutex> Lock(D.Mu);
      D.Q.push_back(T);
    }
    size_t Now = QueuedCount.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t Peak = PeakFrontier.load(std::memory_order_relaxed);
    while (Now > Peak &&
           !PeakFrontier.compare_exchange_weak(Peak, Now,
                                               std::memory_order_relaxed))
      ;
    wakeWorker();
    if (Now > 1)
      maybeSpawnHelper();
  }

  /// Lazily grows the one-shot helper pool (runAll() with Jobs > 1):
  /// one helper per observation of genuinely concurrent work, up to
  /// Jobs - 1. Called from pushTask, so possibly under a program's
  /// commit mutex — HelperMu is a leaf lock and the spawn itself takes
  /// no scheduler locks.
  void maybeSpawnHelper() {
    if (!LazySpawn.load(std::memory_order_acquire))
      return;
    if (HelpersSpawned.load(std::memory_order_relaxed) >= Jobs - 1)
      return;
    std::lock_guard<std::mutex> Lock(HelperMu);
    unsigned N = HelpersSpawned.load(std::memory_order_relaxed);
    if (N >= Jobs - 1)
      return;
    const unsigned W = N + 1; // worker 0 is the calling thread
    Threads.emplace_back([this, W] { workerLoop(W); });
    HelpersSpawned.store(N + 1, std::memory_order_relaxed);
  }

  /// Workers sleep on an untimed predicate wait (a persistent pool
  /// must not poll while idle), so every event that can change the
  /// predicate pairs its notify with the wait mutex — otherwise a
  /// worker between its predicate check and its sleep would miss the
  /// wakeup forever.
  void wakeWorker() {
    { std::lock_guard<std::mutex> Lock(IdleMu); }
    IdleCv.notify_one();
  }
  void wakeAllWorkers() {
    { std::lock_guard<std::mutex> Lock(IdleMu); }
    IdleCv.notify_all();
  }

  /// Pops the oldest task from the worker's own deque, stealing the
  /// oldest from a sibling when empty. Oldest-first keeps execution
  /// close to canonical commit order, which keeps the in-flight
  /// visited-set fresh and speculation waste low.
  ///
  /// InFlight is claimed *under the deque mutex*, before the task
  /// leaves the deque: reclaimFinished() purges the deques and then
  /// waits for InFlight to hit zero, so a task must never exist in the
  /// gap between "not queued" and "counted as held" — a worker
  /// preempted there would let reclamation free the arena its task
  /// lives in. The caller owes one fetch_sub per returned task.
  Task *popTask(unsigned Worker) {
    for (unsigned I = 0; I < Deques.size(); ++I) {
      WorkerDeque &D = Deques[(Worker + I) % Deques.size()];
      std::lock_guard<std::mutex> Lock(D.Mu);
      if (D.Q.empty())
        continue;
      Task *T = D.Q.front();
      D.Q.pop_front();
      InFlight.fetch_add(1, std::memory_order_acq_rel);
      QueuedCount.fetch_sub(1, std::memory_order_relaxed);
      if (I != 0) {
        StealStripes[Worker % StealStripes.size()].V.fetch_add(
            1, std::memory_order_relaxed);
        T->Prog->StealsAtomic.fetch_add(1, std::memory_order_relaxed);
      }
      return T;
    }
    return nullptr;
  }

  //===--- Worker loop ---------------------------------------------------===//

  /// One-shot workers retire when every submitted program finished;
  /// persistent workers idle until stop().
  bool exhausted() const {
    return Persistent.load(std::memory_order_acquire)
               ? Stopping.load(std::memory_order_acquire)
               : ProgramsLeft.load(std::memory_order_acquire) == 0;
  }

  void workerLoop(unsigned Worker) {
    while (!exhausted()) {
      drainCompleted();
      Task *T = popTask(Worker);
      if (!T) {
        // Untimed: an idle persistent pool sleeps, it does not poll.
        // Every predicate input is paired with a locked notify
        // (wakeWorker/wakeAllWorkers), so no wakeup can be missed.
        std::unique_lock<std::mutex> Lock(IdleMu);
        IdleCv.wait(Lock, [&] {
          return QueuedCount.load(std::memory_order_relaxed) > 0 ||
                 CompletedPending.load(std::memory_order_acquire) > 0 ||
                 exhausted();
        });
        continue;
      }
      ProgramState &P = *T->Prog;
      if (P.Done.load(std::memory_order_acquire) ||
          T->Abandoned.load(std::memory_order_acquire)) {
        // Dropped by truncation or a finished program; release its
        // snapshot and let the commit plane skip it.
        Cache.drop(T->SnapId);
        T->State.store(Task::Dropped, std::memory_order_release);
        advance(P);
        InFlight.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      executeTask(*T, Worker);
      if (T->Abandoned.load(std::memory_order_acquire) ||
          P.Done.load(std::memory_order_acquire)) {
        // The run was overtaken (budget truncation or a finished
        // program) and will never finalize: release its snapshots so
        // they do not squat in the cache, and retract its provisional
        // visited claims so they stop steering live speculation. A
        // race that misses a snapshot is harmless — the LRU evicts
        // strays, and the cache dies with the scheduler (or is swept
        // by reclaimFinished()).
        Cache.drop(T->SnapId);
        for (const auto &[Depth, Id] : T->Snaps)
          Cache.drop(Id);
        T->Snaps.clear();
        for (uint64_t Key : T->ProvKeys)
          P.Visited.retractProvisional(Key, T);
        T->ProvKeys.clear();
      }
      T->State.store(Task::Executed, std::memory_order_release);
      advance(P);
      InFlight.fetch_sub(1, std::memory_order_acq_rel);
    }
    drainCompleted();
    wakeAllWorkers();
  }

  //===--- Execution plane (speculative) ---------------------------------===//

  void executeTask(Task &T, unsigned Worker) {
    ProgramState &P = *T.Prog;
    const size_t PinnedLen = T.Pinned.size();
    ExecStripes[Worker % ExecStripes.size()].V.fetch_add(
        1, std::memory_order_relaxed);

    UbSink Sink;
    std::unique_ptr<MachineSnapshot> Snap = Cache.take(T.SnapId);
    std::unique_ptr<Machine> Run;
    if (P.Snapshots && Snap) {
      Run = std::make_unique<Machine>(*P.Ast, P.MOpts, Sink, *Snap, T.Pinned);
      T.Forked = true;
    } else {
      Run = std::make_unique<Machine>(*P.Ast, P.MOpts, Sink);
      Run->setReplayDecisions(T.Pinned);
    }
    Machine &M = *Run;

    M.setCancelCheck([&]() {
      return P.Done.load(std::memory_order_relaxed) ||
             T.Abandoned.load(std::memory_order_relaxed);
    });

    if (P.Snapshots)
      M.setBeforeChoiceHook([&](Machine &Mach, unsigned) {
        const size_t Depth = Mach.decisionTrace().size();
        if (Depth < PinnedLen || Mach.inSyncCall() ||
            P.Done.load(std::memory_order_relaxed))
          return;
        uint64_t Id = Cache.insert(Mach.captureChoiceSnapshot(),
                                   &P.EvictionsAtomic, Worker);
        if (Id)
          T.Snaps.emplace_back(Depth, Id);
      });

    M.setChoiceHook([&](Machine &Mach) {
      if (P.Done.load(std::memory_order_relaxed))
        return false;
      const auto &Trace = Mach.decisionTrace();
      const size_t Depth = Trace.size();
      if (Depth < std::max<size_t>(PinnedLen, 1))
        return true; // still inside the parent's already-explored path
      if (Trace.back().second < 2)
        return true; // forced point: nothing branches here
      const uint64_t Fp = P.SOpts.FullRehash ? Mach.configFingerprintFull()
                                             : Mach.configFingerprint();
      if (Depth == PinnedLen) {
        T.DivergenceFp = Fp;
        T.HasDivergence = true;
      }
      T.Stream.emplace_back(Depth, Fp);
      if (!P.Dedup)
        return true;
      const uint64_t Key = searchVisitKey(Depth, Fp);
      if (T.CommittedOnly)
        // Rollback re-execution: the committed set for generations
        // < T.Gen is complete by now (the commit wavefront reached this
        // task), so this consults exactly what the wave engine saw.
        return !P.Visited.hitBefore(Key, T.Gen);
      // Speculative cancellation. A *committed* earlier-generation key
      // is final: the wave engine cancelled here too. A *provisional*
      // one — claimed by an in-flight earlier-generation run — stops
      // this run as well (re-exploring a claimed subtree is the
      // speculation waste this exists to kill), but is flagged: if the
      // claim fails to commit, finalization re-executes this run.
      // Missing either kind only defers the cancellation to commit
      // time; finalization recomputes the exact cut.
      switch (P.Visited.hitBeforeSpec(Key, T.Gen)) {
      case VisitedMap::Hit::Committed:
        return false;
      case VisitedMap::Hit::Provisional:
        T.ProvisionalStop = true;
        ProvisionalHits.fetch_add(1, std::memory_order_relaxed);
        return false;
      case VisitedMap::Hit::None:
        break;
      }
      if (P.Visited.publishProvisional(Key, T.Gen, &T))
        T.ProvKeys.push_back(Key);
      return true;
    });

    T.Status = T.Forked ? M.resume() : M.run();
    T.Trace = M.decisionTrace();
    T.UbFound = T.Status == RunStatus::UbDetected || !Sink.empty();
    if (T.UbFound)
      T.Reports = Sink.all();
    if (PinnedLen == 0) {
      T.Output = M.config().Output;
      T.ExitCode = M.config().ExitCode;
    }
  }

  //===--- Commit plane (canonical) --------------------------------------===//

  /// Advances the program's commit wavefront: finalizes every ready
  /// task in canonical order, sealing the next generation whenever the
  /// current one completes. Runs under the program's commit mutex;
  /// cheap (set operations only, no machine execution).
  void advance(ProgramState &P) {
    std::lock_guard<std::mutex> Lock(P.CommitMu);
    for (;;) {
      if (P.Done.load(std::memory_order_relaxed))
        return;
      if (P.NextFinal == P.CurGen.size()) {
        if (!sealNextGen(P))
          return; // program complete
        continue;
      }
      Task *T = P.CurGen[P.NextFinal];
      uint8_t S = T->State.load(std::memory_order_acquire);
      if (S != Task::Executed)
        return; // the wavefront waits for this task's run
      if (needsRerun(P, *T)) {
        // The run stopped on a provisional claim that never committed:
        // its recorded stream is shorter than the wave engine's run
        // would have been. Re-execute it against the now-complete
        // committed set (CommittedOnly) — the one case where rollback
        // costs a run. The wavefront waits exactly as it would for a
        // still-executing task.
        requeueTask(P, *T);
        return;
      }
      finalizeTask(P, *T);
      T->State.store(Task::Finalized, std::memory_order_release);
      ++P.NextFinal;
      if (P.Done.load(std::memory_order_relaxed))
        return;
    }
  }

  /// True when the task's early stop was justified only provisionally:
  /// it stopped on an in-flight claim, and commit-time truth (complete
  /// for generations < T.Gen once the wavefront reaches T) holds no
  /// committed hit anywhere in its recorded stream. Finalizing it as-is
  /// would commit a shorter run than the wave engine's.
  bool needsRerun(ProgramState &P, Task &T) const {
    if (!T.ProvisionalStop || !P.Dedup)
      return false;
    for (const auto &[Depth, Fp] : T.Stream)
      if (P.Visited.hitBefore(searchVisitKey(Depth, Fp), T.Gen))
        return false;
    return true;
  }

  /// Rolls a provisionally-stopped task back to Queued for a
  /// committed-only re-execution. Runs under the commit mutex; the
  /// task is not in any deque and no worker holds it (it already
  /// executed), so resetting its outputs is race-free.
  void requeueTask(ProgramState &P, Task &T) {
    for (uint64_t Key : T.ProvKeys)
      P.Visited.retractProvisional(Key, &T);
    T.ProvKeys.clear();
    Cache.drop(T.SnapId); // consumed by the first execution; 0 is a no-op
    T.SnapId = 0;
    for (const auto &[Depth, Id] : T.Snaps)
      Cache.drop(Id);
    T.Snaps.clear();
    T.Trace.clear();
    T.Stream.clear();
    T.Reports.clear();
    T.Output.clear();
    T.Status = RunStatus::Running;
    T.UbFound = false;
    T.Forked = false;
    T.HasDivergence = false;
    T.DivergenceFp = 0;
    T.ExitCode = 0;
    T.ProvisionalStop = false;
    T.CommittedOnly = true;
    ProvisionalRequeues.fetch_add(1, std::memory_order_relaxed);
    T.State.store(Task::Queued, std::memory_order_release);
    pushTask(&T, NextPush.fetch_add(1, std::memory_order_relaxed));
  }

  /// Seals the accumulated next generation: sorts it canonically and
  /// applies the run budget exactly as the wave engine's barrier did.
  /// Returns false when the program is complete.
  bool sealNextGen(ProgramState &P) {
    if (P.NextGen.empty()) {
      finishProgram(P);
      return false;
    }
    const unsigned Budget =
        P.SOpts.MaxRuns > P.RunsFinalized ? P.SOpts.MaxRuns - P.RunsFinalized
                                          : 0;
    if (Budget == 0) {
      // Mirrors the wave loop's exit with a non-empty frontier: every
      // remaining subtree is dropped unexplored and reported.
      P.Result.FrontierTruncated = true;
      P.Result.DroppedSubtrees += static_cast<unsigned>(P.NextGen.size());
      for (Task *T : P.NextGen)
        abandonTask(*T);
      P.NextGen.clear();
      finishProgram(P);
      return false;
    }
    std::sort(P.NextGen.begin(), P.NextGen.end(),
              [](const Task *A, const Task *B) {
                return lexLess(A->Pinned, B->Pinned);
              });
    if (P.NextGen.size() > Budget) {
      P.Result.FrontierTruncated = true;
      P.Result.DroppedSubtrees +=
          static_cast<unsigned>(P.NextGen.size() - Budget);
      for (size_t I = Budget; I < P.NextGen.size(); ++I)
        abandonTask(*P.NextGen[I]);
      P.NextGen.resize(Budget);
    }
    ++P.Result.Waves;
    P.CurGen = std::move(P.NextGen);
    P.NextGen.clear();
    P.NextFinal = 0;
    P.SeenDivergence.clear();
    P.GenDedupHits = 0;
    P.GenSubtreesPruned = 0;
    return true;
  }

  /// Marks a task irrelevant (budget truncation). The start-snapshot
  /// id is written once at spawn and the cache is internally locked,
  /// so dropping it here is always safe. T.Snaps, however, is being
  /// appended to by the capture hook while the task executes: it may
  /// be touched here only when the run has provably finished (acquire
  /// on State pairs with the worker's release after executeTask). A
  /// still-running task's snapshots are released by its own worker's
  /// post-execute cleanup instead.
  void abandonTask(Task &T) {
    T.Abandoned.store(true, std::memory_order_release);
    Cache.drop(T.SnapId);
    if (T.State.load(std::memory_order_acquire) == Task::Executed) {
      for (const auto &[Depth, Id] : T.Snaps)
        Cache.drop(Id);
      T.Snaps.clear();
      for (uint64_t Key : T.ProvKeys)
        T.Prog->Visited.retractProvisional(Key, &T);
      T.ProvKeys.clear();
    }
  }

  /// Derives the task's effective outcome — what the wave engine's run
  /// would have produced against the fully committed visited-set — and
  /// commits it. Called in canonical order under the commit mutex.
  void finalizeTask(ProgramState &P, Task &T) {
    const size_t PinnedLen = T.Pinned.size();
    ++P.RunsFinalized;
    const uint64_t Comm =
        RunsCommittedTotal.fetch_add(1, std::memory_order_relaxed) + 1;
    const uint64_t Exec = sumStripes(ExecStripes);
    uint64_t Lag = Exec > Comm ? Exec - Comm : 0;
    uint64_t Peak = CommitLagPeak.load(std::memory_order_relaxed);
    while (Lag > Peak && !CommitLagPeak.compare_exchange_weak(
                             Peak, Lag, std::memory_order_relaxed))
      ;
    // Release every provisional claim up front (before any early
    // return): keys the commit loop below publishes become committed
    // truth, the rest must stop steering speculation now.
    for (uint64_t Key : T.ProvKeys)
      P.Visited.retractProvisional(Key, &T);
    T.ProvKeys.clear();

    // The wave engine's cancellation point: the first stream entry
    // whose key an earlier generation committed. Everything before it
    // is exactly the run's Visited list; everything after it (trace,
    // snapshots, a late undefinedness) never happened in wave terms.
    size_t Cut = T.Stream.size();
    if (P.Dedup)
      for (size_t I = 0; I < T.Stream.size(); ++I)
        if (P.Visited.hitBefore(
                searchVisitKey(T.Stream[I].first, T.Stream[I].second),
                T.Gen)) {
          Cut = I;
          break;
        }
    const bool DedupAborted = Cut != T.Stream.size();
    const size_t EffTraceLen =
        DedupAborted ? T.Stream[Cut].first : T.Trace.size();
    const RunStatus EffStatus = DedupAborted ? RunStatus::Cancelled : T.Status;
    const bool EffUb = !DedupAborted && T.UbFound;

    if (T.Forked)
      ++P.Result.ForkedRuns;

    if (P.SOpts.CollectRuns) {
      SearchRunRecord Rec;
      Rec.Pinned = T.Pinned;
      Rec.Trace.assign(T.Trace.begin(), T.Trace.begin() + EffTraceLen);
      Rec.FpStream.reserve(Cut);
      for (size_t I = 0; I < Cut; ++I)
        Rec.FpStream.emplace_back(T.Stream[I].first, T.Stream[I].second);
      Rec.Status = EffStatus;
      Rec.DedupAborted = DedupAborted;
      Rec.Forked = T.Forked;
      P.Result.Runs.push_back(std::move(Rec));
    }

    if (PinnedLen == 0) {
      P.Result.RootStatus = T.Status;
      P.Result.RootOutput = std::move(T.Output);
      P.Result.RootExitCode = T.ExitCode;
    }

    if (EffUb) {
      // Canonical-order finalization makes the first effective UB the
      // global winner: smaller prefixes all finalized clean.
      P.Result.UbFound = true;
      P.Result.Reports = std::move(T.Reports);
      P.Result.Witness = T.Pinned;
      P.Result.LastStatus = T.Status;
      // The wave engine returns at this wave's barrier without
      // aggregating it; roll the generation's counters back so the
      // stats stay byte-identical.
      P.Result.DedupHits -= P.GenDedupHits;
      P.Result.SubtreesPruned -= P.GenSubtreesPruned;
      for (const auto &[Depth, Id] : T.Snaps)
        Cache.drop(Id);
      finishProgram(P);
      return;
    }

    if (DedupAborted) {
      ++P.Result.DedupHits;
      ++P.GenDedupHits;
    }
    if (EffStatus != RunStatus::Completed && EffStatus != RunStatus::Cancelled)
      P.Result.LastStatus = EffStatus; // surface StepLimit/Internal/...

    if (P.Dedup) {
      for (size_t I = 0; I < Cut; ++I)
        P.Visited.publish(
            searchVisitKey(T.Stream[I].first, T.Stream[I].second), T.Gen, &T);
      if (T.HasDivergence) {
        uint64_t Key = searchVisitKey(PinnedLen, T.DivergenceFp);
        if (!P.SeenDivergence.insert(Key).second) {
          // In-generation twin: an earlier (lex-smaller) sibling
          // diverged into the same state; this subtree mirrors its.
          ++P.Result.SubtreesPruned;
          ++P.GenSubtreesPruned;
          for (const auto &[Depth, Id] : T.Snaps)
            Cache.drop(Id);
          return;
        }
      }
    }

    // The driver's single-program gate: the search fans out only when
    // the default order completed cleanly (and a budget > 1 asked for
    // a search at all).
    if (PinnedLen == 0 && P.RootGated &&
        (T.Status != RunStatus::Completed || P.SOpts.MaxRuns <= 1)) {
      for (const auto &[Depth, Id] : T.Snaps)
        Cache.drop(Id);
      finishProgram(P);
      return;
    }

    // Spawn one child per flippable choice point of the effective
    // trace, exactly as the wave engine did — including for runs whose
    // effective outcome is a dedup cancellation (alternatives branching
    // off before the duplicate state are not covered by the earlier
    // visit).
    size_t SnapIdx = 0;
    std::vector<Task *> NewTasks;
    for (size_t D = PinnedLen; D < EffTraceLen; ++D) {
      while (SnapIdx < T.Snaps.size() && T.Snaps[SnapIdx].first < D)
        Cache.drop(T.Snaps[SnapIdx++].second);
      if (T.Trace[D].second < 2)
        continue;
      P.Arena.emplace_back();
      Task &Child = P.Arena.back();
      Child.Prog = &P;
      Child.Gen = T.Gen + 1;
      Child.Pinned.reserve(D + 1);
      for (size_t I = 0; I < D; ++I)
        Child.Pinned.push_back(T.Trace[I].first);
      Child.Pinned.push_back(T.Trace[D].first ? 0 : 1);
      if (SnapIdx < T.Snaps.size() && T.Snaps[SnapIdx].first == D)
        Child.SnapId = T.Snaps[SnapIdx++].second;
      P.NextGen.push_back(&Child);
      NewTasks.push_back(&Child);
    }
    // Queue deepest-flip-first: under the left-to-right default a
    // deeper flip keeps a longer run of 0-decisions, so it is
    // lex-*smaller* — reversing makes FIFO execution track canonical
    // commit order, which keeps the in-flight visited-set fresh and
    // stops speculation from outrunning a canonically early witness.
    // (A wall-clock heuristic only; commit order fixes the results.)
    for (auto It = NewTasks.rbegin(); It != NewTasks.rend(); ++It)
      pushTask(*It, NextPush.fetch_add(1, std::memory_order_relaxed));
    // Snapshots past the effective trace (or unmatched) are unusable.
    while (SnapIdx < T.Snaps.size())
      Cache.drop(T.Snaps[SnapIdx++].second);
    T.Snaps.clear();
    T.Stream.clear();
    T.Stream.shrink_to_fit();
  }

  /// Marks the program complete and publishes its aggregate counters.
  /// Called under the commit mutex; the result is final here, so the
  /// per-program wall-clock counters are published too (the one-shot
  /// epilogue re-publishes them with end-of-run values, preserving the
  /// PR-3 accounting). The completion callback is only *queued* —
  /// workers invoke it outside every scheduler lock.
  void finishProgram(ProgramState &P) {
    P.Result.RunsExplored = P.RunsFinalized;
    P.Result.SnapshotEvictions =
        P.EvictionsAtomic.load(std::memory_order_relaxed);
    P.Result.Steals = P.StealsAtomic.load(std::memory_order_relaxed);
    P.Result.PeakFrontier = static_cast<unsigned>(
        PeakFrontier.load(std::memory_order_relaxed)); // scheduler-wide
    P.Done.store(true, std::memory_order_release);
    for (Task &T : P.Arena)
      if (T.State.load(std::memory_order_acquire) == Task::Queued)
        T.Abandoned.store(true, std::memory_order_release);
    DoneDedupHits.fetch_add(P.Result.DedupHits, std::memory_order_relaxed);
    FinishedCount.fetch_add(1, std::memory_order_acq_rel);
    ProgramsLeft.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> Lock(CompletedMu);
      CompletedQ.push_back(P.Id);
      CompletedPending.fetch_add(1, std::memory_order_acq_rel);
    }
    wakeAllWorkers();
    {
      // Taking DoneMu pairs the notify with waiters' predicate checks;
      // without it a waiter between its check and its wait would miss
      // this completion until its poll interval expires.
      std::lock_guard<std::mutex> Lock(DoneMu);
    }
    DoneCv.notify_all();
  }

  /// Seeds a program with its root task (the empty prefix = the policy
  /// default order), unless the budget cannot even run it — then the
  /// program completes immediately as fully truncated. ProgramsLeft
  /// must already account for the program.
  void seedProgram(ProgramState &P, unsigned Hint) {
    if (P.SOpts.MaxRuns == 0) {
      P.Result.FrontierTruncated = true;
      P.Result.DroppedSubtrees += 1;
      finishProgram(P);
      return;
    }
    P.Arena.emplace_back();
    Task &Root = P.Arena.back();
    Root.Prog = &P;
    Root.Gen = 0;
    P.CurGen.push_back(&Root);
    P.NextFinal = 0;
    ++P.Result.Waves;
    pushTask(&Root, Hint);
  }
};

//===----------------------------------------------------------------------===//
// SearchScheduler
//===----------------------------------------------------------------------===//

SearchScheduler::SearchScheduler(Config Cfg)
    : I(std::make_unique<Impl>(Cfg)) {}

SearchScheduler::~SearchScheduler() { stop(); }

size_t SearchScheduler::submit(const AstContext &Ast, MachineOptions MOpts,
                               SearchOptions SOpts, bool RootGated) {
  Impl &S = *I;
  assert((!S.Ran || S.Persistent.load(std::memory_order_acquire)) &&
         "one-shot mode: submit all programs before runAll()");
  auto Slot = std::make_unique<ProgramState>();
  ProgramState &P = *Slot;
  P.Ast = &Ast;
  P.MOpts = MOpts;
  P.SOpts = SOpts;
  P.RootGated = RootGated;
  // Same gating policy as the wave engine: replay cannot reproduce the
  // Random policy's shuffle stream, and Declarative-style monitors keep
  // state outside the configuration a snapshot could capture. A
  // per-program SnapshotBudget of 0 keeps its documented "pure replay"
  // meaning; nonzero capacities come from Config.SnapshotBudget (the
  // cache is shared, so per-program sizes cannot coexist).
  P.Dedup = SOpts.Dedup && MOpts.Order != EvalOrderKind::Random;
  P.Snapshots = SOpts.UseSnapshots && SOpts.SnapshotBudget > 0 &&
                MOpts.Order != EvalOrderKind::Random &&
                MOpts.Style != RuleStyle::Declarative;

  std::lock_guard<std::mutex> Lock(S.SubmitMu);
  P.Id = S.Programs.size();
  S.Programs.push_back(std::move(Slot));
  S.SubmittedCount.fetch_add(1, std::memory_order_acq_rel);
  if (S.Persistent.load(std::memory_order_acquire)) {
    // Service mode: the program goes live immediately on the running
    // pool. ProgramsLeft is bumped before seeding so drain() can never
    // observe a submitted-but-unaccounted program.
    S.ProgramsLeft.fetch_add(1, std::memory_order_acq_rel);
    S.seedProgram(P, S.NextPush.fetch_add(1, std::memory_order_relaxed));
  }
  return P.Id;
}

void SearchScheduler::runAll() {
  Impl &S = *I;
  assert(!S.Ran && "runAll() may be called once");
  assert(!S.Persistent.load(std::memory_order_acquire) &&
         "runAll() is the one-shot interface; service mode uses "
         "start()/drain()");
  S.Ran = true;
  S.Stats.Programs = static_cast<unsigned>(S.Programs.size());
  S.ProgramsLeft.store(S.Programs.size(), std::memory_order_release);

  // The calling thread is worker 0; with Jobs > 1 the remaining
  // workers spawn lazily, on demand, from pushTask (maybeSpawnHelper).
  // Seeding therefore happens with LazySpawn already live: a batch of
  // N programs pushes N roots and grows the pool immediately, while a
  // single tiny program never pays a thread spawn at all.
  if (S.Jobs > 1)
    S.LazySpawn.store(true, std::memory_order_release);
  unsigned Spawn = 0;
  for (auto &P : S.Programs)
    S.seedProgram(*P, Spawn++);

  if (S.ProgramsLeft.load(std::memory_order_acquire) > 0)
    S.workerLoop(0);
  if (S.Jobs > 1) {
    // Worker 0 only returns once every program finished; helpers then
    // observe exhausted() and retire (finishProgram woke them all).
    // Join without holding HelperMu — a retiring helper may be blocked
    // *in* maybeSpawnHelper on that mutex, and can even spawn one last
    // (immediately-retiring) helper — so swap-and-join until the pool
    // stays empty.
    for (;;) {
      std::vector<std::thread> Batch;
      {
        std::lock_guard<std::mutex> Lock(S.HelperMu);
        Batch.swap(S.Threads);
      }
      if (Batch.empty())
        break;
      for (std::thread &T : Batch)
        T.join();
    }
    S.LazySpawn.store(false, std::memory_order_release);
  }

  // Publish end-of-run aggregate counters (finishProgram already
  // published per-program ones; the wall-clock details are re-stamped
  // with final values to preserve the PR-3 accounting).
  S.Stats.Steals = S.sumStripes(S.StealStripes);
  S.Stats.SnapshotEvictions = S.Cache.evictions();
  S.Stats.PeakFrontier = S.PeakFrontier.load(std::memory_order_relaxed);
  S.Stats.RunsExecuted = S.sumStripes(S.ExecStripes);
  S.Stats.RunsCommitted = S.RunsCommittedTotal.load(std::memory_order_relaxed);
  S.Stats.ProvisionalHits = S.ProvisionalHits.load(std::memory_order_relaxed);
  S.Stats.ProvisionalRequeues =
      S.ProvisionalRequeues.load(std::memory_order_relaxed);
  S.Stats.CommitLagPeak = S.CommitLagPeak.load(std::memory_order_relaxed);
  const SnapshotCache::Counters SC = S.Cache.counters();
  S.Stats.SnapshotShards = S.Cache.shards();
  S.Stats.SnapshotTakes = SC.Takes;
  S.Stats.SnapshotHits = SC.Hits;
  S.Stats.SnapshotSlotSteals = SC.SlotSteals;
  for (auto &P : S.Programs) {
    P->Result.PeakFrontier =
        static_cast<unsigned>(S.Stats.PeakFrontier); // scheduler-wide
    S.Stats.DedupHits += P->Result.DedupHits;
  }
}

SearchResult SearchScheduler::takeResult(size_t Program) {
  ProgramState *P = I->program(Program);
  assert(P && "takeResult: program unknown or already reclaimed");
  P->ResultTaken = true;
  return std::move(P->Result);
}

SchedulerStats SearchScheduler::stats() const {
  Impl &S = *I;
  if (!S.Persistent.load(std::memory_order_acquire))
    return S.Stats;
  // Live snapshot: every field is monotonic (peak included), so two
  // snapshots diff into per-batch numbers.
  SchedulerStats St;
  St.Programs =
      static_cast<unsigned>(S.SubmittedCount.load(std::memory_order_acquire));
  St.Jobs = S.Jobs;
  St.Steals = S.sumStripes(S.StealStripes);
  St.SnapshotEvictions = S.Cache.evictions();
  St.PeakFrontier = S.PeakFrontier.load(std::memory_order_relaxed);
  St.RunsExecuted = S.sumStripes(S.ExecStripes);
  St.DedupHits = S.DoneDedupHits.load(std::memory_order_relaxed);
  St.RunsCommitted = S.RunsCommittedTotal.load(std::memory_order_relaxed);
  St.ProvisionalHits = S.ProvisionalHits.load(std::memory_order_relaxed);
  St.ProvisionalRequeues =
      S.ProvisionalRequeues.load(std::memory_order_relaxed);
  St.CommitLagPeak = S.CommitLagPeak.load(std::memory_order_relaxed);
  const SnapshotCache::Counters SC = S.Cache.counters();
  St.SnapshotShards = S.Cache.shards();
  St.SnapshotTakes = SC.Takes;
  St.SnapshotHits = SC.Hits;
  St.SnapshotSlotSteals = SC.SlotSteals;
  return St;
}

//===----------------------------------------------------------------------===//
// Service mode
//===----------------------------------------------------------------------===//

void SearchScheduler::start() {
  Impl &S = *I;
  assert(!S.Ran && "cannot mix start() with runAll()");
  if (S.Persistent.exchange(true, std::memory_order_acq_rel))
    return; // already started
  S.Threads.reserve(S.Jobs);
  for (unsigned W = 0; W < S.Jobs; ++W)
    S.Threads.emplace_back([&S, W] { S.workerLoop(W); });
}

bool SearchScheduler::started() const {
  return I->Persistent.load(std::memory_order_acquire);
}

void SearchScheduler::setProgramDoneCallback(std::function<void(size_t)> Fn) {
  assert(!started() && "set the completion callback before start()");
  I->DoneCb = std::move(Fn);
}

void SearchScheduler::waitProgram(size_t Program) {
  Impl &S = *I;
  // The pointer is captured once: taking SubmitMu inside the wait
  // predicate would invert the submit()->finishProgram lock order.
  // Callers must not race this against reclaimFinished() for a
  // program whose result they already took.
  ProgramState *P = S.program(Program);
  if (!P)
    return; // reclaimed: finished long ago
  std::unique_lock<std::mutex> Lock(S.DoneMu);
  S.DoneCv.wait(Lock, [&] { return P->Done.load(std::memory_order_acquire); });
}

void SearchScheduler::drain() {
  Impl &S = *I;
  std::unique_lock<std::mutex> Lock(S.DoneMu);
  S.DoneCv.wait(Lock, [&] {
    return S.FinishedCount.load(std::memory_order_acquire) ==
           S.SubmittedCount.load(std::memory_order_acquire);
  });
}

bool SearchScheduler::reclaimFinished() {
  Impl &S = *I;
  if (!S.Persistent.load(std::memory_order_acquire))
    return false;
  std::lock_guard<std::mutex> Lock(S.SubmitMu);
  // Only a fully idle pool is safe: with every program finished, no
  // queued task can spawn children and no in-flight run can outlive
  // the InFlight wait below.
  if (S.FinishedCount.load(std::memory_order_acquire) !=
      S.SubmittedCount.load(std::memory_order_acquire))
    return false;
  // Queued tasks all belong to finished programs now: abandoned work
  // the workers would drop one by one. Drop it wholesale.
  for (auto &D : S.Deques) {
    std::lock_guard<std::mutex> DL(D.Mu);
    for (Task *T : D.Q) {
      S.Cache.drop(T->SnapId);
      T->State.store(Task::Dropped, std::memory_order_release);
      S.QueuedCount.fetch_sub(1, std::memory_order_relaxed);
    }
    D.Q.clear();
  }
  // Workers may still hold a popped (cancelling) task; their machines
  // stop at the next cancel check, so this wait is bounded.
  while (S.InFlight.load(std::memory_order_acquire) > 0)
    std::this_thread::yield();
  for (auto &Slot : S.Programs) {
    if (!Slot || !Slot->Done.load(std::memory_order_acquire) ||
        !Slot->ResultTaken)
      continue;
    // Executed-but-never-finalized tasks (overtaken by an early UB
    // winner) still pin their mid-run snapshot captures. In one-shot
    // mode the cache dies with the scheduler; a persistent pool must
    // sweep them here or they evict the next batch's snapshots and
    // silently degrade forks into replays.
    for (Task &T : Slot->Arena) {
      S.Cache.drop(T.SnapId);
      for (const auto &[Depth, Id] : T.Snaps)
        S.Cache.drop(Id);
    }
    Slot.reset();
  }
  return true;
}

SchedulerMemoryStats SearchScheduler::memoryStats() const {
  const Impl &S = *I;
  SchedulerMemoryStats M;
  {
    std::lock_guard<std::mutex> Lock(S.SubmitMu);
    M.ProgramSlots = S.Programs.size();
    for (const auto &Slot : S.Programs)
      if (Slot)
        ++M.RetainedPrograms;
  }
  M.PendingSnapshots = S.Cache.pending();
  M.QueuedTasks = S.QueuedCount.load(std::memory_order_relaxed);
  return M;
}

void SearchScheduler::stop() {
  Impl &S = *I;
  if (!S.Persistent.load(std::memory_order_acquire))
    return;
  S.Stopping.store(true, std::memory_order_release);
  S.wakeAllWorkers();
  for (std::thread &T : S.Threads)
    T.join();
  S.Threads.clear();
}
