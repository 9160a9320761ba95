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
// The last generation the budget can run is known before it runs: the
// *leaf generation*. Its runs capture no snapshots and spawn no
// children; finalization only counts the children it would have
// spawned, which is exactly what the final seal would have dropped.
//
// Placement only moves wall-clock: a run's children queue on the worker
// that executed it (it captured their snapshots), and a program
// submitted from a worker is queued on that worker's deque.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace cundef;

//===----------------------------------------------------------------------===//
// SnapshotCache
//===----------------------------------------------------------------------===//

uint64_t SnapshotCache::insert(MachineSnapshot Snap,
                               std::atomic<unsigned> *EvictCounter) {
  if (Capacity == 0)
    return 0;
  std::unique_ptr<MachineSnapshot> Victim; // destroyed outside the lock
  std::lock_guard<std::mutex> Lock(Mu);
  if (Entries.size() >= Capacity) {
    auto Oldest = Entries.begin();
    Victim = std::move(Oldest->second.Snap);
    if (Oldest->second.EvictCounter)
      Oldest->second.EvictCounter->fetch_add(1, std::memory_order_relaxed);
    ++Count.Evictions;
    Entries.erase(Oldest);
  }
  const uint64_t Id = NextId++;
  Entries.emplace_hint(
      Entries.end(), Id,
      Entry{std::make_unique<MachineSnapshot>(std::move(Snap)), EvictCounter});
  ++Count.Inserts;
  return Id;
}

std::unique_ptr<MachineSnapshot> SnapshotCache::take(uint64_t Id) {
  if (!Id)
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mu);
  ++Count.Takes;
  auto It = Entries.find(Id);
  if (It == Entries.end())
    return nullptr; // evicted: the caller replays its prefix instead
  ++Count.Hits;
  std::unique_ptr<MachineSnapshot> Snap = std::move(It->second.Snap);
  Entries.erase(It);
  return Snap;
}

void SnapshotCache::drop(uint64_t Id) {
  if (!Id)
    return;
  std::unique_ptr<MachineSnapshot> Dead; // destroyed outside the lock
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(Id);
  if (It == Entries.end())
    return;
  Dead = std::move(It->second.Snap);
  Entries.erase(It);
}

size_t SnapshotCache::pending() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}

SnapshotCache::Counters SnapshotCache::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Count;
}

//===----------------------------------------------------------------------===//
// Scheduler internals
//===----------------------------------------------------------------------===//

namespace {

/// Per-program visited-set: each committed key maps to the smallest
/// generation whose finalization published it. Speculative lookups
/// accept a hit only from a strictly earlier generation, which makes
/// every in-flight answer a subset of the committed truth.
class VisitedMap {
public:
  bool hitBefore(uint64_t Key, uint32_t Gen) const {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    return It != Map.end() && It->second < Gen;
  }

  /// Commits \p Key at \p Gen (keeps the smallest committed generation).
  void publish(uint64_t Key, uint32_t Gen) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto [It, Inserted] = Map.emplace(Key, Gen);
    if (!Inserted && Gen < It->second)
      It->second = Gen;
  }

private:
  mutable std::mutex Mu;
  std::unordered_map<uint64_t, uint32_t> Map;
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
  /// Counted in the pool's CommitLag: executed, not yet finalized,
  /// dropped or abandoned. Whoever clears it first uncounts the run.
  std::atomic<bool> Lagging{false};
  /// The worker that executed the run; its children queue there.
  unsigned Worker = 0;

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
  uint64_t DivergenceFp = 0;
  bool HasDivergence = false;
  /// Root only: the program-visible results of the default-order run.
  std::string Output;
  int ExitCode = 0;
};

bool lexLess(const std::vector<uint8_t> &A, const std::vector<uint8_t> &B) {
  return std::lexicographical_compare(A.begin(), A.end(), B.begin(), B.end());
}

void raisePeak(std::atomic<uint64_t> &Peak, uint64_t Now) {
  uint64_t Cur = Peak.load(std::memory_order_relaxed);
  while (Now > Cur &&
         !Peak.compare_exchange_weak(Cur, Now, std::memory_order_relaxed))
    ;
}

/// The pool (an Impl's address) and index of the worker running on
/// this thread; null on threads outside every pool.
thread_local const void *CurrentPool = nullptr;
thread_local unsigned CurrentWorker = 0;

struct ProgramState {
  size_t Id = 0;
  const AstContext *Ast = nullptr;
  /// Keeps Ast (and whatever owns it) alive while a run may read it.
  /// Dropped once, by releasePin(), when the program is done and no
  /// run of it is in flight.
  std::shared_ptr<const AstContext> AstPin;
  /// Runs of this program a worker holds, counted before the worker
  /// checks Done, so a run either sees Done or holds the pin.
  std::atomic<unsigned> RunsInFlight{0};
  std::atomic<bool> PinReleased{false};
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
  /// The budget the next generation gets at its seal, fixed when CurGen
  /// seals: MaxRuns - (RunsFinalized + |CurGen|).
  unsigned NextBudget = 0;
  /// The first generation none of whose children the budget can run
  /// (kNoLeaf until known). Written under CommitMu; the capture hook
  /// reads it relaxed, and a stale read only captures a snapshot that
  /// goes unused.
  static constexpr uint32_t kNoLeaf = 0xffffffffu;
  std::atomic<uint32_t> LeafGen{kNoLeaf};
  /// Children the leaf generation's finalized runs did not spawn: the
  /// subtrees the final seal reports dropped.
  unsigned LeafDropped = 0;
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
  std::atomic<unsigned> EvictionsAtomic{0};
  std::atomic<unsigned> StealsAtomic{0};
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
      : Jobs(resolveJobs(Cfg)), Cache(Cfg.SnapshotBudget), Deques(Jobs) {}

  const unsigned Jobs;
  SnapshotCache Cache;

  struct WorkerDeque {
    std::mutex Mu;
    std::deque<Task *> Q;
  };
  std::vector<WorkerDeque> Deques;
  std::atomic<uint64_t> RunsExecuted{0};
  std::atomic<uint64_t> Steals{0};
  std::atomic<size_t> QueuedCount{0};
  std::atomic<uint64_t> PeakFrontier{0};
  /// Runs finalized by any program's commit wavefront (monotonic).
  std::atomic<uint64_t> RunsCommittedTotal{0};
  /// Runs executed and not yet finalized, dropped or abandoned, and
  /// its peak: how far speculation runs ahead of the commit wavefront.
  std::atomic<uint64_t> CommitLag{0};
  std::atomic<uint64_t> CommitLagPeak{0};
  std::mutex IdleMu;
  std::condition_variable IdleCv;

  /// Posted jobs, FIFO. QueuedJobs mirrors the size for lock-free
  /// checks; RunningJobs counts jobs a worker is executing.
  std::mutex JobMu;
  std::deque<std::function<void()>> JobQ;
  std::atomic<size_t> QueuedJobs{0};
  std::atomic<size_t> RunningJobs{0};

  /// Live programs; Programs[I] has id ProgramBase + I. unique_ptr so
  /// reclaimFinished() can free a completed program's arena in place
  /// (a null slot) and pop reclaimed slots off the front.
  std::deque<std::unique_ptr<ProgramState>> Programs;
  size_t ProgramBase = 0;
  /// Guards Programs growth/reclaim (submits arrive while workers
  /// run; the deque's internal map is not safe to index concurrently
  /// with push_back) and the worker pool's Threads.
  mutable std::mutex SubmitMu;

  //===--- Pool lifecycle ------------------------------------------------===//

  std::atomic<bool> Stopping{false};
  /// The worker pool, spawned by the first submit() (guarded by
  /// SubmitMu).
  std::vector<std::thread> Threads;
  /// Tasks a worker currently holds (popped, not yet finished with);
  /// reclaimFinished() waits for 0 so no worker can be touching a
  /// program state it is about to free.
  std::atomic<size_t> InFlight{0};
  /// Finished programs whose AST pin is not yet released: a gauge, at
  /// most one per worker holding a cancelling run.
  std::atomic<size_t> PinnedFinished{0};
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
  /// Signals program completions (drain).
  std::mutex DoneMu;
  std::condition_variable DoneCv;

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
    // Counted before it is visible: a worker that pops the task at once
    // would otherwise decrement first, and the count (and the peak taken
    // from it) would wrap below zero.
    raisePeak(PeakFrontier,
              QueuedCount.fetch_add(1, std::memory_order_relaxed) + 1);
    {
      WorkerDeque &D = Deques[Worker % Deques.size()];
      std::lock_guard<std::mutex> Lock(D.Mu);
      D.Q.push_back(T);
    }
    wakeWorker();
  }

  /// Workers sleep on an untimed predicate wait (an idle pool
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
        Steals.fetch_add(1, std::memory_order_relaxed);
        T->Prog->StealsAtomic.fetch_add(1, std::memory_order_relaxed);
      }
      return T;
    }
    return nullptr;
  }

  //===--- Worker loop ---------------------------------------------------===//

  /// Spawns the worker pool on the first submission (caller holds
  /// SubmitMu). A stopped pool stays stopped: a completion callback
  /// that submits while stop() joins must not respawn workers.
  void spawnPool() {
    if (!Threads.empty() || stopping())
      return;
    Threads.reserve(Jobs);
    for (unsigned W = 0; W < Jobs; ++W)
      Threads.emplace_back([this, W] { workerLoop(W); });
  }

  bool stopping() const { return Stopping.load(std::memory_order_acquire); }

  /// Runs the oldest posted job, if any. Like popTask(), InFlight is
  /// claimed before the job leaves the queue.
  bool runJob() {
    if (QueuedJobs.load(std::memory_order_acquire) == 0)
      return false;
    std::function<void()> Job;
    {
      std::lock_guard<std::mutex> Lock(JobMu);
      if (JobQ.empty())
        return false;
      Job = std::move(JobQ.front());
      JobQ.pop_front();
      InFlight.fetch_add(1, std::memory_order_acq_rel);
      RunningJobs.fetch_add(1, std::memory_order_acq_rel);
      QueuedJobs.fetch_sub(1, std::memory_order_acq_rel);
    }
    Job();
    RunningJobs.fetch_sub(1, std::memory_order_acq_rel);
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }

  /// The admission rule: compile first while fewer programs than
  /// workers are in the search or being compiled.
  bool jobsFirst() const {
    const size_t Done = FinishedCount.load(std::memory_order_acquire);
    return SubmittedCount.load(std::memory_order_acquire) - Done +
               RunningJobs.load(std::memory_order_acquire) <
           Jobs;
  }

  /// Ends \p T's commit lag if it still counts (finalized, dropped or
  /// abandoned). Sequentially consistent with the worker's mark, so
  /// exactly one side uncounts a run whose abandonment races its end.
  void endLag(Task &T) {
    if (T.Lagging.exchange(false))
      CommitLag.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Ends a worker's hold on a run of \p P; the last run of a finished
  /// program releases its AST pin.
  void endRun(ProgramState &P) {
    if (P.RunsInFlight.fetch_sub(1) == 1 && P.Done.load())
      releasePin(P);
  }

  /// Drops \p P's AST pin, once: a finished program's last reader is
  /// gone. Sequentially consistent with the workers' count-then-check,
  /// so either finishProgram() sees no run in flight or the last run's
  /// endRun() sees Done.
  void releasePin(ProgramState &P) {
    if (P.PinReleased.exchange(true))
      return;
    PinnedFinished.fetch_sub(1, std::memory_order_relaxed);
    P.AstPin.reset();
  }

  /// Workers idle between submissions until stop().
  void workerLoop(unsigned Worker) {
    CurrentPool = this;
    CurrentWorker = Worker;
    while (!stopping()) {
      drainCompleted();
      const bool JobFirst = jobsFirst();
      if (JobFirst && runJob())
        continue;
      Task *T = popTask(Worker);
      if (!T) {
        if (!JobFirst && runJob())
          continue;
        // Untimed: an idle pool sleeps, it does not poll.
        // Every predicate input is paired with a locked notify
        // (wakeWorker/wakeAllWorkers), so no wakeup can be missed.
        std::unique_lock<std::mutex> Lock(IdleMu);
        IdleCv.wait(Lock, [&] {
          return QueuedCount.load(std::memory_order_relaxed) > 0 ||
                 QueuedJobs.load(std::memory_order_acquire) > 0 ||
                 CompletedPending.load(std::memory_order_acquire) > 0 ||
                 stopping();
        });
        continue;
      }
      ProgramState &P = *T->Prog;
      P.RunsInFlight.fetch_add(1);
      if (P.Done.load() || T->Abandoned.load(std::memory_order_acquire)) {
        // Dropped by truncation or a finished program; release its
        // snapshot and let the commit plane skip it.
        Cache.drop(T->SnapId);
        T->State.store(Task::Dropped, std::memory_order_release);
        advance(P);
        endRun(P);
        InFlight.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      T->Worker = Worker;
      executeTask(*T);
      // Counted before the overtaken check: finishProgram() and
      // abandonTask() set their flag before they clear Lagging, so one
      // of the two sides sees the other.
      T->Lagging.store(true);
      raisePeak(CommitLagPeak,
                CommitLag.fetch_add(1, std::memory_order_relaxed) + 1);
      if (T->Abandoned.load() || P.Done.load()) {
        // The run was overtaken (budget truncation or a finished
        // program) and will never finalize: release its snapshots so
        // they do not squat in the cache. A race that misses a
        // snapshot is harmless — the LRU evicts strays, and the cache
        // dies with the scheduler (or is swept by reclaimFinished()).
        endLag(*T);
        Cache.drop(T->SnapId);
        for (const auto &[Depth, Id] : T->Snaps)
          Cache.drop(Id);
        T->Snaps.clear();
      }
      T->State.store(Task::Executed, std::memory_order_release);
      advance(P);
      endRun(P);
      InFlight.fetch_sub(1, std::memory_order_acq_rel);
    }
    drainCompleted();
    wakeAllWorkers();
  }

  //===--- Execution plane (speculative) ---------------------------------===//

  void executeTask(Task &T) {
    ProgramState &P = *T.Prog;
    RunsExecuted.fetch_add(1, std::memory_order_relaxed);

    UbSink Sink;
    // Declared before Run so it outlives the forked machine: the
    // copy-on-write invariant documented at Machine's fork constructor.
    std::unique_ptr<MachineSnapshot> Snap = Cache.take(T.SnapId);
    std::optional<Machine> Run;
    if (P.Snapshots && Snap) {
      Run.emplace(*P.Ast, P.MOpts, Sink, *Snap, T.Pinned);
      T.Forked = true;
    } else {
      Run.emplace(*P.Ast, P.MOpts, Sink);
      Run->setReplayDecisions(T.Pinned);
    }
    Machine &M = *Run;

    // Each hook captures one pointer, which std::function stores inline,
    // so installing them allocates nothing.
    struct RunContext {
      Impl &Sched;
      ProgramState &P;
      Task &T;
      size_t PinnedLen;
    } Ctx{*this, P, T, T.Pinned.size()};

    M.setCancelCheck([C = &Ctx] {
      return C->P.Done.load(std::memory_order_relaxed) ||
             C->T.Abandoned.load(std::memory_order_relaxed);
    });

    if (P.Snapshots)
      M.setBeforeChoiceHook([C = &Ctx](Machine &Mach, unsigned) {
        ProgramState &P = C->P;
        const size_t Depth = Mach.decisionTrace().size();
        if (Depth < C->PinnedLen || Mach.inSyncCall() ||
            P.Done.load(std::memory_order_relaxed) ||
            C->T.Gen >= P.LeafGen.load(std::memory_order_relaxed))
          return;
        uint64_t Id = C->Sched.Cache.insert(Mach.captureChoiceSnapshot(),
                                            &P.EvictionsAtomic);
        if (Id)
          C->T.Snaps.emplace_back(Depth, Id);
      });

    M.setChoiceHook([C = &Ctx](Machine &Mach) {
      ProgramState &P = C->P;
      Task &T = C->T;
      if (P.Done.load(std::memory_order_relaxed))
        return false;
      const auto &Trace = Mach.decisionTrace();
      const size_t Depth = Trace.size();
      if (Depth < std::max<size_t>(C->PinnedLen, 1))
        return true; // still inside the parent's already-explored path
      if (Trace.back().second < 2)
        return true; // forced point: nothing branches here
      const uint64_t Fp = P.SOpts.FullRehash ? Mach.configFingerprintFull()
                                             : Mach.configFingerprint();
      if (Depth == C->PinnedLen) {
        T.DivergenceFp = Fp;
        T.HasDivergence = true;
      }
      T.Stream.emplace_back(Depth, Fp);
      if (!P.Dedup)
        return true;
      // Speculative cancellation: a key an earlier generation committed
      // is final — the wave engine cancelled here too. Missing one only
      // defers the cancellation to commit time; finalization recomputes
      // the exact cut.
      return !P.Visited.hitBefore(searchVisitKey(Depth, Fp), T.Gen);
    });

    T.Status = T.Forked ? M.resume() : M.run();
    T.Trace = M.decisionTrace();
    T.UbFound = T.Status == RunStatus::UbDetected || !Sink.empty();
    if (T.UbFound)
      T.Reports = Sink.all();
    if (Ctx.PinnedLen == 0) {
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
      finalizeTask(P, *T);
      T->State.store(Task::Finalized, std::memory_order_release);
      ++P.NextFinal;
      if (P.Done.load(std::memory_order_relaxed))
        return;
    }
  }

  /// Seals the accumulated next generation: sorts it canonically and
  /// applies the run budget exactly as the wave engine's barrier did.
  /// Returns false when the program is complete.
  bool sealNextGen(ProgramState &P) {
    const unsigned Budget =
        P.SOpts.MaxRuns > P.RunsFinalized ? P.SOpts.MaxRuns - P.RunsFinalized
                                          : 0;
    if (Budget == 0) {
      // The leaf generation just finalized. Mirrors the wave loop's
      // exit with a non-empty frontier: every child it counted instead
      // of spawning is an unexplored subtree, reported here.
      assert(P.NextGen.empty() && "the leaf generation spawns no children");
      if (P.LeafDropped) {
        P.Result.FrontierTruncated = true;
        P.Result.DroppedSubtrees += P.LeafDropped;
      }
      finishProgram(P);
      return false;
    }
    if (P.NextGen.empty()) {
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
    fixNextBudget(P);
    return true;
  }

  /// Called once CurGen is sealed: fixes the budget its successor will
  /// get, and makes CurGen the leaf generation when that budget is 0.
  void fixNextBudget(ProgramState &P) {
    P.NextBudget = P.SOpts.MaxRuns - P.RunsFinalized -
                   static_cast<unsigned>(P.CurGen.size());
    if (P.NextBudget == 0)
      P.LeafGen.store(P.CurGen.front()->Gen, std::memory_order_relaxed);
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
    T.Abandoned.store(true);
    endLag(T);
    Cache.drop(T.SnapId);
    if (T.State.load(std::memory_order_acquire) == Task::Executed) {
      for (const auto &[Depth, Id] : T.Snaps)
        Cache.drop(Id);
      T.Snaps.clear();
    }
  }

  /// Derives the task's effective outcome — what the wave engine's run
  /// would have produced against the fully committed visited-set — and
  /// commits it. Called in canonical order under the commit mutex.
  void finalizeTask(ProgramState &P, Task &T) {
    const size_t PinnedLen = T.Pinned.size();
    ++P.RunsFinalized;
    RunsCommittedTotal.fetch_add(1, std::memory_order_relaxed);
    endLag(T);

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
            searchVisitKey(T.Stream[I].first, T.Stream[I].second), T.Gen);
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
    // visit). The leaf generation only counts them: the budget will
    // drop every one unexplored.
    const bool Leaf = T.Gen >= P.LeafGen.load(std::memory_order_relaxed);
    size_t SnapIdx = 0;
    std::vector<Task *> NewTasks;
    for (size_t D = PinnedLen; D < EffTraceLen; ++D) {
      while (SnapIdx < T.Snaps.size() && T.Snaps[SnapIdx].first < D)
        Cache.drop(T.Snaps[SnapIdx++].second);
      if (T.Trace[D].second < 2)
        continue;
      if (Leaf) {
        ++P.LeafDropped;
        continue;
      }
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
    // Once the next generation holds its whole budget, its seal will
    // exhaust MaxRuns, so it is the leaf generation. Published before
    // the children are queued, so their runs already skip captures.
    if (!Leaf && P.NextGen.size() >= P.NextBudget)
      P.LeafGen.store(T.Gen + 1, std::memory_order_relaxed);
    // Queue deepest-flip-first: under the left-to-right default a
    // deeper flip keeps a longer run of 0-decisions, so it is
    // lex-*smaller* — reversing makes FIFO execution track canonical
    // commit order, which keeps the in-flight visited-set fresh and
    // stops speculation from outrunning a canonically early witness.
    // (A wall-clock heuristic only; commit order fixes the results.)
    for (auto It = NewTasks.rbegin(); It != NewTasks.rend(); ++It)
      pushTask(*It, T.Worker);
    // Snapshots past the effective trace (or unmatched) are unusable.
    while (SnapIdx < T.Snaps.size())
      Cache.drop(T.Snaps[SnapIdx++].second);
    T.Snaps.clear();
    T.Stream.clear();
    T.Stream.shrink_to_fit();
  }

  /// Marks the program complete and publishes its aggregate counters.
  /// Called under the commit mutex; the result is final here, so the
  /// per-program wall-clock counters are published too. PeakFrontier is
  /// the pool-wide high-water mark at this moment, not a per-program
  /// count. The completion callback is only *queued* — workers invoke
  /// it outside every scheduler lock.
  void finishProgram(ProgramState &P) {
    P.Result.RunsExplored = P.RunsFinalized;
    P.Result.SnapshotEvictions =
        P.EvictionsAtomic.load(std::memory_order_relaxed);
    P.Result.Steals = P.StealsAtomic.load(std::memory_order_relaxed);
    P.Result.PeakFrontier = static_cast<unsigned>(
        PeakFrontier.load(std::memory_order_relaxed)); // scheduler-wide
    PinnedFinished.fetch_add(1, std::memory_order_relaxed);
    P.Done.store(true);
    if (P.RunsInFlight.load() == 0)
      releasePin(P);
    for (Task &T : P.Arena) {
      if (T.State.load(std::memory_order_acquire) == Task::Queued)
        T.Abandoned.store(true, std::memory_order_release);
      endLag(T);
    }
    DoneDedupHits.fetch_add(P.Result.DedupHits, std::memory_order_relaxed);
    FinishedCount.fetch_add(1, std::memory_order_acq_rel);
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
  /// program completes immediately as fully truncated.
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
    fixNextBudget(P);
    pushTask(&Root, Hint);
  }
};

//===----------------------------------------------------------------------===//
// SearchScheduler
//===----------------------------------------------------------------------===//

SearchScheduler::SearchScheduler(Config Cfg)
    : I(std::make_unique<Impl>(Cfg)) {}

SearchScheduler::~SearchScheduler() { stop(); }

size_t SearchScheduler::submit(std::shared_ptr<const AstContext> Ast,
                               MachineOptions MOpts, SearchOptions SOpts,
                               bool RootGated) {
  Impl &S = *I;
  auto Slot = std::make_unique<ProgramState>();
  ProgramState &P = *Slot;
  P.Ast = Ast.get();
  P.AstPin = std::move(Ast);
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
  P.Id = S.ProgramBase + S.Programs.size();
  S.Programs.push_back(std::move(Slot));
  // SubmittedCount is bumped before seeding so drain() can never
  // observe a submitted-but-unaccounted program.
  S.SubmittedCount.fetch_add(1, std::memory_order_acq_rel);
  S.spawnPool();
  // From outside the pool, programs spread round-robin by id.
  S.seedProgram(P, CurrentPool == &S ? CurrentWorker : P.Id);
  return P.Id;
}

void SearchScheduler::post(std::function<void()> Job) {
  Impl &S = *I;
  {
    std::lock_guard<std::mutex> Lock(S.SubmitMu);
    S.spawnPool();
  }
  {
    std::lock_guard<std::mutex> Lock(S.JobMu);
    S.JobQ.push_back(std::move(Job));
    S.QueuedJobs.fetch_add(1, std::memory_order_acq_rel);
  }
  S.wakeWorker();
}

SearchResult SearchScheduler::takeResult(size_t Program) {
  Impl &S = *I;
  std::lock_guard<std::mutex> Lock(S.SubmitMu);
  ProgramState *P = Program - S.ProgramBase < S.Programs.size()
                        ? S.Programs[Program - S.ProgramBase].get()
                        : nullptr; // unsigned: ids below the base wrap
  assert(P && "takeResult: program unknown or already reclaimed");
  P->ResultTaken = true;
  return std::move(P->Result);
}

SchedulerStats SearchScheduler::stats() const {
  Impl &S = *I;
  // Live snapshot: every field is monotonic (peak included), so two
  // snapshots diff into per-batch numbers.
  SchedulerStats St;
  St.Programs =
      static_cast<unsigned>(S.SubmittedCount.load(std::memory_order_acquire));
  St.Jobs = S.Jobs;
  St.Steals = S.Steals.load(std::memory_order_relaxed);
  St.PeakFrontier = S.PeakFrontier.load(std::memory_order_relaxed);
  St.RunsExecuted = S.RunsExecuted.load(std::memory_order_relaxed);
  St.DedupHits = S.DoneDedupHits.load(std::memory_order_relaxed);
  St.RunsCommitted = S.RunsCommittedTotal.load(std::memory_order_relaxed);
  St.CommitLagPeak = S.CommitLagPeak.load(std::memory_order_relaxed);
  St.CommitLag = S.CommitLag.load(std::memory_order_relaxed);
  const SnapshotCache::Counters SC = S.Cache.counters();
  St.SnapshotEvictions = SC.Evictions;
  St.SnapshotCaptures = SC.Inserts;
  St.SnapshotTakes = SC.Takes;
  St.SnapshotHits = SC.Hits;
  return St;
}

void SearchScheduler::setProgramDoneCallback(std::function<void(size_t)> Fn) {
  assert(I->SubmittedCount.load(std::memory_order_acquire) == 0 &&
         "set the completion callback before the first submit()");
  I->DoneCb = std::move(Fn);
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
  std::unique_lock<std::mutex> Lock(S.SubmitMu);
  for (;;) {
    // Only a fully idle pool is safe: with every program finished, no
    // queued task can spawn children. A queued job may submit one.
    if (S.FinishedCount.load(std::memory_order_acquire) !=
            S.SubmittedCount.load(std::memory_order_acquire) ||
        S.QueuedJobs.load(std::memory_order_acquire) > 0)
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
    if (S.InFlight.load(std::memory_order_acquire) == 0)
      break;
    // Workers may still hold a popped (cancelling) run, whose machine
    // stops at the next cancel check, or a job's last steps. The wait
    // releases SubmitMu: a running job may be submitting.
    Lock.unlock();
    std::this_thread::yield();
    Lock.lock();
  }
  for (auto &Slot : S.Programs) {
    if (!Slot || !Slot->ResultTaken)
      continue;
    // Executed-but-never-finalized tasks (overtaken by an early UB
    // winner) still pin their mid-run snapshot captures. A reused pool
    // must sweep them here or they evict the next batch's snapshots
    // and silently degrade forks into replays.
    for (Task &T : Slot->Arena) {
      S.Cache.drop(T.SnapId);
      for (const auto &[Depth, Id] : T.Snaps)
        S.Cache.drop(Id);
    }
    Slot.reset();
  }
  // Ids stay monotonic: reclaimed slots leave the front behind a base.
  for (; !S.Programs.empty() && !S.Programs.front(); ++S.ProgramBase)
    S.Programs.pop_front();
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
  M.PinnedFinished = S.PinnedFinished.load(std::memory_order_relaxed);
  return M;
}

void SearchScheduler::stop() {
  Impl &S = *I;
  S.Stopping.store(true, std::memory_order_release);
  S.wakeAllWorkers();
  // Join outside SubmitMu: a retiring worker may still be running a
  // completion callback that re-enters submit().
  std::vector<std::thread> Pool;
  {
    std::lock_guard<std::mutex> Lock(S.SubmitMu);
    Pool.swap(S.Threads);
  }
  for (std::thread &T : Pool)
    T.join();
}
