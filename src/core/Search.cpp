//===- core/Search.cpp - Parallel search over evaluation orders --------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// Wave-synchronous parallel enumeration with fingerprint deduplication
// and fork-at-choice-point scheduling. Key invariants (docs/SEARCH.md
// has the full argument):
//
//  * Tree: a prefix's run executes its pinned decisions, then continues
//    with the policy default; its children flip one later flippable
//    choice point each. Every decision vector is reachable through
//    exactly one chain of prefixes, so enumeration is complete.
//  * Start-mode equivalence: a run may start by forking the snapshot
//    its parent captured at the flipped choice point, or by replaying
//    its prefix from main(). A snapshot restores the exact pre-step
//    configuration and chooser, so both modes execute the identical
//    step sequence from the divergence on — same trace, same
//    fingerprint stream, same verdict. Which mode runs is a pure
//    wall-clock concern (the equivalence suite asserts this).
//  * Dedup soundness: a state is inserted into the visited-set only
//    when every alternative branching off the path that reached it has
//    been scheduled (children are spawned from the full recorded trace
//    even for runs the dedup cancelled). Hence "fingerprint present"
//    implies "subtree scheduled", and cancelling the second visit of a
//    state loses nothing.
//  * Determinism: a run's outcome depends only on (prefix, visited-set
//    committed at the previous barrier); prefixes of one wave are
//    prefix-incomparable, so the canonical (lex) order is total and the
//    minimal UB prefix of the first undefined wave is independent of
//    thread count and scheduling. Skipping or cancelling runs that are
//    canonically larger than a found witness cannot change the result.
//
//===----------------------------------------------------------------------===//

#include "core/Search.h"

#include "core/Scheduler.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_set>

using namespace cundef;

namespace {

/// What a child needs to become a run: its pinned prefix, and (when its
/// parent's capture is still in the LRU cache) the handle of the
/// snapshot taken at its flipped choice point.
struct ChildSeed {
  std::vector<uint8_t> Pinned;
  uint64_t SnapId = 0;
};

/// One frontier entry and everything its run produced.
struct WorkItem {
  std::vector<uint8_t> Pinned;
  /// Snapshot-cache handle to fork from (0, or an entry the cache has
  /// since evicted: replay Pinned from main()).
  uint64_t SnapId = 0;

  // Outputs of the run.
  RunStatus Status = RunStatus::Running;
  bool UbFound = false;
  bool DedupAborted = false;
  bool Forked = false;
  std::vector<UbReport> Reports;
  /// (decision, arity) trace of the run (kept for child construction
  /// and CollectRuns).
  std::vector<std::pair<uint8_t, uint8_t>> Trace;
  /// (depth, fingerprint) pairs observed at flippable choice points at
  /// or beyond the divergence; committed to the visited-set at the
  /// barrier.
  std::vector<std::pair<size_t, uint64_t>> Visited;
  /// Snapshot-cache handles captured during the run, one per flippable
  /// choice point at or beyond the divergence (ascending depth; gaps
  /// where a zero-capacity cache or a sync call suppressed capture).
  std::vector<std::pair<size_t, uint64_t>> Snaps;
  /// Fingerprint at the divergence point (depth == Pinned.size()), used
  /// to group in-wave twins. Valid when HasDivergence.
  uint64_t DivergenceFp = 0;
  bool HasDivergence = false;
  /// Root only: program-visible results of the default-order run.
  std::string Output;
  int ExitCode = 0;
  /// Children seeds spawned from the recorded trace.
  std::vector<ChildSeed> Children;
};

bool lexLess(const std::vector<uint8_t> &A, const std::vector<uint8_t> &B) {
  return std::lexicographical_compare(A.begin(), A.end(), B.begin(), B.end());
}

} // namespace

SearchResult OrderSearch::run() {
  SearchScheduler::Config Cfg;
  Cfg.Jobs = Opts.Jobs;
  Cfg.SnapshotBudget = Opts.SnapshotBudget;
  SearchScheduler Scheduler(Cfg);
  // Ctx outlives the scheduler, whose destructor joins the pool.
  size_t Prog = Scheduler.submit(
      std::shared_ptr<const AstContext>(std::shared_ptr<void>(), &Ctx),
      BaseOpts, Opts);
  Scheduler.drain();
  return Scheduler.takeResult(Prog);
}

// The wave engine: the reference implementation the scheduler's
// committed outputs are tested against byte-for-byte.
SearchResult OrderSearch::runReference() {
  SearchResult Result;

  // Replay reproduces a Random-policy run only as its 0/1 flip summary,
  // not its Fisher-Yates stream: a child replaying a prefix leaves the
  // RNG behind the parent's position, so "same fingerprint => same
  // future" does not hold across the policy's own shuffles, and a
  // forked child's RNG position would differ from a replayed one's.
  // Dedup and snapshots are therefore gated to deterministic policies.
  const bool Dedup =
      Opts.Dedup && BaseOpts.Order != EvalOrderKind::Random;
  // Declarative-style monitors keep sequencing state outside the
  // configuration, which a snapshot cannot capture.
  const bool Snapshots = Opts.UseSnapshots &&
                         BaseOpts.Order != EvalOrderKind::Random &&
                         BaseOpts.Style != RuleStyle::Declarative;

  // LRU cache of choice-point snapshots (replaces the admission-only
  // budget: captures are always admitted, the oldest pending snapshot
  // is evicted instead, and its child replays).
  SnapshotCache Cache(Opts.SnapshotBudget);
  std::atomic<unsigned> Evictions{0};
  std::vector<WorkItem> Wave(1); // root: empty prefix = the policy order
  std::unordered_set<uint64_t> Committed;
  std::atomic<unsigned> RunsStarted{0};
  // Index (within the current sorted wave) of the canonically smallest
  // prefix known to be undefined; runs at larger indices cannot win and
  // are skipped or cancelled.
  std::atomic<size_t> BestIdx{SIZE_MAX};

  const unsigned Jobs =
      Opts.Jobs ? Opts.Jobs : std::max(1u, std::thread::hardware_concurrency());

  // Runs one frontier entry to completion (or cancellation) on the
  // calling thread. Pure function of (Item, Committed, BestIdx); the
  // only shared writes are the atomics.
  auto processItem = [&](WorkItem &Item, size_t MyIdx) {
    const size_t PinnedLen = Item.Pinned.size();
    UbSink Sink;
    std::unique_ptr<MachineSnapshot> Snap = Cache.take(Item.SnapId);
    std::unique_ptr<Machine> Run;
    if (Snapshots && Snap) {
      Run = std::make_unique<Machine>(Ctx, BaseOpts, Sink, *Snap,
                                      Item.Pinned);
      Item.Forked = true;
    } else {
      Run = std::make_unique<Machine>(Ctx, BaseOpts, Sink);
      Run->setReplayDecisions(Item.Pinned);
    }
    Machine &M = *Run;

    M.setCancelCheck(
        [&]() { return BestIdx.load(std::memory_order_relaxed) < MyIdx; });

    if (Snapshots)
      M.setBeforeChoiceHook([&](Machine &Mach, unsigned) {
        const size_t Depth = Mach.decisionTrace().size();
        if (Depth < PinnedLen || Mach.inSyncCall())
          return;
        uint64_t Id = Cache.insert(Mach.captureChoiceSnapshot(), &Evictions);
        if (Id)
          Item.Snaps.emplace_back(Depth, Id);
      });

    M.setChoiceHook([&](Machine &Mach) {
      if (BestIdx.load(std::memory_order_relaxed) < MyIdx)
        return false; // a canonically smaller witness exists
      const auto &Trace = Mach.decisionTrace();
      const size_t Depth = Trace.size();
      if (Depth < std::max<size_t>(PinnedLen, 1))
        return true; // still inside the parent's already-explored path
      if (Trace.back().second < 2)
        return true; // forced point: nothing branches here
      const uint64_t Fp = Opts.FullRehash ? Mach.configFingerprintFull()
                                          : Mach.configFingerprint();
      if (Depth == PinnedLen) {
        Item.DivergenceFp = Fp;
        Item.HasDivergence = true;
      }
      if (Dedup && Committed.count(searchVisitKey(Depth, Fp))) {
        Item.DedupAborted = true; // state already reached by an earlier
        return false;             // prefix: this subtree is redundant
      }
      Item.Visited.emplace_back(Depth, Fp);
      return true;
    });

    Item.Status = Item.Forked ? M.resume() : M.run();
    Item.Trace = M.decisionTrace();
    if (PinnedLen == 0) {
      Item.Output = M.config().Output;
      Item.ExitCode = M.config().ExitCode;
    }
    Item.UbFound = Item.Status == RunStatus::UbDetected || !Sink.empty();
    if (Item.UbFound) {
      Item.Reports = Sink.all();
      for (const auto &[Depth, Id] : Item.Snaps)
        Cache.drop(Id); // no subtree will be spawned
      Item.Snaps.clear();
      // CAS-min: record the smallest undefined index of this wave.
      size_t Seen = BestIdx.load(std::memory_order_relaxed);
      while (MyIdx < Seen &&
             !BestIdx.compare_exchange_weak(Seen, MyIdx,
                                            std::memory_order_relaxed))
        ;
      return;
    }

    // Spawn one child per flippable choice point at or beyond the
    // divergence — from the full recorded trace, even when the run was
    // cancelled by the dedup: alternatives branching off the cancelled
    // path before the duplicate state are not covered by the earlier
    // visit and must still be scheduled. Each child takes the snapshot
    // captured at its choice point (if one was) and will fork there
    // instead of replaying the shared prefix.
    size_t SnapIdx = 0;
    for (size_t D = PinnedLen; D < Item.Trace.size(); ++D) {
      while (SnapIdx < Item.Snaps.size() && Item.Snaps[SnapIdx].first < D)
        Cache.drop(Item.Snaps[SnapIdx++].second);
      if (Item.Trace[D].second < 2)
        continue;
      ChildSeed Seed;
      Seed.Pinned.reserve(D + 1);
      for (size_t I = 0; I < D; ++I)
        Seed.Pinned.push_back(Item.Trace[I].first);
      Seed.Pinned.push_back(Item.Trace[D].first ? 0 : 1);
      if (SnapIdx < Item.Snaps.size() && Item.Snaps[SnapIdx].first == D)
        Seed.SnapId = Item.Snaps[SnapIdx++].second;
      Item.Children.push_back(std::move(Seed));
    }
    while (SnapIdx < Item.Snaps.size())
      Cache.drop(Item.Snaps[SnapIdx++].second);
    Item.Snaps.clear();
  };

  // Appends CollectRuns records for a processed wave, in sorted wave
  // order (deterministic at Jobs=1).
  auto recordWave = [&](std::vector<WorkItem> &Wave) {
    if (!Opts.CollectRuns)
      return;
    for (WorkItem &Item : Wave) {
      if (Item.Status == RunStatus::Running)
        continue; // never ran
      SearchRunRecord Rec;
      Rec.Pinned = Item.Pinned;
      Rec.Trace = Item.Trace;
      Rec.FpStream.reserve(Item.Visited.size());
      for (const auto &[Depth, Fp] : Item.Visited)
        Rec.FpStream.emplace_back(Depth, Fp);
      Rec.Status = Item.Status;
      Rec.DedupAborted = Item.DedupAborted;
      Rec.Forked = Item.Forked;
      Result.Runs.push_back(std::move(Rec));
    }
  };

  while (!Wave.empty() && RunsStarted.load() < Opts.MaxRuns) {
    ++Result.Waves;
    Result.PeakFrontier = std::max(Result.PeakFrontier,
                                   static_cast<unsigned>(Wave.size()));
    std::sort(Wave.begin(), Wave.end(),
              [](const WorkItem &A, const WorkItem &B) {
                return lexLess(A.Pinned, B.Pinned);
              });
    const unsigned Budget = Opts.MaxRuns - RunsStarted.load();
    if (Wave.size() > Budget) {
      // Budget edge: everything cut here is an unexplored subtree the
      // caller must know about — a clean verdict is not exhaustive.
      Result.FrontierTruncated = true;
      Result.DroppedSubtrees +=
          static_cast<unsigned>(Wave.size() - Budget);
      for (size_t I = Budget; I < Wave.size(); ++I)
        Cache.drop(Wave[I].SnapId);
      Wave.resize(Budget);
    }
    BestIdx.store(SIZE_MAX, std::memory_order_relaxed);

    if (Jobs == 1 || Wave.size() == 1) {
      for (size_t I = 0; I < Wave.size(); ++I) {
        RunsStarted.fetch_add(1);
        processItem(Wave[I], I);
        if (BestIdx.load(std::memory_order_relaxed) != SIZE_MAX)
          break; // smaller indices all ran: the minimum is final
      }
    } else {
      std::atomic<size_t> Next{0};
      auto Worker = [&]() {
        for (;;) {
          size_t I = Next.fetch_add(1);
          if (I >= Wave.size())
            return;
          // Skip runs that can no longer produce the minimal witness.
          if (BestIdx.load(std::memory_order_relaxed) < I)
            continue;
          RunsStarted.fetch_add(1);
          processItem(Wave[I], I);
        }
      };
      std::vector<std::thread> Threads;
      const unsigned N = std::min<size_t>(Jobs, Wave.size());
      Threads.reserve(N);
      for (unsigned T = 0; T < N; ++T)
        Threads.emplace_back(Worker);
      for (std::thread &T : Threads)
        T.join();
    }

    for (WorkItem &Item : Wave) {
      if (Item.Forked)
        ++Result.ForkedRuns;
      if (Item.Pinned.empty() && Item.Status != RunStatus::Running) {
        Result.RootStatus = Item.Status;
        Result.RootOutput = std::move(Item.Output);
        Result.RootExitCode = Item.ExitCode;
      }
    }

    // ---- Barrier: aggregate deterministically (single-threaded). ----
    recordWave(Wave);
    const size_t Win = BestIdx.load(std::memory_order_relaxed);
    if (Win != SIZE_MAX) {
      WorkItem &Winner = Wave[Win];
      Result.UbFound = true;
      Result.Reports = std::move(Winner.Reports);
      Result.Witness = std::move(Winner.Pinned);
      Result.LastStatus = Winner.Status;
      Result.RunsExplored = RunsStarted.load();
      Result.SnapshotEvictions = Evictions.load(std::memory_order_relaxed);
      return Result;
    }

    // Group in-wave twins by divergence state: items whose divergence
    // fingerprints collide at equal depth share their entire subtree;
    // only the canonically smallest (= lowest index, the wave is
    // sorted) keeps its children.
    std::unordered_set<uint64_t> SeenDivergence;
    std::vector<WorkItem> NextWave;
    for (WorkItem &Item : Wave) {
      if (Item.Status == RunStatus::Running) {
        // Skipped after cancellation: never ran, subtree unexplored (no
        // UB wave reaches here, so this only happens on budget edges).
        Result.FrontierTruncated = true;
        ++Result.DroppedSubtrees;
        Cache.drop(Item.SnapId);
        continue;
      }
      if (Item.Status != RunStatus::Completed &&
          Item.Status != RunStatus::Cancelled)
        Result.LastStatus = Item.Status; // surface StepLimit/Internal/…
      if (Item.DedupAborted)
        ++Result.DedupHits;
      if (Dedup) {
        for (const auto &[Depth, Fp] : Item.Visited)
          Committed.insert(searchVisitKey(Depth, Fp));
        if (Item.HasDivergence) {
          uint64_t Key = searchVisitKey(Item.Pinned.size(), Item.DivergenceFp);
          if (!SeenDivergence.insert(Key).second) {
            ++Result.SubtreesPruned; // in-wave twin: drop its mirror
            for (const ChildSeed &Child : Item.Children) // subtree
              Cache.drop(Child.SnapId);
            continue;
          }
        }
      }
      for (ChildSeed &Child : Item.Children) {
        NextWave.emplace_back();
        NextWave.back().Pinned = std::move(Child.Pinned);
        NextWave.back().SnapId = Child.SnapId;
      }
    }
    Wave = std::move(NextWave);
  }

  if (!Wave.empty()) {
    // The budget ran out with children still unexplored.
    Result.FrontierTruncated = true;
    Result.DroppedSubtrees += static_cast<unsigned>(Wave.size());
  }
  Result.RunsExplored = RunsStarted.load();
  Result.SnapshotEvictions = Evictions.load(std::memory_order_relaxed);
  return Result;
}
