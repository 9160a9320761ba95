//===- core/Configuration.h - The C configuration --------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine state, organized as the paper's configuration of labeled
/// cells (Figure 1):
///
///   < <K>k  <Map>genv  <Set>locsWrittenTo  <Set>notWritable  <Map>mem
///     < <Map>env ... >control  <List>callStack ... >T
///
/// The whole configuration is a value type: search over unspecified
/// evaluation orders clones it at choice points (paper section 2.5.2).
/// A copy costs one allocation per cell plus one reference-count
/// increment per memory object (the mem cell shares objects
/// copy-on-write, mem/SymbolicMemory.h); map and set cells and the
/// vectors inside k items still allocate per entry. The cells that
/// change on every step (k stack, sequencing sets, memory, frames)
/// maintain incremental digests so fingerprint() is O(what changed), not
/// O(total state).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_CONFIGURATION_H
#define CUNDEF_CORE_CONFIGURATION_H

#include "core/KItem.h"
#include "mem/SymbolicMemory.h"
#include "support/Strings.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace cundef {

/// A byte location (base, offset): the elements of the locsWrittenTo
/// and notWritable cells.
using ByteLoc = std::pair<uint32_t, int64_t>;

/// Content digest of one k item (implemented in core/Fingerprint.cpp,
/// next to the value hashing it depends on).
uint64_t kItemDigest(const KItem &Item);

/// The k cell: a stack of KItems plus, when tracking is enabled, a
/// parallel stack of prefix digests so that the whole cell's digest is
/// the top entry — O(1) at fingerprint time, O(one item) per push.
/// Tracking is enabled by machines that fingerprint (the search);
/// ordinary runs skip the per-push hashing entirely.
class KCell {
public:
  KCell() = default;
  /// A copied vector's capacity equals its size, so the first push after
  /// a snapshot capture or a fork would reallocate and move the whole
  /// stack. Copies reserve a little headroom instead.
  KCell(const KCell &Other) : Tracking(Other.Tracking) {
    Items.reserve(Other.Items.size() + CopyHeadroom);
    Items.assign(Other.Items.begin(), Other.Items.end());
    if (Tracking) {
      Digests.reserve(Other.Digests.size() + CopyHeadroom);
      Digests.assign(Other.Digests.begin(), Other.Digests.end());
    }
  }
  KCell(KCell &&) = default;
  KCell &operator=(const KCell &) = default;
  KCell &operator=(KCell &&) = default;

  void push_back(KItem Item) {
    if (Tracking)
      Digests.push_back(combine(digest(), kItemDigest(Item)));
    Items.push_back(std::move(Item));
  }
  void pop_back() {
    Items.pop_back();
    if (Tracking)
      Digests.pop_back();
  }
  /// Moves the top item out and pops it (the step loop's idiom; a
  /// mutable back() would silently stale the prefix digests).
  KItem take() {
    KItem Item = std::move(Items.back());
    pop_back();
    return Item;
  }
  const KItem &back() const { return Items.back(); }
  bool empty() const { return Items.empty(); }
  size_t size() const { return Items.size(); }
  const std::vector<KItem> &items() const { return Items; }

  /// Digest of the whole stack (valid whenever Tracking).
  uint64_t digest() const { return Digests.empty() ? Seed : Digests.back(); }
  /// Reference recomputation from scratch; always equals digest() while
  /// tracking (tested), and is the fallback when not.
  uint64_t computeDigest() const {
    uint64_t D = Seed;
    for (const KItem &Item : Items)
      D = combine(D, kItemDigest(Item));
    return D;
  }
  bool tracking() const { return Tracking; }
  /// Turns on incremental digests, backfilling for any current items.
  void enableTracking() {
    if (Tracking)
      return;
    Tracking = true;
    Digests.clear();
    Digests.reserve(Items.size());
    uint64_t D = Seed;
    for (const KItem &Item : Items)
      Digests.push_back(D = combine(D, kItemDigest(Item)));
  }

private:
  static constexpr uint64_t Seed = 0x243f6a8885a308d3ull;
  static constexpr size_t CopyHeadroom = 8;
  static uint64_t combine(uint64_t Prefix, uint64_t Item) {
    return mix64(Prefix * 0x100000001b3ull ^ Item);
  }
  std::vector<KItem> Items;
  std::vector<uint64_t> Digests;
  bool Tracking = false;
};

/// A set of byte locations with an incrementally maintained multiset
/// digest (sum of mixed item hashes — order-independent, exact under
/// insert/clear). Backs the locsWrittenTo and notWritable cells, whose
/// membership changes every write/sequence point.
class LocSet {
public:
  bool insert(ByteLoc Loc) {
    if (!Set.insert(Loc).second)
      return false;
    Sum += itemHash(Loc);
    return true;
  }
  void clear() {
    Set.clear();
    Sum = 0;
  }
  size_t count(ByteLoc Loc) const { return Set.count(Loc); }
  size_t size() const { return Set.size(); }
  auto begin() const { return Set.begin(); }
  auto end() const { return Set.end(); }
  uint64_t digest() const { return Sum; }
  /// Reference recomputation (must equal digest(); tested).
  uint64_t computeDigest() const {
    uint64_t D = 0;
    for (const ByteLoc &Loc : Set)
      D += itemHash(Loc);
    return D;
  }

private:
  static uint64_t itemHash(ByteLoc Loc) {
    return mix64((static_cast<uint64_t>(Loc.first) << 32) ^
                 (static_cast<uint64_t>(Loc.second) * 0x9e3779b97f4a7c15ull));
  }
  std::set<ByteLoc> Set;
  uint64_t Sum = 0;
};

/// One activation record: the env cell of a control context plus the
/// bookkeeping needed to end parameter lifetimes.
struct Frame {
  const FunctionDecl *Fn = nullptr;
  /// env: declaration -> object id.
  std::map<uint32_t, uint32_t> Env;
  std::vector<uint32_t> ParamObjects;
  /// Variadic tail of the active call (used by printf-style builtins).
  std::vector<Value> VarArgs;
  SourceLoc CallLoc;

  /// Cached frame digest; any mutable access through
  /// Configuration::frame() conservatively invalidates it, so at
  /// fingerprint time only frames touched since the last fingerprint
  /// are rehashed. Content-determined, so copies keep it.
  mutable uint64_t Digest = 0;
  mutable bool DigestValid = false;
};

/// Why the machine stopped.
enum class RunStatus : uint8_t {
  Running,
  Completed,  ///< main returned or exit() was called
  UbDetected, ///< a strict rule got stuck / reported undefinedness
  Fault,      ///< the permissive machine hit a hardware fault (SEGV)
  StepLimit,  ///< ran out of fuel (possibly non-terminating program)
  Internal,   ///< the machine could not proceed (an interpreter bug)
  Cancelled,  ///< stopped from outside (search dedup or cancellation)
};

inline constexpr EnumName<RunStatus> RunStatusNames[] = {
    {RunStatus::Running, "running"},     {RunStatus::Completed, "completed"},
    {RunStatus::UbDetected, "ub-detected"}, {RunStatus::Fault, "fault"},
    {RunStatus::StepLimit, "step-limit"}, {RunStatus::Internal, "internal"},
    {RunStatus::Cancelled, "cancelled"}};

/// The full configuration.
struct Configuration {
  // --- <k> and its value stack ---------------------------------------
  KCell K;
  std::vector<Value> Values;

  // --- <genv> ----------------------------------------------------------
  std::map<uint32_t, uint32_t> GlobalEnv; ///< DeclId -> object id

  // --- <mem> -----------------------------------------------------------
  SymbolicMemory Mem;

  // --- <locsWrittenTo> / <notWritable> (paper section 4.2) -------------
  LocSet LocsWrittenTo;
  LocSet NotWritable;

  // --- <callStack> + <control> -----------------------------------------
  std::vector<Frame> CallStack;

  // --- Bookkeeping cells ------------------------------------------------
  /// Function pseudo-objects (function designators' addresses).
  std::map<const FunctionDecl *, uint32_t> FuncObjects;
  std::map<uint32_t, const FunctionDecl *> FuncByObject;
  /// String literal objects, cached per occurrence.
  std::map<const Expr *, uint32_t> LiteralObjects;
  /// Heap storage's effective types, per (object, offset) region --
  /// "the effective type of the object for that access ... becomes the
  /// effective type" (C11 6.5p6). Declared objects use their layout.
  std::map<ByteLoc, const Type *> HeapEffectiveTy;

  // --- Program-visible results ------------------------------------------
  std::string Output; ///< bytes written by printf and friends
  int ExitCode = 0;
  RunStatus Status = RunStatus::Running;
  uint64_t Steps = 0;
  /// rand()'s deterministic state (part of the configuration so that
  /// search replays are reproducible).
  uint32_t RandState = 12345;

  /// Mutable access to the innermost frame. Conservatively invalidates
  /// that frame's cached digest: callers may mutate anything behind the
  /// reference.
  Frame &frame() {
    Frame &F = CallStack.back();
    F.DigestValid = false;
    return F;
  }
  const Frame &frame() const { return CallStack.back(); }

  /// Looks up a variable's object: innermost frame env, then genv.
  /// Returns 0 when unbound.
  uint32_t lookup(uint32_t DeclId) const {
    if (!CallStack.empty()) {
      auto It = CallStack.back().Env.find(DeclId);
      if (It != CallStack.back().Env.end())
        return It->second;
    }
    auto It = GlobalEnv.find(DeclId);
    return It == GlobalEnv.end() ? 0 : It->second;
  }

  /// Renders the cell structure (used by bench_fig1_config to reproduce
  /// Figure 1).
  std::string describeCells() const;

  /// A 64-bit digest of everything that can influence the machine's
  /// future behavior. The evaluation-order search keys its visited-set
  /// on this (core/Search.h): two interleavings whose configurations
  /// fingerprint equal at the same decision depth share all subsequent
  /// behavior, so their subtrees are explored once. Deliberately
  /// excluded: Steps (only reachable effect is the step limit, which is
  /// a budget rather than a behavior) and Output (append-only; it never
  /// feeds back into control flow). Implemented in core/Fingerprint.cpp.
  ///
  /// Incremental: the k cell, sequencing sets, memory objects, and
  /// frames contribute cached/incrementally-maintained digests, so the
  /// cost is proportional to what changed since the last fingerprint.
  uint64_t fingerprint() const;

  /// The same digest recomputed from scratch, bypassing every cache.
  /// Always equals fingerprint(); the equivalence is the correctness
  /// argument for the caches and is asserted by tests.
  uint64_t fingerprintFull() const;
};

} // namespace cundef

#endif // CUNDEF_CORE_CONFIGURATION_H
