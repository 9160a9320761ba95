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
/// A copy costs one allocation per non-empty cell (every map and set
/// cell is a sorted vector, FlatMap or LocSet), one per frame's env
/// and parameter list, one per LeaveBlock/CallReturn item on the k
/// stack, and one reference-count increment per memory object (the mem
/// cell shares objects copy-on-write, mem/SymbolicMemory.h). Operand
/// lists in flight add nothing: their results wait on the value stack
/// and their orders are inline. The cells that change on every step (k
/// stack, sequencing sets, memory, frames) keep incremental or lazily
/// extended digests, so fingerprint() is O(what changed since the last
/// one), not O(total state).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_CONFIGURATION_H
#define CUNDEF_CORE_CONFIGURATION_H

#include "core/KItem.h"
#include "mem/SymbolicMemory.h"
#include "support/Strings.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace cundef {

/// A byte location (base, offset): the elements of the locsWrittenTo
/// and notWritable cells.
using ByteLoc = std::pair<uint32_t, int64_t>;

/// Content digest of one k item (implemented in core/Fingerprint.cpp,
/// next to the value hashing it depends on).
uint64_t kItemDigest(const KItem &Item);

/// A map kept as a vector of (key, value) pairs sorted by key. A copy
/// is one allocation instead of one per entry, and iteration runs in
/// key order exactly as std::map's does, so fingerprints are the same
/// whichever backs a cell. The cells it backs are small (a frame's
/// locals, globals, functions, literals, heap regions) and grow mostly
/// at the end, since object ids only increase. HeapEffectiveTy, the one
/// that grows with the program's data, held at most 15 records over the
/// desktop suite and the generated Juliet programs, all of them
/// appended at the end; a rewrite at the same offset updates in place.
template <typename KeyT, typename ValueT> class FlatMap {
public:
  using value_type = std::pair<KeyT, ValueT>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator lower_bound(const KeyT &Key) {
    return std::lower_bound(Items.begin(), Items.end(), Key, keyLess);
  }
  const_iterator lower_bound(const KeyT &Key) const {
    return std::lower_bound(Items.begin(), Items.end(), Key, keyLess);
  }
  iterator find(const KeyT &Key) {
    iterator It = lower_bound(Key);
    return It != Items.end() && It->first == Key ? It : Items.end();
  }
  const_iterator find(const KeyT &Key) const {
    const_iterator It = lower_bound(Key);
    return It != Items.end() && It->first == Key ? It : Items.end();
  }
  ValueT &operator[](const KeyT &Key) {
    iterator It = lower_bound(Key);
    if (It == Items.end() || It->first != Key)
      It = Items.emplace(It, Key, ValueT());
    return It->second;
  }
  iterator erase(iterator It) { return Items.erase(It); }
  size_t size() const { return Items.size(); }
  bool empty() const { return Items.empty(); }
  iterator begin() { return Items.begin(); }
  iterator end() { return Items.end(); }
  const_iterator begin() const { return Items.begin(); }
  const_iterator end() const { return Items.end(); }

private:
  static bool keyLess(const value_type &Item, const KeyT &Key) {
    return std::less<KeyT>()(Item.first, Key);
  }
  std::vector<value_type> Items;
};

/// The k cell: a stack of KItems, each stored with the digest of the
/// stack up to and including it, so that the whole cell's digest is the
/// top item's. The prefix digests are filled in lazily: pushes do not
/// hash, and digest() extends them from the first unhashed item. Items
/// pushed and popped between two fingerprints (most of them: a choice
/// point is many steps from the next) are never hashed at all.
///
/// digest() writes the mutable prefix cache from a const path, like a
/// frame's cached digest: only the thread running a machine
/// fingerprints its configuration, and snapshots are only copied.
class KCell {
public:
  KCell() = default;
  /// A copied vector's capacity equals its size, so the first push after
  /// a snapshot capture or a fork would reallocate and move the whole
  /// stack. Copies reserve a little headroom instead.
  KCell(const KCell &Other) : Hashed(Other.Hashed) {
    Items.reserve(Other.Items.size() + CopyHeadroom);
    Items.assign(Other.Items.begin(), Other.Items.end());
  }
  KCell(KCell &&Other) noexcept
      : Items(std::move(Other.Items)), Hashed(std::exchange(Other.Hashed, 0)) {}
  KCell &operator=(const KCell &) = default;
  /// Leaves \p Other empty, with no prefix digest claimed valid.
  KCell &operator=(KCell &&Other) noexcept {
    Items = std::move(Other.Items);
    Other.Items.clear();
    Hashed = std::exchange(Other.Hashed, 0);
    return *this;
  }

  void push_back(KItem Item) { Items.emplace_back(std::move(Item)); }
  void pop_back() {
    Items.pop_back();
    Hashed = std::min(Hashed, Items.size());
  }
  /// Moves the top item out and pops it (the step loop's idiom).
  KItem take() {
    KItem Item = std::move(Items.back().Item);
    pop_back();
    return Item;
  }
  const KItem &back() const { return Items.back().Item; }
  /// The top item for an update in place (an operand list advancing to
  /// its next operand). Drops the item's prefix digest, so the next
  /// digest() rehashes it.
  KItem &mutableBack() {
    Hashed = std::min(Hashed, Items.size() - 1);
    return Items.back().Item;
  }
  bool empty() const { return Items.empty(); }
  size_t size() const { return Items.size(); }

  /// Digest of the whole stack; hashes only the items pushed since the
  /// last call (that are still on the stack).
  uint64_t digest() const {
    uint64_t D = Hashed ? Items[Hashed - 1].Prefix : Seed;
    for (; Hashed < Items.size(); ++Hashed)
      Items[Hashed].Prefix = D = combine(D, kItemDigest(Items[Hashed].Item));
    return D;
  }
  /// Reference recomputation from scratch, bypassing the prefix cache;
  /// always equals digest() (tested).
  uint64_t computeDigest() const {
    uint64_t D = Seed;
    for (const Entry &E : Items)
      D = combine(D, kItemDigest(E.Item));
    return D;
  }

private:
  static constexpr uint64_t Seed = 0x243f6a8885a308d3ull;
  static constexpr size_t CopyHeadroom = 8;
  static uint64_t combine(uint64_t Prefix, uint64_t Item) {
    WordHasher H(Prefix);
    H.u64(Item);
    return H.digest();
  }
  struct Entry {
    explicit Entry(KItem &&Item) : Item(std::move(Item)) {}
    KItem Item;
    /// Digest of the stack up to and including Item; valid for the
    /// first Hashed entries.
    mutable uint64_t Prefix = 0;
  };
  std::vector<Entry> Items;
  mutable size_t Hashed = 0;
};

/// A set of byte locations with an incrementally maintained multiset
/// digest (sum of mixed item hashes — order-independent, exact under
/// insert/clear). Backs the locsWrittenTo and notWritable cells, whose
/// membership changes every write/sequence point. A sorted vector:
/// locsWrittenTo holds a handful of bytes between sequence points and
/// clear() keeps the capacity, so steady-state writes do not allocate.
class LocSet {
public:
  bool insert(ByteLoc Loc) {
    auto It = std::lower_bound(Locs.begin(), Locs.end(), Loc);
    if (It != Locs.end() && *It == Loc)
      return false;
    Locs.insert(It, Loc);
    Sum += itemHash(Loc);
    return true;
  }
  void clear() {
    Locs.clear();
    Sum = 0;
  }
  size_t count(ByteLoc Loc) const {
    return std::binary_search(Locs.begin(), Locs.end(), Loc);
  }
  size_t size() const { return Locs.size(); }
  auto begin() const { return Locs.begin(); }
  auto end() const { return Locs.end(); }
  uint64_t digest() const { return Sum; }
  /// Reference recomputation (must equal digest(); tested).
  uint64_t computeDigest() const {
    uint64_t D = 0;
    for (const ByteLoc &Loc : Locs)
      D += itemHash(Loc);
    return D;
  }

private:
  static uint64_t itemHash(ByteLoc Loc) {
    return mix64((static_cast<uint64_t>(Loc.first) << 32) ^
                 (static_cast<uint64_t>(Loc.second) * 0x9e3779b97f4a7c15ull));
  }
  std::vector<ByteLoc> Locs;
  uint64_t Sum = 0;
};

/// One activation record: the env cell of a control context plus the
/// bookkeeping needed to end parameter lifetimes.
struct Frame {
  const FunctionDecl *Fn = nullptr;
  /// env: declaration -> object id.
  FlatMap<uint32_t, uint32_t> Env;
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
  FlatMap<uint32_t, uint32_t> GlobalEnv; ///< DeclId -> object id

  // --- <mem> -----------------------------------------------------------
  SymbolicMemory Mem;

  // --- <locsWrittenTo> / <notWritable> (paper section 4.2) -------------
  LocSet LocsWrittenTo;
  LocSet NotWritable;

  // --- <callStack> + <control> -----------------------------------------
  std::vector<Frame> CallStack;

  // --- Bookkeeping cells ------------------------------------------------
  /// Function pseudo-objects (function designators' addresses).
  FlatMap<const FunctionDecl *, uint32_t> FuncObjects;
  FlatMap<uint32_t, const FunctionDecl *> FuncByObject;
  /// String literal objects, cached per occurrence.
  FlatMap<const Expr *, uint32_t> LiteralObjects;
  /// Heap storage's effective types, per (object, offset) region --
  /// "the effective type of the object for that access ... becomes the
  /// effective type" (C11 6.5p6). Declared objects use their layout.
  FlatMap<ByteLoc, const Type *> HeapEffectiveTy;

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
