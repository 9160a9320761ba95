//===- support/ContentCache.h - Sharded singleflight LRU cache --*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's one content-addressed cache. driver/Engine.cpp puts an
/// instance in front of each pipeline stage: translation artifacts keyed
/// by TranslationKey, and completed search outcomes keyed by ResultKey.
/// Repeat traffic — regenerated suite cases, duplicate files in a batch,
/// resubmissions to a long-lived kcc-serve — pays each stage once per
/// key, and every caller shares one immutable value.
///
/// Semantics:
///
///  * **Singleflight.** Concurrent lookups of one key do the work once.
///    The first begin() claims the key as Owner; later callers either
///    Hit the ready value or Join the in-flight entry by registering a
///    waiter. The owner's publish() fires every waiter with the shared
///    value, outside every cache lock. The work itself runs outside all
///    cache locks, so distinct keys never serialize behind each other.
///  * **Abandon.** publish() of a null value releases the claim:
///    waiters fire with null and the next lookup becomes Owner, so a
///    failed owner never poisons its key.
///  * **LRU per shard, in-flight pinned.** Capacity bounds the ready
///    entries exactly. It is split over one shard per 32 entries (at
///    most 8; sharding keeps distinct keys off one mutex), the
///    remainder spread one entry each over the first shards. Publishing
///    past a shard's bound evicts its least-recently-used ready entry.
///    In-flight entries are not in the LRU, so they cannot be evicted.
///    Eviction drops only the cache's reference: whoever holds the
///    value keeps it alive. An evicted value is never destroyed under a
///    shard lock: publish() hands it back to its caller, who may drop
///    it at once or later, off its critical path (the engine drops
///    evicted artifacts after the job is queued). A value's destructor
///    may therefore re-enter the cache.
///  * **Capacity 0 is pass-through.** Every begin() is Owner, publish()
///    stores nothing, and no counter moves.
///
/// The cache never validates: equal keys mean interchangeable values,
/// so everything a value depends on must be folded into its key.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_CONTENTCACHE_H
#define CUNDEF_SUPPORT_CONTENTCACHE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cundef {

/// Monotonic cache counters (diff two snapshots for per-batch rates).
struct ContentCacheStats {
  uint64_t Lookups = 0;
  /// Ready value served without waiting; the work was skipped.
  uint64_t Hits = 0;
  /// The caller claimed the key and did the work.
  uint64_t Misses = 0;
  /// Joined another caller's in-flight work (no work, but a wait).
  /// Hits + InflightJoins + Misses == Lookups.
  uint64_t InflightJoins = 0;
  /// Ready entries dropped by the LRU bound or by evictIf().
  uint64_t Evictions = 0;
  /// Claims released without a value: the owner failed or was shut
  /// down mid-job. Waiters still fire; nothing is stored.
  uint64_t Abandoned = 0;

  /// Fraction of lookups that skipped the work.
  double hitRate() const {
    return Lookups ? static_cast<double>(Hits + InflightJoins) / Lookups : 0.0;
  }
};

/// Thread-safe content-addressed cache of immutable values. \p ValueT is
/// a shared_ptr<const T>; a null value is never stored.
template <typename KeyT, typename ValueT, typename Hash = std::hash<KeyT>>
class ContentCache {
public:
  /// Completion waiter of a joined lookup: fired exactly once by the
  /// owner's publish(), outside all cache locks, with the shared value
  /// (null when the owner abandoned its claim).
  using Waiter = std::function<void(ValueT)>;

  /// How a lookup resolved.
  struct Claim {
    enum class Kind : uint8_t {
      Owner,  ///< first lookup of the key: do the work, then publish()
      Hit,    ///< Ready holds the value; skip the work
      Joined, ///< in flight elsewhere; the waiter was registered
    } K = Kind::Owner;
    ValueT Ready; ///< set iff K == Hit
  };

  explicit ContentCache(unsigned Capacity)
      : Capacity(Capacity), Shards(std::clamp(Capacity / 32, 1u, 8u)) {
    const unsigned N = static_cast<unsigned>(Shards.size());
    for (unsigned I = 0; I < N; ++I)
      Shards[I].Capacity = Capacity / N + (I < Capacity % N ? 1 : 0);
  }

  ContentCache(const ContentCache &) = delete;
  ContentCache &operator=(const ContentCache &) = delete;

  bool enabled() const { return Capacity > 0; }

  /// One atomic lookup-or-claim-or-join. \p OnReady is kept (and later
  /// fired by the owner's publish) only when the lookup Joined; begin()
  /// never invokes it. An Owner must eventually publish() the key, or
  /// its waiters never fire.
  Claim begin(const KeyT &Key, Waiter OnReady) {
    Claim C;
    if (!enabled())
      return C;
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto [It, Claimed] = S.Entries.try_emplace(Key);
    Entry &E = It->second;
    if (Claimed) {
      // In flight until publish(): not in the LRU list, so pinned.
      count(&Counters::Misses);
    } else if (E.Ready) {
      S.Lru.splice(S.Lru.end(), S.Lru, E.LruIt);
      C.K = Claim::Kind::Hit;
      C.Ready = E.Ready;
      count(&Counters::Hits);
    } else {
      E.Waiters.push_back(std::move(OnReady));
      C.K = Claim::Kind::Joined;
      count(&Counters::InflightJoins);
    }
    return C;
  }

  /// Completes an owned claim: stores \p Value as the key's ready entry
  /// and fires every registered waiter with it, outside the shard lock.
  /// A null \p Value abandons the claim instead: nothing is stored,
  /// waiters fire with null, and the next lookup of the key is Owner.
  /// No-op when the key holds no in-flight entry. Returns the values
  /// the LRU bound evicted, for the caller to drop outside every cache
  /// lock, whenever suits it.
  std::vector<ValueT> publish(const KeyT &Key, ValueT Value) {
    std::vector<ValueT> Evicted;
    if (!enabled())
      return Evicted;
    Shard &S = shardFor(Key);
    std::vector<Waiter> Fire;
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      auto It = S.Entries.find(Key);
      if (It == S.Entries.end() || It->second.Ready)
        return Evicted;
      Fire = std::move(It->second.Waiters);
      if (Value) {
        It->second.Ready = Value;
        It->second.LruIt = S.Lru.insert(S.Lru.end(), Key);
        // Shard capacity is at least 1, so the entry just published
        // (at the back) is never its own victim.
        while (S.Lru.size() > S.Capacity)
          Evicted.push_back(evictFront(S));
      } else {
        S.Entries.erase(It);
      }
    }
    if (!Value)
      Stats.Abandoned.fetch_add(1, std::memory_order_relaxed);
    else if (!Evicted.empty())
      Stats.Evictions.fetch_add(Evicted.size(), std::memory_order_relaxed);
    // Waiters run arbitrary completion code (job finishers, sink
    // callbacks): never under a shard lock.
    for (Waiter &W : Fire)
      if (W)
        W(Value);
    return Evicted;
  }

  /// Drops every ready entry whose key satisfies \p Stale (counted as
  /// evictions). In-flight entries stay pinned.
  template <typename Pred> void evictIf(Pred Stale) {
    // Destroyed after the last shard unlocks.
    std::vector<ValueT> Evicted;
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      for (auto It = S.Lru.begin(); It != S.Lru.end();) {
        if (!Stale(*It)) {
          ++It;
          continue;
        }
        auto E = S.Entries.find(*It);
        Evicted.push_back(std::move(E->second.Ready));
        S.Entries.erase(E);
        It = S.Lru.erase(It);
      }
    }
    if (!Evicted.empty())
      Stats.Evictions.fetch_add(Evicted.size(), std::memory_order_relaxed);
  }

  /// Blocking lookup over begin()/publish(): returns the value for
  /// \p Key, running \p Compute at most once per key across concurrent
  /// callers. A throwing \p Compute abandons the claim and rethrows to
  /// its own caller only; joiners woken by the abandon retry from
  /// begin(), so none hangs. \p WasHit (optional) reports whether this
  /// caller skipped \p Compute. \p Compute must not re-enter the cache.
  /// \p Evicted (optional) receives the values this call's publish
  /// evicted, for the caller to drop later; without it they are dropped
  /// before returning (outside every cache lock either way).
  template <typename Fn>
  ValueT getOrCompute(const KeyT &Key, Fn &&Compute, bool *WasHit = nullptr,
                      std::vector<ValueT> *Evicted = nullptr) {
    for (;;) {
      auto Joined = std::make_shared<std::promise<ValueT>>();
      std::future<ValueT> Woken = Joined->get_future();
      Claim C = begin(Key, [Joined](ValueT Value) {
        Joined->set_value(std::move(Value));
      });
      if (C.K == Claim::Kind::Owner) {
        ValueT Value;
        try {
          Value = Compute();
        } catch (...) {
          publish(Key, nullptr);
          throw;
        }
        std::vector<ValueT> Dropped = publish(Key, Value);
        if (Evicted)
          std::move(Dropped.begin(), Dropped.end(),
                    std::back_inserter(*Evicted));
        if (WasHit)
          *WasHit = false;
        return Value;
      }
      ValueT Value =
          C.K == Claim::Kind::Hit ? std::move(C.Ready) : Woken.get();
      if (Value) {
        if (WasHit)
          *WasHit = true;
        return Value;
      }
    }
  }

  /// Ready entries currently resident (in-flight ones excluded).
  size_t size() const {
    size_t N = 0;
    for (const Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      N += S.Lru.size();
    }
    return N;
  }

  ContentCacheStats stats() const {
    ContentCacheStats Out;
    Out.Lookups = Stats.Lookups.load(std::memory_order_relaxed);
    Out.Hits = Stats.Hits.load(std::memory_order_relaxed);
    Out.Misses = Stats.Misses.load(std::memory_order_relaxed);
    Out.InflightJoins = Stats.InflightJoins.load(std::memory_order_relaxed);
    Out.Evictions = Stats.Evictions.load(std::memory_order_relaxed);
    Out.Abandoned = Stats.Abandoned.load(std::memory_order_relaxed);
    return Out;
  }

private:
  struct Entry {
    /// Null while in flight; set once by publish().
    ValueT Ready;
    /// Joined lookups waiting on the owner's publish().
    std::vector<Waiter> Waiters;
    /// Valid once Ready is set (only ready entries are in the LRU).
    typename std::list<KeyT>::iterator LruIt;
  };

  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<KeyT, Entry, Hash> Entries;
    /// Ready keys; front = least recently used = next eviction victim.
    std::list<KeyT> Lru;
    size_t Capacity = 0;
  };

  /// Unlinks the shard's least-recently-used ready entry and returns its
  /// value (caller holds S.Mu).
  static ValueT evictFront(Shard &S) {
    auto It = S.Entries.find(S.Lru.front());
    ValueT Value = std::move(It->second.Ready);
    S.Entries.erase(It);
    S.Lru.pop_front();
    return Value;
  }

  Shard &shardFor(const KeyT &Key) {
    // The top hash bits pick the shard; the map's buckets use the low
    // ones.
    return Shards[(static_cast<uint64_t>(Hash{}(Key)) >> 56) % Shards.size()];
  }

  /// Lock-free counters: the stats path must not reintroduce the
  /// single mutex that sharding exists to avoid.
  struct Counters {
    std::atomic<uint64_t> Lookups{0};
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Misses{0};
    std::atomic<uint64_t> InflightJoins{0};
    std::atomic<uint64_t> Evictions{0};
    std::atomic<uint64_t> Abandoned{0};
  };

  /// Counts one lookup resolved as \p Counter (Hits/Misses/Joins).
  void count(std::atomic<uint64_t> Counters::*Counter) {
    Stats.Lookups.fetch_add(1, std::memory_order_relaxed);
    (Stats.*Counter).fetch_add(1, std::memory_order_relaxed);
  }

  const unsigned Capacity;
  std::vector<Shard> Shards;
  Counters Stats;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_CONTENTCACHE_H
