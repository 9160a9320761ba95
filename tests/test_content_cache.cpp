//===- tests/test_content_cache.cpp - The engine's content cache --------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// ContentCache unit behavior, as typed tests over both of the engine's
// instantiations: translation artifacts keyed by TranslationKey and
// search outcomes keyed by ResultKey. The cache never looks inside what
// it stores, so each instantiation only supplies keys and values.
//
//  * **Bounds.** Exact capacity at saturation for every capacity (the
//    shard split spreads the remainder), LRU order within a shard, and
//    capacity 0 as a counter-free pass-through.
//  * **Singleflight.** 8 threads on one cold key do the work once,
//    through begin()/publish() and through the blocking getOrCompute().
//    Under -DCUNDEF_TSAN=ON this suite runs instrumented (ctest -L tsan).
//  * **Failure.** An abandoned claim, or a throwing compute, releases
//    the key: joiners never hang, and the key is claimable again.
//  * **Eviction.** Evicted values are handed back and destroyed outside
//    every cache lock, so a value's destructor may re-enter the cache.
//
// The engine-level behaviour (header-edit sweep, byte-identical
// outcomes with the caches on and off) lives in
// tests/test_translation_cache.cpp and tests/test_result_cache.cpp.
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"
#include "frontend/Frontend.h"
#include "support/ContentCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace cundef;

namespace {

/// The translation stage: artifacts keyed by TranslationKey.
struct TranslationStage {
  using Key = TranslationKey;
  using Value = CompiledProgramRef;

  static Key key(uint64_t Source, uint64_t Context) {
    Key K;
    K.SourceHash = Source;
    K.ContextHash = Context;
    return K;
  }
  static uint64_t context(const Key &K) { return K.ContextHash; }
  /// A small distinguishable artifact.
  static Value value(int N) {
    HeaderRegistry Headers;
    FrontendOptions FO;
    return compileTranslationUnit(
        FO, "int main(void) { return " + std::to_string(N) + "; }", "k.c",
        Headers);
  }
};

/// The search stage: outcomes keyed by ResultKey.
struct ResultStage {
  using Key = ResultKey;
  using Value = CachedOutcome;

  static Key key(uint64_t Source, uint64_t Context, uint64_t MachineFp = 1,
                 uint64_t SearchFp = 1) {
    Key K;
    K.Translation = TranslationStage::key(Source, Context);
    K.MachineFp = MachineFp;
    K.SearchFp = SearchFp;
    return K;
  }
  static uint64_t context(const Key &K) { return K.Translation.ContextHash; }
  /// A distinguishable outcome.
  static Value value(int N) {
    auto O = std::make_shared<DriverOutcome>();
    O->CompileOk = true;
    O->ExitCode = N;
    return O;
  }
};

template <typename Stage> class ContentCacheTest : public ::testing::Test {
protected:
  using Cache = ContentCache<typename Stage::Key, typename Stage::Value>;
  using Kind = typename Cache::Claim::Kind;
};

using Stages = ::testing::Types<TranslationStage, ResultStage>;
TYPED_TEST_SUITE(ContentCacheTest, Stages);

} // namespace

TYPED_TEST(ContentCacheTest, CapacityZeroIsAPassThrough) {
  using Kind = typename TestFixture::Kind;
  typename TestFixture::Cache Cache(0);
  EXPECT_FALSE(Cache.enabled());
  const auto Key = TypeParam::key(1, 1);
  EXPECT_EQ(Cache.begin(Key, nullptr).K, Kind::Owner);
  Cache.publish(Key, TypeParam::value(0));
  EXPECT_EQ(Cache.begin(Key, nullptr).K, Kind::Owner) << "nothing stored";

  unsigned Computes = 0;
  auto Compute = [&] {
    ++Computes;
    return TypeParam::value(0);
  };
  bool Hit = true;
  Cache.getOrCompute(Key, Compute, &Hit);
  EXPECT_FALSE(Hit);
  Cache.getOrCompute(Key, Compute, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_EQ(Computes, 2u);
  EXPECT_EQ(Cache.size(), 0u);
  ContentCacheStats St = Cache.stats();
  EXPECT_EQ(St.Lookups, 0u) << "a pass-through touches no counter";
  EXPECT_EQ(St.Misses, 0u);
  EXPECT_EQ(St.Abandoned, 0u);
}

TYPED_TEST(ContentCacheTest, OwnerPublishesThenHitsShareOneValue) {
  using Kind = typename TestFixture::Kind;
  typename TestFixture::Cache Cache(8);
  const auto Key = TypeParam::key(1, 1);
  ASSERT_EQ(Cache.begin(Key, nullptr).K, Kind::Owner);
  const auto Published = TypeParam::value(7);
  Cache.publish(Key, Published);
  EXPECT_EQ(Cache.size(), 1u);

  auto Again = Cache.begin(Key, nullptr);
  ASSERT_EQ(Again.K, Kind::Hit);
  EXPECT_EQ(Again.Ready.get(), Published.get()) << "hits share one value";
  EXPECT_EQ(Cache.begin(TypeParam::key(2, 1), nullptr).K, Kind::Owner)
      << "another key is a fresh claim";

  // The blocking path serves the same resident value.
  unsigned Computes = 0;
  bool Hit = false;
  auto Got = Cache.getOrCompute(
      Key,
      [&] {
        ++Computes;
        return TypeParam::value(8);
      },
      &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(Got.get(), Published.get());
  EXPECT_EQ(Computes, 0u);

  ContentCacheStats St = Cache.stats();
  EXPECT_EQ(St.Lookups, 4u);
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Misses, 2u);
  EXPECT_EQ(St.InflightJoins, 0u);
  EXPECT_DOUBLE_EQ(St.hitRate(), 0.5);
}

TYPED_TEST(ContentCacheTest, EvictsLeastRecentlyUsed) {
  using Kind = typename TestFixture::Kind;
  typename TestFixture::Cache Cache(2);
  const auto Value = TypeParam::value(0);
  for (uint64_t K = 1; K <= 2; ++K) {
    ASSERT_EQ(Cache.begin(TypeParam::key(K, 0), nullptr).K, Kind::Owner);
    Cache.publish(TypeParam::key(K, 0), Value);
  }
  // Touch key 1: key 2 becomes the LRU victim.
  ASSERT_EQ(Cache.begin(TypeParam::key(1, 0), nullptr).K, Kind::Hit);
  ASSERT_EQ(Cache.begin(TypeParam::key(3, 0), nullptr).K, Kind::Owner);
  Cache.publish(TypeParam::key(3, 0), Value);

  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.begin(TypeParam::key(1, 0), nullptr).K, Kind::Hit)
      << "the recently-touched entry survived";
  EXPECT_EQ(Cache.begin(TypeParam::key(2, 0), nullptr).K, Kind::Owner)
      << "the LRU entry was evicted";
}

TYPED_TEST(ContentCacheTest, SizeReachesCapacityExactly) {
  // The shard split must honour the capacity: never more resident
  // entries than asked for, and all of them at saturation.
  const auto Value = TypeParam::value(0);
  constexpr uint64_t Keys = 4000;
  for (unsigned Capacity : {1u, 2u, 3u, 5u, 10u, 12u, 256u}) {
    typename TestFixture::Cache Cache(Capacity);
    for (uint64_t K = 1; K <= Keys; ++K) {
      Cache.getOrCompute(TypeParam::key(K, 1), [&] { return Value; });
      ASSERT_LE(Cache.size(), Capacity) << "capacity " << Capacity;
    }
    EXPECT_EQ(Cache.size(), Capacity) << "capacity " << Capacity;
    EXPECT_EQ(Cache.stats().Evictions, Keys - Capacity)
        << "capacity " << Capacity;
  }
}

TYPED_TEST(ContentCacheTest, SingleflightJoinersRideTheOwner) {
  // N threads race one cold key through begin()/publish(): exactly one
  // Owner; every joiner's waiter fires exactly once with the owner's
  // published value.
  using Kind = typename TestFixture::Kind;
  typename TestFixture::Cache Cache(8);
  const auto Key = TypeParam::key(9, 9);
  const auto Published = TypeParam::value(42);
  constexpr unsigned N = 8;
  std::atomic<unsigned> Owners{0};
  std::atomic<unsigned> WaitersFired{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&] {
      auto C = Cache.begin(Key, [&](typename TypeParam::Value V) {
        EXPECT_EQ(V.get(), Published.get());
        WaitersFired.fetch_add(1);
      });
      if (C.K == Kind::Owner) {
        Owners.fetch_add(1);
        // Linger so joiners really do arrive in flight on most runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        Cache.publish(Key, Published);
      } else if (C.K == Kind::Hit) {
        EXPECT_EQ(C.Ready.get(), Published.get());
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Owners.load(), 1u) << "the work ran once";
  ContentCacheStats St = Cache.stats();
  EXPECT_EQ(St.Lookups, N);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Hits + St.InflightJoins, N - 1);
  EXPECT_EQ(WaitersFired.load(), St.InflightJoins);
}

TYPED_TEST(ContentCacheTest, SingleflightComputesOncePerKey) {
  // N threads race one cold key through getOrCompute(): exactly one
  // compute, and everyone returns the same value. (The compute sleeps a
  // moment so joiners really do block on it on most runs; the
  // assertion only needs Hits + Joins.)
  typename TestFixture::Cache Cache(8);
  const auto Key = TypeParam::key(7, 7);
  const auto Value = TypeParam::value(7);
  std::atomic<unsigned> Computes{0};
  auto Compute = [&] {
    Computes.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Value;
  };
  constexpr unsigned N = 8;
  std::vector<typename TypeParam::Value> Got(N);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&, T] { Got[T] = Cache.getOrCompute(Key, Compute); });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Computes.load(), 1u);
  for (unsigned T = 0; T < N; ++T)
    EXPECT_EQ(Got[T].get(), Value.get()) << T;
  ContentCacheStats St = Cache.stats();
  EXPECT_EQ(St.Lookups, N);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Hits + St.InflightJoins, N - 1);
}

TYPED_TEST(ContentCacheTest, EvictIfSweepsStaleContexts) {
  using Kind = typename TestFixture::Kind;
  typename TestFixture::Cache Cache(16);
  const auto Value = TypeParam::value(0);
  for (uint64_t K = 1; K <= 3; ++K) {
    Cache.begin(TypeParam::key(K, /*Context=*/100), nullptr);
    Cache.publish(TypeParam::key(K, 100), Value);
  }
  Cache.begin(TypeParam::key(4, /*Context=*/200), nullptr);
  Cache.publish(TypeParam::key(4, 200), Value);
  // An in-flight entry of the stale context stays pinned.
  ASSERT_EQ(Cache.begin(TypeParam::key(5, 100), nullptr).K, Kind::Owner);
  ASSERT_EQ(Cache.size(), 4u);

  // The live-header-edit sweep: everything not under the new context
  // digest is dropped; the current context's entries survive.
  Cache.evictIf([](const typename TypeParam::Key &K) {
    return TypeParam::context(K) != 200;
  });
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.stats().Evictions, 3u);
  EXPECT_EQ(Cache.begin(TypeParam::key(4, 200), nullptr).K, Kind::Hit);
  EXPECT_EQ(Cache.begin(TypeParam::key(1, 100), nullptr).K, Kind::Owner);
  EXPECT_EQ(Cache.begin(TypeParam::key(5, 100), nullptr).K, Kind::Joined)
      << "the in-flight claim survived the sweep";
}

TYPED_TEST(ContentCacheTest, AbandonReleasesTheClaim) {
  // An owner that finishes without a cacheable value (shutdown
  // mid-job) must release the key: waiters fire with null, and the
  // next lookup starts fresh instead of joining a dead entry.
  using Kind = typename TestFixture::Kind;
  typename TestFixture::Cache Cache(8);
  const auto Key = TypeParam::key(1, 1);
  ASSERT_EQ(Cache.begin(Key, nullptr).K, Kind::Owner);
  bool WaiterFired = false;
  bool WaiterGotValue = true;
  ASSERT_EQ(Cache
                .begin(Key,
                       [&](typename TypeParam::Value V) {
                         WaiterFired = true;
                         WaiterGotValue = V != nullptr;
                       })
                .K,
            Kind::Joined);

  Cache.publish(Key, nullptr);
  EXPECT_TRUE(WaiterFired);
  EXPECT_FALSE(WaiterGotValue) << "abandon fires waiters with null";
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Abandoned, 1u);
  EXPECT_EQ(Cache.begin(Key, nullptr).K, Kind::Owner)
      << "the key is claimable again";
}

TYPED_TEST(ContentCacheTest, ThrowingComputeStrandsNoJoiner) {
  // The owner's compute throws while N - 1 threads are joined on its
  // key: only the owner sees the exception, the joiners retry (one of
  // them becomes the next Owner and computes), and nobody hangs.
  using Kind = typename TestFixture::Kind;
  typename TestFixture::Cache Cache(8);
  const auto Key = TypeParam::key(5, 5);
  const auto Value = TypeParam::value(5);
  constexpr unsigned N = 8;
  std::atomic<unsigned> Computes{0};
  auto Compute = [&] {
    if (Computes.fetch_add(1) == 0) {
      while (Cache.stats().InflightJoins < N - 1)
        std::this_thread::yield();
      throw std::runtime_error("compile failed");
    }
    return Value;
  };
  std::atomic<unsigned> Threw{0};
  std::vector<typename TypeParam::Value> Got(N);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&, T] {
      try {
        Got[T] = Cache.getOrCompute(Key, Compute);
      } catch (const std::runtime_error &) {
        Threw.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Threw.load(), 1u) << "exactly one caller sees the exception";
  EXPECT_EQ(Computes.load(), 2u) << "the failed compute ran once more";
  unsigned Served = 0;
  for (const auto &V : Got)
    Served += V.get() == Value.get() ? 1 : 0;
  EXPECT_EQ(Served, N - 1);
  ContentCacheStats St = Cache.stats();
  EXPECT_EQ(St.Abandoned, 1u);
  EXPECT_EQ(St.Misses, 2u) << "the first lookup after the abandon owned";
  EXPECT_EQ(St.Hits + St.InflightJoins + St.Misses, St.Lookups);
  EXPECT_EQ(Cache.size(), 1u);

  // Alone, a throwing compute leaves the key claimable.
  const auto Other = TypeParam::key(6, 6);
  EXPECT_THROW(Cache.getOrCompute(Other,
                                  []() -> typename TypeParam::Value {
                                    throw std::runtime_error("again");
                                  }),
               std::runtime_error);
  EXPECT_EQ(Cache.begin(Other, nullptr).K, Kind::Owner);
  EXPECT_EQ(Cache.stats().Abandoned, 2u);
}

namespace {

/// A cached value whose destructor re-enters the cache that held it:
/// destroyed under a shard lock, it would deadlock on that lock.
struct ReentrantValue {
  using Ref = std::shared_ptr<const ReentrantValue>;
  ContentCache<uint64_t, Ref> *Cache;
  std::vector<size_t> *SizesSeen;
  ReentrantValue(ContentCache<uint64_t, Ref> *Cache,
                 std::vector<size_t> *SizesSeen)
      : Cache(Cache), SizesSeen(SizesSeen) {}
  ~ReentrantValue() {
    SizesSeen->push_back(Cache->size());
    ContentCacheStats St = Cache->stats(); // re-enters, lock-free
    (void)St;
  }
};

} // namespace

TEST(ContentCacheEviction, EvictedValuesDieOutsideEveryLock) {
  using Ref = ReentrantValue::Ref;
  ContentCache<uint64_t, Ref> Cache(1); // one shard of one entry
  std::vector<size_t> SizesSeen;
  auto Make = [&] {
    return std::make_shared<const ReentrantValue>(&Cache, &SizesSeen);
  };

  // publish() hands the victim back: it lives until the caller drops
  // it, and its destructor can take the shard lock.
  Cache.begin(1, nullptr);
  EXPECT_TRUE(Cache.publish(1, Make()).empty());
  Cache.begin(2, nullptr);
  std::vector<Ref> Evicted = Cache.publish(2, Make());
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_TRUE(SizesSeen.empty()) << "still held by the caller";
  Evicted.clear();
  EXPECT_EQ(SizesSeen, std::vector<size_t>{1});

  // getOrCompute() collects its publish's victims for the caller...
  Cache.getOrCompute(3, Make, nullptr, &Evicted);
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(SizesSeen.size(), 1u);
  Evicted.clear();
  EXPECT_EQ(SizesSeen.size(), 2u);
  // ...or drops them itself, after unlocking.
  Cache.getOrCompute(4, Make);
  EXPECT_EQ(SizesSeen.size(), 3u);

  // So does a sweep.
  Cache.evictIf([](uint64_t) { return true; });
  EXPECT_EQ(SizesSeen, (std::vector<size_t>{1, 1, 1, 0}));
  EXPECT_EQ(Cache.stats().Evictions, 4u);
}

TEST(ContentCacheKeys, ResultKeyFoldsBothFingerprints) {
  // Equal translation, different configuration: a different analysis,
  // so a fresh claim.
  using Kind = ContentCache<ResultKey, CachedOutcome>::Claim::Kind;
  ContentCache<ResultKey, CachedOutcome> Cache(8);
  ASSERT_EQ(Cache.begin(ResultStage::key(1, 1), nullptr).K, Kind::Owner);
  Cache.publish(ResultStage::key(1, 1), ResultStage::value(1));
  EXPECT_EQ(Cache.begin(ResultStage::key(1, 1), nullptr).K, Kind::Hit);
  EXPECT_EQ(Cache.begin(ResultStage::key(1, 1, /*MachineFp=*/2), nullptr).K,
            Kind::Owner);
  EXPECT_EQ(Cache.begin(ResultStage::key(1, 1, 1, /*SearchFp=*/2), nullptr).K,
            Kind::Owner);
}
