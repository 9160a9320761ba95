//===- tests/test_translation_cache.cpp - Content-addressed frontend ----------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The frontend refactor's contract, pinned from four sides:
//
//  * **Content addressing is total.** Everything that can change what
//    the frontend produces — source bytes, unit name, TargetConfig,
//    the static-checks flag, the header registry — changes the
//    TranslationKey. The header-registry half is the regression that
//    motivated it: a registry mutated after the engine started must
//    invalidate cached artifacts, never silently serve stale ASTs.
//  * **Singleflight.** N concurrent submissions of one translation
//    unit run exactly one frontend pass; everyone shares the immutable
//    artifact. Under -DCUNDEF_TSAN=ON this suite runs instrumented
//    (ctest -L tsan) — the stress tests below are its reason to exist.
//  * **The cache is invisible in the results.** Byte-identical
//    outcomes with the cache on, off, hot, or cold, for single submits
//    and duplicate-heavy batches.
//  * **One counter semantics across schedulers.** The wave reference
//    path reports the same OrdersExplored as the pooled steal path
//    (the documented +1 divergence is gone now that both run off the
//    submitting thread).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "frontend/Frontend.h"
#include "frontend/TranslationCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace cundef;

namespace {

const char *PaperSource = "int d = 5;\n"
                          "int setDenom(int x) { return d = x; }\n"
                          "int main(void) { return (10 / d) + setDenom(0); }\n";

/// Full observable-outcome equality (the engine suite's notion,
/// extended with the search/compile timing split left out — wall
/// times legitimately differ between runs).
void expectIdentical(const DriverOutcome &A, const DriverOutcome &B,
                     const std::string &Tag) {
  EXPECT_EQ(A.CompileOk, B.CompileOk) << Tag;
  EXPECT_EQ(A.CompileErrors, B.CompileErrors) << Tag;
  EXPECT_EQ(A.Status, B.Status) << Tag;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << Tag;
  EXPECT_EQ(A.Output, B.Output) << Tag;
  EXPECT_EQ(A.SearchWitness, B.SearchWitness) << Tag;
  EXPECT_EQ(A.OrdersExplored, B.OrdersExplored) << Tag;
  EXPECT_EQ(A.OrdersDeduped, B.OrdersDeduped) << Tag;
  EXPECT_EQ(A.SearchTruncated, B.SearchTruncated) << Tag;
  EXPECT_EQ(A.SearchDropped, B.SearchDropped) << Tag;
  EXPECT_EQ(A.renderReport(), B.renderReport()) << Tag;
  ASSERT_EQ(A.DynamicUb.size(), B.DynamicUb.size()) << Tag;
  for (size_t I = 0; I < A.DynamicUb.size(); ++I) {
    EXPECT_EQ(A.DynamicUb[I].Kind, B.DynamicUb[I].Kind) << Tag;
    EXPECT_EQ(A.DynamicUb[I].Loc.Line, B.DynamicUb[I].Loc.Line) << Tag;
  }
}

/// A trivial artifact for cache unit tests (the cache never looks
/// inside what it stores).
CompiledProgramRef makeArtifact() {
  HeaderRegistry Headers;
  FrontendOptions FO;
  return compileTranslationUnit(FO, "int main(void) { return 0; }", "k.c",
                                Headers);
}

TranslationKey keyOf(uint64_t A, uint64_t B) {
  TranslationKey K;
  K.SourceHash = A;
  K.ContextHash = B;
  return K;
}

} // namespace

//===----------------------------------------------------------------------===//
// Content addressing.
//===----------------------------------------------------------------------===//

TEST(TranslationKey, CoversEveryFrontendInput) {
  HeaderRegistry Headers;
  FrontendOptions FO;
  const uint64_t HFp = Headers.fingerprint();
  TranslationKey Base = translationKeyFor(FO, "int x;", "a.c", HFp);

  // Source bytes.
  EXPECT_NE(Base, translationKeyFor(FO, "int y;", "a.c", HFp));
  // Unit name (diagnostics embed it, so artifacts must not be shared
  // across names).
  EXPECT_NE(Base, translationKeyFor(FO, "int x;", "b.c", HFp));
  // Name/source split (length-prefixed hashing: "ab"+"c" != "a"+"bc").
  EXPECT_NE(translationKeyFor(FO, "bc.c", "a", HFp),
            translationKeyFor(FO, "c.c", "ab", HFp));
  // Target configuration.
  FrontendOptions Wide = FO;
  Wide.Target = TargetConfig::wideInt();
  EXPECT_NE(Base, translationKeyFor(Wide, "int x;", "a.c", HFp));
  // Static-checks flag (the artifact embeds static findings).
  FrontendOptions NoStatic = FO;
  NoStatic.StaticChecks = false;
  EXPECT_NE(Base, translationKeyFor(NoStatic, "int x;", "a.c", HFp));
  // Header registry contents.
  EXPECT_NE(Base, translationKeyFor(FO, "int x;", "a.c", HFp ^ 1));
}

TEST(TranslationKey, HeaderRegistryFingerprintTracksContent) {
  HeaderRegistry A;
  const uint64_t Empty = A.fingerprint();
  A.add("cfg.h", "#define V 7\n");
  const uint64_t V7 = A.fingerprint();
  EXPECT_NE(Empty, V7);
  // Overwriting one header's body changes the digest...
  A.add("cfg.h", "#define V 9\n");
  const uint64_t V9 = A.fingerprint();
  EXPECT_NE(V7, V9);
  // ...and restoring it restores the digest (pure content address).
  A.add("cfg.h", "#define V 7\n");
  EXPECT_EQ(V7, A.fingerprint());
}

//===----------------------------------------------------------------------===//
// TranslationCache unit behavior.
//===----------------------------------------------------------------------===//

TEST(TranslationCache, CapacityZeroDisablesReuse) {
  TranslationCache Cache(0);
  EXPECT_FALSE(Cache.enabled());
  unsigned Compiles = 0;
  auto Compile = [&] {
    ++Compiles;
    return makeArtifact();
  };
  bool Hit = true;
  Cache.getOrCompile(keyOf(1, 1), Compile, &Hit);
  EXPECT_FALSE(Hit);
  Cache.getOrCompile(keyOf(1, 1), Compile, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_EQ(Compiles, 2u);
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(TranslationCache, ServesSharedArtifactOnHit) {
  TranslationCache Cache(8, /*ShardCount=*/1);
  unsigned Compiles = 0;
  auto Compile = [&] {
    ++Compiles;
    return makeArtifact();
  };
  bool Hit = true;
  CompiledProgramRef First = Cache.getOrCompile(keyOf(1, 1), Compile, &Hit);
  EXPECT_FALSE(Hit);
  CompiledProgramRef Again = Cache.getOrCompile(keyOf(1, 1), Compile, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(First.get(), Again.get()) << "hits share one artifact";
  EXPECT_EQ(Compiles, 1u);
  TranslationCacheStats St = Cache.stats();
  EXPECT_EQ(St.Lookups, 2u);
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_DOUBLE_EQ(St.hitRate(), 0.5);
}

TEST(TranslationCache, EvictsLeastRecentlyUsed) {
  TranslationCache Cache(2, /*ShardCount=*/1);
  unsigned Compiles = 0;
  auto Compile = [&] {
    ++Compiles;
    return makeArtifact();
  };
  Cache.getOrCompile(keyOf(1, 0), Compile);
  Cache.getOrCompile(keyOf(2, 0), Compile);
  // Touch key 1: key 2 becomes the LRU victim.
  bool Hit = false;
  Cache.getOrCompile(keyOf(1, 0), Compile, &Hit);
  EXPECT_TRUE(Hit);
  Cache.getOrCompile(keyOf(3, 0), Compile); // evicts key 2
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  Cache.getOrCompile(keyOf(1, 0), Compile, &Hit);
  EXPECT_TRUE(Hit) << "the recently-touched entry survived";
  Cache.getOrCompile(keyOf(2, 0), Compile, &Hit);
  EXPECT_FALSE(Hit) << "the LRU entry was evicted";
  EXPECT_EQ(Compiles, 4u); // keys 1, 2, 3, and 2 again
}

TEST(TranslationCache, SingleflightCompilesOncePerKey) {
  // N threads race one cold key: exactly one compile; everyone gets
  // the same artifact. (The compile sleeps a moment so joiners really
  // do arrive while it is in flight — on most runs at least one lands
  // as an InflightJoin, but the assertion only needs Hits + Joins.)
  TranslationCache Cache(8);
  std::atomic<unsigned> Compiles{0};
  auto Compile = [&] {
    Compiles.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return makeArtifact();
  };
  constexpr unsigned N = 8;
  std::vector<CompiledProgramRef> Got(N);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back(
        [&, T] { Got[T] = Cache.getOrCompile(keyOf(7, 7), Compile); });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Compiles.load(), 1u);
  for (unsigned T = 1; T < N; ++T)
    EXPECT_EQ(Got[0].get(), Got[T].get()) << T;
  TranslationCacheStats St = Cache.stats();
  EXPECT_EQ(St.Lookups, N);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Hits + St.InflightJoins, N - 1);
}

//===----------------------------------------------------------------------===//
// Engine integration.
//===----------------------------------------------------------------------===//

TEST(TranslationCacheEngine, CompileEntryPointSharesArtifacts) {
  // Driver::compile routes through the engine cache: recompiling the
  // same unit returns the *same* immutable artifact, and a different
  // unit does not.
  Driver Drv;
  Driver::Compiled A = Drv.compile(PaperSource, "p.c");
  Driver::Compiled B = Drv.compile(PaperSource, "p.c");
  ASSERT_TRUE(A->ok());
  EXPECT_EQ(A.get(), B.get());
  Driver::Compiled C = Drv.compile(PaperSource, "q.c");
  EXPECT_NE(A.get(), C.get()) << "unit name is part of the address";
}

TEST(TranslationCacheEngine, ConcurrentIdenticalSubmitsCompileOnce) {
  // The ISSUE's stress shape: 8 threads submit one identical source to
  // a live engine. Exactly one frontend pass may run; every outcome is
  // byte-identical to a cache-off engine's. TSan-instrumented under
  // -DCUNDEF_TSAN=ON (submit(), the cache, and the shared artifact all
  // cross threads here).
  AnalysisRequest Req = AnalysisRequest::Builder().searchRuns(64).buildOrDie();

  EngineConfig Off;
  Off.TranslationCacheEntries = 0;
  AnalysisEngine Reference(Off);
  DriverOutcome Ref =
      Reference.submit(Req, PaperSource, "stress.c").take();
  EXPECT_TRUE(Ref.anyUb());
  EXPECT_FALSE(Ref.TranslationCacheHit);

  AnalysisEngine Eng;
  constexpr unsigned N = 8;
  std::vector<JobHandle> Handles(N);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back(
        [&, T] { Handles[T] = Eng.submit(Req, PaperSource, "stress.c"); });
  for (std::thread &T : Threads)
    T.join();
  Eng.drain();

  unsigned CacheHits = 0;
  for (unsigned T = 0; T < N; ++T) {
    DriverOutcome O = Handles[T].take();
    expectIdentical(Ref, O, "thread " + std::to_string(T));
    CacheHits += O.TranslationCacheHit ? 1 : 0;
  }
  TranslationCacheStats St = Eng.translationStats();
  EXPECT_EQ(St.Misses, 1u) << "exactly one frontend pass";
  EXPECT_EQ(St.Hits + St.InflightJoins, N - 1);
  EXPECT_EQ(CacheHits, N - 1) << "every other job reported the hit";
}

TEST(TranslationCacheEngine, HeaderChangeInvalidatesCachedArtifact) {
  // The satellite regression: mutating the header registry after the
  // engine started must invalidate cached artifacts. With the registry
  // fingerprint outside the key, the second submission would reuse the
  // V=7 artifact and exit 7.
  AnalysisRequest Req = AnalysisRequest::Builder().buildOrDie();
  const std::string Source = "#include <cfg.h>\n"
                             "int main(void) { return V; }\n";
  AnalysisEngine Eng;
  Eng.headers().add("cfg.h", "#define V 7\n");
  DriverOutcome First = Eng.submit(Req, Source, "cfg.c").take();
  ASSERT_TRUE(First.CompileOk) << First.CompileErrors;
  EXPECT_EQ(First.ExitCode, 7);
  EXPECT_FALSE(First.TranslationCacheHit);

  // Unchanged registry: the artifact is reused.
  DriverOutcome Warm = Eng.submit(Req, Source, "cfg.c").take();
  EXPECT_EQ(Warm.ExitCode, 7);
  EXPECT_TRUE(Warm.TranslationCacheHit);

  // Edited header: new fingerprint, new key, fresh compile.
  Eng.headers().add("cfg.h", "#define V 9\n");
  DriverOutcome Second = Eng.submit(Req, Source, "cfg.c").take();
  EXPECT_EQ(Second.ExitCode, 9) << "stale artifact served after header edit";
  EXPECT_FALSE(Second.TranslationCacheHit);
}

TEST(TranslationCacheEngine, DuplicateHeavyBatchMatchesFreshCompiles) {
  // Driver::runBatch over a duplicate-heavy input list (same file xN
  // plus distinct ones) vs per-file fresh cache-off drivers: outcomes
  // byte-identical, and the batch stats show the duplicates resolved
  // as cache hits.
  AnalysisRequest Req =
      AnalysisRequest::Builder().searchRuns(64).searchJobs(2).buildOrDie();
  std::vector<BatchInput> Inputs;
  for (int I = 0; I < 4; ++I)
    Inputs.push_back({PaperSource, "dup.c"});
  Inputs.push_back({"#include <stdio.h>\n"
                    "int main(void) { printf(\"once\\n\"); return 3; }\n",
                    "hello.c"});
  for (int I = 0; I < 3; ++I)
    Inputs.push_back({"int main(void) { return 0; }\n", "triv.c"});

  Driver Batched(Req);
  BatchResult Batch = Batched.runBatch(Inputs);
  ASSERT_EQ(Batch.Outcomes.size(), Inputs.size());
  EXPECT_EQ(Batch.Stats.TranslationMisses, 3u) << "three distinct units";
  EXPECT_EQ(Batch.Stats.TranslationHits, Inputs.size() - 3);

  EngineConfig Off;
  Off.TranslationCacheEntries = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    AnalysisEngine Fresh(Off);
    DriverOutcome Ref =
        Fresh.submit(Req, Inputs[I].Source, Inputs[I].Name).take();
    EXPECT_FALSE(Ref.TranslationCacheHit);
    expectIdentical(Ref, Batch.Outcomes[I],
                    Inputs[I].Name + " #" + std::to_string(I));
  }
}

//===----------------------------------------------------------------------===//
// One counter semantics across pool widths.
//===----------------------------------------------------------------------===//

TEST(TranslationCacheEngine, PoolWidthsAgreeOnOrdersExplored) {
  // OrdersExplored counts each explored order once — the root run
  // doubles as the default-order run — and the count must not depend
  // on the pool: engines forced to 1 and to 4 workers report identical
  // outcomes for every verdict shape: UB found by search, UB in the
  // default order, clean-exhaustive, and clean-truncated.
  const std::vector<BatchInput> Corpus = {
      {PaperSource, "paper.c"},
      {"int main(void) { return 1 / 0; }\n", "default_ub.c"},
      {"int f(int x) { return x; }\n"
       "int main(void) { return f(1) + f(2); }\n",
       "clean.c"},
      {"static int g(int x) { return x + 1; }\n"
       "int main(void) { int t = 0; t += g(0) + g(1); t += g(2) + g(3);\n"
       "  t += g(4) + g(5); return t > 0 ? 0 : 1; }\n",
       "commute.c"},
  };
  for (unsigned Runs : {1u, 2u, 64u}) {
    AnalysisRequest Req =
        AnalysisRequest::Builder().searchRuns(Runs).buildOrDie();
    std::vector<DriverOutcome> Ref;
    for (unsigned Workers : {1u, 4u}) {
      EngineConfig Cfg;
      Cfg.Workers = Workers;
      Cfg.ClampWorkersToHardware = false;
      AnalysisEngine Eng(Cfg);
      std::vector<JobHandle> Handles = Eng.submitBatch(Req, Corpus);
      for (size_t I = 0; I < Handles.size(); ++I) {
        DriverOutcome O = Handles[I].take();
        if (Workers == 1)
          Ref.push_back(std::move(O));
        else
          expectIdentical(Ref[I], O,
                          Corpus[I].Name + " runs=" + std::to_string(Runs));
      }
    }
  }
}
