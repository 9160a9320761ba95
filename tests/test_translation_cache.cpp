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
//    The cache's own unit tests are in tests/test_content_cache.cpp.
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

#include "TestUtil.h"

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
  // V=7 artifact and exit 7. The edit also sweeps the stale artifact
  // (a whole AST) out of the cache, whether or not the request uses
  // the result cache.
  for (bool ResultCache : {true, false}) {
    SCOPED_TRACE(ResultCache ? "result cache on" : "result cache off");
    AnalysisRequest Req =
        AnalysisRequest::Builder().resultCache(ResultCache).buildOrDie();
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

    // Edited header: new fingerprint, new key, fresh compile, and the
    // V=7 artifact is swept.
    const uint64_t EvictionsBefore = Eng.translationStats().Evictions;
    Eng.headers().add("cfg.h", "#define V 9\n");
    DriverOutcome Second = Eng.submit(Req, Source, "cfg.c").take();
    EXPECT_EQ(Second.ExitCode, 9) << "stale artifact served after header edit";
    EXPECT_FALSE(Second.TranslationCacheHit);
    EXPECT_EQ(Eng.translationStats().Evictions, EvictionsBefore + 1)
        << "the old context's artifact was swept";
  }
}

TEST(TranslationCacheEngine, DuplicateHeavyBatchMatchesFreshCompiles) {
  // One batch over a duplicate-heavy input list (same files xN plus
  // distinct ones) vs per-file fresh cache-off engines: outcomes
  // byte-identical, and the engine's counters show the duplicates
  // resolved as cache hits. The twelve copies of a 240-function unit,
  // of which main() calls one, are the shape where the frontend is the
  // duplicated cost.
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
  std::string Big;
  for (unsigned F = 0; F < 240; ++F) {
    const std::string N = std::to_string(F);
    Big += "static int f" + N + "(int x) {\n  int a = x + " + N +
           "; int b = a * 3;\n  int c = b - a; int d = c + (a > 0 ? 1 : 2);\n"
           "  return d + b;\n}\n";
  }
  Big += "int main(void) { return f0(1) > 0 ? 0 : 1; }\n";
  for (int I = 0; I < 12; ++I)
    Inputs.push_back({Big, "big.c"});

  AnalysisEngine Batched(engineConfigFor(Req));
  std::vector<DriverOutcome> Batch = analyzeBatch(Batched, Req, Inputs);
  ASSERT_EQ(Batch.size(), Inputs.size());
  const TranslationCacheStats Stats = Batched.translationStats();
  EXPECT_EQ(Stats.Misses, 4u) << "four distinct units";
  EXPECT_EQ(Stats.Hits + Stats.InflightJoins, Inputs.size() - 4);

  EngineConfig Off;
  Off.TranslationCacheEntries = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    AnalysisEngine Fresh(Off);
    DriverOutcome Ref =
        Fresh.submit(Req, Inputs[I].Source, Inputs[I].Name).take();
    EXPECT_FALSE(Ref.TranslationCacheHit);
    expectIdentical(Ref, Batch[I],
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
