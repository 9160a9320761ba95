//===- tests/test_prelude_differential.cpp - Prelude vs in place ---------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// A compile that continues from its include block's shared prelude
// (frontend/Prelude.h) must produce the same artifact as the same
// pipeline translating the includes in place. Every program of the
// Juliet generator, the desktop suite, the custom undefinedness suite
// and the catalog coverage generator is compiled both ways; the two
// artifacts must agree on their AST dumps, declaration and builtin ids,
// rendered diagnostics, static findings and may-hints, and a strict
// root run of each must end the same way.
//
//===----------------------------------------------------------------------===//

#include "AstPrinter.h"

#include "core/Machine.h"
#include "frontend/Frontend.h"
#include "frontend/Prelude.h"
#include "libc/Headers.h"
#include "suites/CatalogCoverage.h"
#include "suites/DesktopSuite.h"
#include "suites/JulietGen.h"
#include "suites/UndefSuite.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

/// The artifact dump plus the outcome of a strict root run (which reads
/// declaration ids through every environment lookup).
std::string describe(const CompiledProgram &P) {
  std::string Out = dumpArtifact(P);
  if (!P.ok())
    return Out;
  MachineOptions MO;
  MO.StepLimit = 200'000;
  UbSink Sink;
  Machine M(P.ast(), MO, Sink);
  RunStatus Status = M.run();
  Out += strFormat("run status=%d exit=%d output=%s\n",
                   static_cast<int>(Status), M.config().ExitCode,
                   M.config().Output.c_str());
  for (const UbReport &R : Sink.all())
    Out += strFormat("  ub %u %s %u:%u\n", ubCode(R.Kind),
                     R.Function.c_str(), R.Loc.Line, R.Loc.Col);
  return Out;
}

struct Corpus {
  std::vector<std::pair<std::string, std::string>> Programs; // name, source
  void addPair(const TestCase &T) {
    Programs.push_back({T.Name + "_bad.c", T.Bad});
    Programs.push_back({T.Name + "_good.c", T.Good});
  }
};

/// Compiles every program both ways and counts those that really
/// continued from a prelude.
void expectSameArtifacts(const Corpus &C, size_t MinWithPrelude) {
  HeaderRegistry Headers;
  registerStandardHeaders(Headers);
  FrontendOptions Opts;
  size_t WithPrelude = 0, Mismatches = 0;
  for (const auto &[Name, Source] : C.Programs) {
    // Twice, so this compile continues from a prelude even when it is
    // the first of its include block.
    std::shared_ptr<const Prelude> P;
    for (int I = 0; I < 2; ++I)
      P = preludeFor(Opts, scanIncludePrefix(Source), Headers);
    WithPrelude += P != nullptr;
    std::string Shared = describe(*compileTranslationUnit(Opts, Source, Name,
                                                          Headers));
    std::string InPlace =
        describe(*compileWithPrelude(Opts, Source, Name, Headers, nullptr));
    if (Shared != InPlace && ++Mismatches <= 3)
      ADD_FAILURE() << Name << ": prelude compile differs from in place\n"
                    << "--- prelude:\n" << Shared << "--- in place:\n"
                    << InPlace << "--- source:\n" << Source;
  }
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_GE(WithPrelude, MinWithPrelude);
}

} // namespace

TEST(PreludeDifferential, JulietPrograms) {
  Corpus C;
  for (const TestCase &T : JulietGenerator().generate())
    C.addPair(T);
  ASSERT_EQ(C.Programs.size(), 8226u);
  // Every generated Juliet program starts with its includes.
  expectSameArtifacts(C, C.Programs.size());
}

TEST(PreludeDifferential, DesktopSuite) {
  DesktopSuite Suite = loadDesktopSuite();
  ASSERT_TRUE(Suite.ok()) << Suite.Error;
  Corpus C;
  for (const DesktopCase &D : Suite.Cases)
    C.addPair(D.Test);
  ASSERT_EQ(C.Programs.size(), 52u);
  expectSameArtifacts(C, 30);
}

TEST(PreludeDifferential, CustomSuite) {
  Corpus C;
  for (const TestCase &T : undefSuite())
    C.addPair(T);
  ASSERT_EQ(C.Programs.size(), 2 * 178u);
  expectSameArtifacts(C, 54);
}

TEST(PreludeDifferential, CatalogPrograms) {
  Corpus C;
  for (const CoverageCase &K : catalogCoverageCases())
    if (K.expressible())
      C.Programs.push_back({strFormat("catalog_%u.c", K.Id), K.Program});
  expectSameArtifacts(C, 60);
}
