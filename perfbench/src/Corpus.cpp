//===- perfbench/src/Corpus.cpp - Seeded inputs and their oracle ----------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The expected answers here are written by hand from what each program
// does, never read back from kcc: a Juliet bad half must be reported
// under one of its class's catalog codes and a good half must come back
// clean; desktop cases follow tests/suites/desktop/manifest.txt; plain
// deep trees are clean and the hidden-UB sums report 00001.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "BenchUtil.h"
#include "suites/DesktopSuite.h"
#include "suites/JulietGen.h"

#include <algorithm>
#include <cstdio>

using namespace cundef;
using namespace perfbench;

namespace {

/// The Juliet-like generator's layout (suites/JulietGen.cpp): test I of
/// a class has subkind I % Subkinds and flow variant (I / Subkinds) % 8.
/// A draw picks a (subkind, variant) stratum in rotation and a random
/// parameter row inside it, so every batch has the same shape mix.
struct JulietClassInfo {
  JulietClass Class;
  unsigned Subkinds;
  unsigned PerBatch; ///< pairs of this class in one suite-sweep batch
  /// Catalog codes that name this class's flaws (docs/UB_CATALOG.md).
  std::vector<uint16_t> Codes;
};

const std::vector<JulietClassInfo> &julietClasses() {
  static const std::vector<JulietClassInfo> Classes = {
      // Null, dangling, out-of-bounds, freed, dead, one-past and
      // uninitialized-pointer dereferences; pointers used after their
      // object's lifetime ended; overflowing string copies.
      {JulietClass::InvalidPointer, 10, 384,
       {6, 8, 9, 10, 11, 12, 13, 29, 30, 33, 36, 47, 53}},
      {JulietClass::DivideByZero, 5, 16, {1, 2, 48}},
      // free() of a non-heap or interior pointer; double free.
      {JulietClass::BadFree, 5, 40, {20, 21}},
      // Indeterminate values, including an uninitialized pointer.
      {JulietClass::UninitializedMemory, 7, 48, {19, 30}},
      // Calls through a pointer of the wrong type or arity.
      {JulietClass::BadFunctionCall, 3, 12, {22, 23}},
      {JulietClass::IntegerOverflow, 4, 12, {3}},
  };
  return Classes;
}

constexpr unsigned NumVariants = 8;

/// Every class's generated tests, built once per process.
const std::vector<std::vector<TestCase>> &julietTests() {
  static const std::vector<std::vector<TestCase>> Tests = [] {
    std::vector<std::vector<TestCase>> T;
    JulietGenerator Gen;
    for (const JulietClassInfo &C : julietClasses())
      T.push_back(Gen.generateClass(C.Class));
    return T;
  }();
  return Tests;
}

/// One stratified draw from class \p K.
const TestCase &drawJuliet(Rng &R, size_t K) {
  const JulietClassInfo &C = julietClasses()[K];
  const std::vector<TestCase> &Tests = julietTests()[K];
  const unsigned Strata = C.Subkinds * NumVariants;
  const unsigned N = static_cast<unsigned>(Tests.size());
  unsigned Stratum = R.below(std::min(Strata, N));
  unsigned Rows = (N - 1 - Stratum) / Strata + 1;
  return Tests[Stratum + Strata * R.below(Rows)];
}

Program julietProgram(const TestCase &T, const JulietClassInfo &C,
                      const std::string &Prefix, bool Bad) {
  Program P;
  P.Name = Prefix + T.Name + (Bad ? "_bad.c" : "_good.c");
  P.Source = Bad ? T.Bad : T.Good;
  P.Want.Undefined = Bad;
  if (Bad)
    P.Want.Codes = C.Codes;
  return P;
}

std::string hiddenDivZeroSums(unsigned Pairs, unsigned Salt) {
  char Head[200];
  std::snprintf(Head, sizeof(Head),
                "int d = 5;\n"
                "static int g(int x) { return x + %u; }\n"
                "static int setDenom(int x) { return d = x; }\n"
                "int main(void) {\n  int t = 0;\n",
                Salt);
  std::string S = Head;
  for (unsigned I = 0; I < Pairs; ++I) {
    char Line[64];
    std::snprintf(Line, sizeof(Line), "  t += g(%u) + g(%u);\n", 2 * I,
                  2 * I + 1);
    S += Line;
  }
  // Left to right divides by 5; the search must find the order that
  // runs setDenom(0) first.
  S += "  t += (10 / d) + setDenom(0);\n  return t > 0 ? 0 : 1;\n}\n";
  return S;
}

} // namespace

Corpus::Corpus(uint64_t Seed, std::string DesktopDir)
    : Seed(Seed), DesktopDir(std::move(DesktopDir)) {}

bool Corpus::load(std::string &Err) {
  DesktopSuite Suite = loadDesktopSuite(DesktopDir);
  if (!Suite.ok()) {
    Err = Suite.Error;
    return false;
  }
  for (const DesktopCase &C : Suite.Cases) {
    DesktopPair P{C.Test.Name, C.Test.Bad, C.Test.Good, Expect()};
    // "flag N": the bad half is reported under N. "miss 0": a documented
    // model gap, so the bad half comes back clean.
    P.BadWant.Undefined = C.ExpectFlagged;
    if (C.ExpectFlagged)
      P.BadWant.Codes = {C.ExpectedCode};
    Desktop.push_back(std::move(P));
  }
  if (Desktop.empty()) {
    Err = "desktop suite is empty";
    return false;
  }
  julietTests(); // generate outside any timed phase
  return true;
}

std::vector<Program> Corpus::sweepBatch(Rng &R, const std::string &Tag) const {
  const std::string Prefix = "s" + std::to_string(Seed) + "-" + Tag + "-";
  std::vector<Program> Out;
  for (size_t K = 0; K < julietClasses().size(); ++K)
    for (unsigned I = 0; I < julietClasses()[K].PerBatch; ++I) {
      const TestCase &T = drawJuliet(R, K);
      // Two draws of one row in a batch get distinct names.
      std::string Row = Prefix + std::to_string(I) + "-";
      Out.push_back(julietProgram(T, julietClasses()[K], Row, true));
      Out.push_back(julietProgram(T, julietClasses()[K], Row, false));
    }
  for (const DesktopPair &D : Desktop) {
    Out.push_back({Prefix + D.Name + "_bad.c", D.Bad, D.BadWant, false});
    Out.push_back({Prefix + D.Name + "_good.c", D.Good, Expect(), false});
  }
  return Out;
}

Program Corpus::julietHalf(Rng &R, const std::string &Tag, bool Bad) const {
  // Classes weighted by their per-batch share, like the sweep.
  unsigned Total = 0;
  for (const JulietClassInfo &C : julietClasses())
    Total += C.PerBatch;
  unsigned Pick = R.below(Total);
  size_t K = 0;
  while (Pick >= julietClasses()[K].PerBatch)
    Pick -= julietClasses()[K++].PerBatch;
  const std::string Prefix = "s" + std::to_string(Seed) + "-" + Tag + "-";
  return julietProgram(drawJuliet(R, K), julietClasses()[K], Prefix, Bad);
}

Program Corpus::deepProgram(Rng &R, unsigned Index,
                            const std::string &Tag) const {
  struct Shape {
    bool HiddenUb;
    unsigned Pairs, Cells;
  };
  static const Shape Shapes[] = {
      {false, 8, 128}, {false, 10, 512}, {true, 8, 0},   {false, 9, 256},
      {false, 10, 128}, {true, 10, 0},   {false, 8, 512}, {false, 9, 128},
  };
  const Shape &S = Shapes[Index % (sizeof(Shapes) / sizeof(Shapes[0]))];
  const unsigned Salt = 1 + R.below(100000);
  Program P;
  P.Name = "s" + std::to_string(Seed) + "-" + Tag + "-" +
           (S.HiddenUb ? "sums" : "tree") + std::to_string(S.Pairs) + "x" +
           std::to_string(S.Cells) + "-" + std::to_string(Salt) + ".c";
  if (S.HiddenUb) {
    P.Source = hiddenDivZeroSums(S.Pairs, Salt);
    P.Want.Undefined = true;
    P.Want.Codes = {1};
  } else {
    P.Source = cundef_bench::deepTreeProgram(S.Pairs, S.Cells, Salt);
  }
  return P;
}

Program Corpus::smallTree(Rng &R, const std::string &Tag) const {
  const unsigned Salt = 1 + R.below(100000);
  Program P;
  P.Name = "s" + std::to_string(Seed) + "-" + Tag + "-tree5x64-" +
           std::to_string(Salt) + ".c";
  P.Source = cundef_bench::deepTreeProgram(5, 64, Salt);
  return P;
}

Program Corpus::setupProgram(unsigned Index) const {
  const size_t DivZero = 1;
  return julietProgram(julietTests()[DivZero].front(),
                       julietClasses()[DivZero],
                       "s" + std::to_string(Seed) + "-setup" +
                           std::to_string(Index) + "-",
                       true);
}

uint16_t perfbench::firstCode(const DriverOutcome &O) {
  if (!O.StaticUb.empty())
    return ubCode(O.StaticUb.front().Kind);
  if (!O.DynamicUb.empty())
    return ubCode(O.DynamicUb.front().Kind);
  return 0;
}

bool perfbench::verdictMatches(const DriverOutcome &O, const Expect &E,
                               std::string &Why) {
  if (!O.CompileOk && !O.anyUb()) {
    Why = "compile error: " + O.CompileErrors.substr(0, 120);
    return false;
  }
  const uint16_t Code = firstCode(O);
  if (!E.Undefined) {
    if (O.anyUb()) {
      Why = "false positive " + std::to_string(Code);
      return false;
    }
    if (O.Status != RunStatus::Completed) {
      Why = "clean program did not complete (status " +
            std::to_string(static_cast<int>(O.Status)) + ")";
      return false;
    }
    return true;
  }
  if (!O.anyUb()) {
    Why = "undefined program reported clean";
    return false;
  }
  if (std::find(E.Codes.begin(), E.Codes.end(), Code) == E.Codes.end()) {
    Why = "reported code " + std::to_string(Code) + " outside the expected set";
    return false;
  }
  return true;
}
