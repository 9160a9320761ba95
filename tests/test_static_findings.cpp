//===- tests/test_static_findings.cpp - Corpus-scale findings gate -------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// Every static finding and may-hint of every corpus program, pinned by
// a committed dump (tests/golden/static_findings.txt). Per suite the
// dump holds a digest of the sorted list of (program, code, verdict,
// domain, function, line, col) and the finding counts per (domain,
// code, verdict). The suites are the Juliet generator, the desktop
// files, the custom undefinedness suite, the catalog coverage programs
// and generated functions of N locals and N one-line `if`s (N <= 200).
//
// A change that claims to keep the analysis must leave the dump
// byte-identical. After an intended change, regenerate it with
//   STATIC_FINDINGS_OUT=tests/golden/static_findings.txt \
//     ./build/test_static_findings
// and say which counts moved and why.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "libc/Headers.h"
#include "suites/CatalogCoverage.h"
#include "suites/DesktopSuite.h"
#include "suites/JulietGen.h"
#include "suites/UndefSuite.h"
#include "support/Strings.h"
#include "text/Preprocessor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

using namespace cundef;

namespace {

using Program = std::pair<std::string, std::string>; // name, source

/// A function of \p N int locals (even ones initialized, odd ones not)
/// followed by \p N one-line `if`s, each reading one local and dividing
/// by it. cmake/CheckFlowWorstCase.cmake writes the same shape at
/// N = 1000 and N = 2000.
std::string nLocalsProgram(unsigned N) {
  std::string Src = "int main(void) {\n";
  for (unsigned I = 0; I < N; ++I)
    Src += I % 2 ? strFormat("  int x%u;\n", I)
                 : strFormat("  int x%u = %u;\n", I, I % 3);
  for (unsigned I = 0; I < N; ++I)
    Src += strFormat("  if (x%u < 5) x%u = 10 / x%u;\n", I, (I + 1) % N, I);
  return Src + "  return 0;\n}\n";
}

struct Suite {
  std::string Name;
  std::vector<Program> Programs;
  void addPair(const TestCase &T) {
    Programs.push_back({T.Name + "_bad.c", T.Bad});
    Programs.push_back({T.Name + "_good.c", T.Good});
  }
};

std::vector<Suite> corpora() {
  std::vector<Suite> Out(5);
  Out[0].Name = "juliet";
  for (const TestCase &T : JulietGenerator().generate())
    Out[0].addPair(T);
  Out[1].Name = "desktop";
  DesktopSuite Desktop = loadDesktopSuite();
  EXPECT_TRUE(Desktop.ok()) << Desktop.Error;
  for (const DesktopCase &D : Desktop.Cases)
    Out[1].addPair(D.Test);
  Out[2].Name = "custom";
  for (const TestCase &T : undefSuite())
    Out[2].addPair(T);
  Out[3].Name = "catalog";
  for (const CoverageCase &K : catalogCoverageCases())
    if (K.expressible())
      Out[3].Programs.push_back({strFormat("catalog_%u.c", K.Id), K.Program});
  Out[4].Name = "nlocals";
  for (unsigned N : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u, 144u, 200u})
    Out[4].Programs.push_back(
        {strFormat("nlocals_%u.c", N), nLocalsProgram(N)});
  return Out;
}

uint64_t fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// The dump of one suite: a header line with the digest, then one line
/// per (domain, code, verdict) with its count.
std::string dumpSuite(const Suite &S, const HeaderRegistry &Headers) {
  FrontendOptions Opts;
  std::vector<std::string> Rows;
  std::map<std::tuple<std::string, unsigned, std::string>, size_t> Counts;
  for (const auto &[Name, Source] : S.Programs) {
    CompiledProgramRef P = compileTranslationUnit(Opts, Source, Name, Headers);
    for (const auto *List : {&P->staticUb(), &P->staticHints()})
      for (const UbReport &R : *List) {
        std::string Verdict = enumName(FindingVerdictNames, R.Verdict);
        Rows.push_back(strFormat("%s %05u %s %s %s %u:%u", Name.c_str(),
                                 ubCode(R.Kind), Verdict.c_str(), R.Domain,
                                 R.Function.c_str(), R.Loc.Line, R.Loc.Col));
        ++Counts[{R.Domain, ubCode(R.Kind), Verdict}];
      }
  }
  std::sort(Rows.begin(), Rows.end());
  uint64_t Digest = 14695981039346656037ull;
  for (const std::string &Row : Rows)
    Digest = fnv1a(Row + "\n", Digest);
  std::string Out =
      strFormat("suite %s programs=%zu findings=%zu digest=%016llx\n",
                S.Name.c_str(), S.Programs.size(), Rows.size(),
                static_cast<unsigned long long>(Digest));
  for (const auto &[Key, Count] : Counts)
    Out += strFormat("  %s %s %05u %s %zu\n", S.Name.c_str(),
                     std::get<0>(Key).c_str(), std::get<1>(Key),
                     std::get<2>(Key).c_str(), Count);
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Out.push_back(Line);
  return Out;
}

} // namespace

TEST(StaticFindings, CorporaMatchTheCommittedDump) {
  HeaderRegistry Headers;
  registerStandardHeaders(Headers);
  std::string Dump =
      "# Static findings and hints per suite: digest of the sorted\n"
      "# (program, code, verdict, domain, function, line:col) list, then\n"
      "# counts per (domain, code, verdict). tests/test_static_findings.cpp\n"
      "# says how to regenerate it.\n";
  for (const Suite &S : corpora())
    Dump += dumpSuite(S, Headers);

  if (const char *Out = std::getenv("STATIC_FINDINGS_OUT")) {
    std::ofstream(Out) << Dump;
    GTEST_SKIP() << "wrote " << Out;
  }
  std::string Golden =
      readFile(std::string(CUNDEF_TEST_GOLDEN_DIR) + "/static_findings.txt");
  ASSERT_FALSE(Golden.empty()) << "missing tests/golden/static_findings.txt";
  if (Dump == Golden)
    return;
  // Show the digest and count lines that differ on either side.
  std::vector<std::string> Want = lines(Golden), Got = lines(Dump);
  std::string Diff;
  for (const std::string &L : Want)
    if (std::find(Got.begin(), Got.end(), L) == Got.end())
      Diff += "- " + L + "\n";
  for (const std::string &L : Got)
    if (std::find(Want.begin(), Want.end(), L) == Want.end())
      Diff += "+ " + L + "\n";
  ADD_FAILURE() << "static findings differ from the committed dump "
                   "(- committed, + now):\n"
                << Diff << "full table now:\n"
                << Dump;
}
