//===- suites/SuiteRunner.cpp - Scoring tools on suites ------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "suites/SuiteRunner.h"

#include "driver/ToolRunner.h"
#include "support/Strings.h"

#include <chrono>

using namespace cundef;

namespace {

/// Folds per-pair verdicts into Figure 2 scores.
JulietScores aggregateJuliet(const std::vector<TestCase> &Tests,
                             const std::vector<PairVerdict> &Verdicts) {
  std::map<JulietClass, ClassScore> ByClass;
  double TotalMicros = 0.0;
  unsigned TotalTests = 0;
  for (size_t I = 0; I < Tests.size(); ++I) {
    const PairVerdict &Verdict = Verdicts[I];
    ClassScore &Score = ByClass[Tests[I].Class];
    Score.Class = Tests[I].Class;
    ++Score.Tests;
    if (Verdict.passed())
      ++Score.Passed;
    if (Verdict.FlaggedGood)
      ++Score.FalsePositives;
    TotalMicros += Verdict.Micros;
    TotalTests += 2; // bad + good
  }
  JulietScores Scores;
  for (JulietClass Class :
       {JulietClass::InvalidPointer, JulietClass::DivideByZero,
        JulietClass::BadFree, JulietClass::UninitializedMemory,
        JulietClass::BadFunctionCall, JulietClass::IntegerOverflow}) {
    auto It = ByClass.find(Class);
    if (It != ByClass.end())
      Scores.PerClass.push_back(It->second);
  }
  Scores.MeanMicrosPerTest = TotalTests ? TotalMicros / TotalTests : 0.0;
  return Scores;
}

} // namespace

JulietScores cundef::scoreJuliet(Tool &T, const std::vector<TestCase> &Tests) {
  std::vector<PairVerdict> Verdicts;
  Verdicts.reserve(Tests.size());
  for (const TestCase &Test : Tests)
    Verdicts.push_back(runOnPair(T, Test));
  return aggregateJuliet(Tests, Verdicts);
}

namespace {

CustomScores aggregateCustom(const std::vector<TestCase> &Tests,
                             const std::vector<PairVerdict> &Verdicts) {
  struct Accum {
    bool Static = false;
    unsigned Tests = 0;
    unsigned Passed = 0;
  };
  std::map<uint16_t, Accum> ByBehavior;
  for (size_t I = 0; I < Tests.size(); ++I) {
    Accum &A = ByBehavior[Tests[I].CatalogId];
    A.Static = Tests[I].StaticBehavior;
    ++A.Tests;
    if (Verdicts[I].passed())
      ++A.Passed;
  }
  CustomScores Scores;
  double StaticSum = 0.0, DynamicSum = 0.0;
  unsigned StaticBehaviors = 0, DynamicBehaviors = 0;
  for (const auto &[Id, A] : ByBehavior) {
    BehaviorScore Score;
    Score.CatalogId = Id;
    Score.Static = A.Static;
    Score.Tests = A.Tests;
    Score.Passed = A.Passed;
    Scores.PerBehavior.push_back(Score);
    double Fraction = A.Tests ? static_cast<double>(A.Passed) / A.Tests : 0.0;
    if (A.Static) {
      StaticSum += Fraction;
      ++StaticBehaviors;
    } else {
      DynamicSum += Fraction;
      ++DynamicBehaviors;
    }
  }
  Scores.StaticPct = StaticBehaviors ? 100.0 * StaticSum / StaticBehaviors
                                     : 0.0;
  Scores.DynamicPct = DynamicBehaviors ? 100.0 * DynamicSum / DynamicBehaviors
                                       : 0.0;
  return Scores;
}

} // namespace

CustomScores cundef::scoreCustom(Tool &T, const std::vector<TestCase> &Tests) {
  std::vector<PairVerdict> Verdicts;
  Verdicts.reserve(Tests.size());
  for (const TestCase &Test : Tests)
    Verdicts.push_back(runOnPair(T, Test));
  return aggregateCustom(Tests, Verdicts);
}

DesktopScores
cundef::scoreDesktopBatched(const AnalysisRequest &Req,
                            const std::vector<DesktopCase> &Cases) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<BatchInput> Programs;
  Programs.reserve(Cases.size() * 2);
  for (const DesktopCase &Case : Cases) {
    Programs.push_back({Case.Test.Bad, Case.Test.Name + "_bad.c"});
    Programs.push_back({Case.Test.Good, Case.Test.Name + "_good.c"});
  }
  std::vector<ToolResult> Results = runKccBatched(Req, Programs);

  DesktopScores Scores;
  Scores.PerCase.reserve(Cases.size());
  for (size_t I = 0; I < Cases.size(); ++I) {
    const ToolResult &Bad = Results[2 * I];
    const ToolResult &Good = Results[2 * I + 1];
    DesktopCaseScore Score;
    Score.Name = Cases[I].Test.Name;
    Score.ExpectFlagged = Cases[I].ExpectFlagged;
    Score.ExpectedCode = Cases[I].ExpectedCode;
    Score.FlaggedBad = Bad.flagged();
    Score.FlaggedGood = Good.flagged();
    for (const UbReport &R : Bad.Findings)
      if (R.StaticFinding)
        Score.StaticCaught = true;
    if (Score.FlaggedBad)
      Score.ReportedCode = static_cast<uint16_t>(Bad.Findings.front().Kind);
    Score.Micros = Bad.Micros + Good.Micros;

    if (Score.asExpected())
      ++Scores.AsExpected;
    if (Score.FlaggedBad)
      ++Scores.Detected;
    if (Score.StaticCaught)
      ++Scores.StaticDetected;
    if (Score.ExpectFlagged && Score.FlaggedBad &&
        Score.ReportedCode != Score.ExpectedCode)
      ++Scores.WrongCode;
    if (Score.ExpectFlagged && !Score.FlaggedBad)
      ++Scores.MissedExpected;
    if (!Score.ExpectFlagged && !Score.FlaggedBad)
      ++Scores.KnownMisses;
    if (Score.FlaggedGood)
      ++Scores.FalsePositives;
    Scores.PerCase.push_back(std::move(Score));
  }
  Scores.WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  return Scores;
}

std::string cundef::renderDesktopTable(const DesktopScores &S) {
  std::string Out;
  Out += "Desktop-C suite: slice-sized argv/file-I/O/string idioms, one\n"
         "(bad, good) pair per case, scored against manifest "
         "expectations.\n\n";
  Out += padRight("Case", 24) + padRight("Expect", 12) +
         padRight("Bad half", 16) + padRight("Good half", 10) +
         "Verdict\n";
  Out += std::string(69, '-') + "\n";
  for (const DesktopCaseScore &C : S.PerCase) {
    std::string Expect = C.ExpectFlagged
                             ? strFormat("flag %05u", C.ExpectedCode)
                             : std::string("miss");
    std::string BadHalf = C.FlaggedBad
                              ? strFormat("UB %05u", C.ReportedCode)
                              : std::string("clean");
    Out += padRight(C.Name, 24) + padRight(Expect, 12) +
           padRight(BadHalf, 16) +
           padRight(C.FlaggedGood ? "FLAGGED" : "clean", 10) +
           (C.asExpected() ? "ok" : "UNEXPECTED") + "\n";
  }
  Out += strFormat("\ndesktop: as-expected=%u detected=%u static=%u "
                   "wrong-code=%u missed=%u known-miss=%u false-pos=%u "
                   "total=%zu\n",
                   S.AsExpected, S.Detected, S.StaticDetected, S.WrongCode,
                   S.MissedExpected, S.KnownMisses, S.FalsePositives,
                   S.PerCase.size());
  return Out;
}

std::string cundef::renderFigure2(
    const std::vector<std::pair<std::string, JulietScores>> &Rows) {
  std::string Out;
  Out += "Figure 2. Comparison of analysis tools on the Juliet-like "
         "suite (% passed)\n\n";
  Out += padRight("Undefined Behavior", 26) + padLeft("No. Tests", 10);
  for (const auto &[Name, Scores] : Rows) {
    (void)Scores;
    Out += padLeft(Name, 15);
  }
  Out += "\n" + std::string(26 + 10 + 15 * Rows.size(), '-') + "\n";
  if (Rows.empty())
    return Out;
  size_t NumClasses = Rows.front().second.PerClass.size();
  for (size_t C = 0; C < NumClasses; ++C) {
    const ClassScore &First = Rows.front().second.PerClass[C];
    Out += padRight(julietClassName(First.Class), 26) +
           padLeft(strFormat("%u", First.Tests), 10);
    for (const auto &[Name, Scores] : Rows) {
      (void)Name;
      Out += padLeft(strFormat("%.1f", Scores.PerClass[C].percent()), 15);
    }
    Out += "\n";
  }
  Out += "\nMean time per test:";
  for (const auto &[Name, Scores] : Rows)
    Out += strFormat("  %s %.1f ms", Name.c_str(),
                     Scores.MeanMicrosPerTest / 1000.0);
  Out += "\n";
  return Out;
}

std::string cundef::renderFigure3(
    const std::vector<std::pair<std::string, CustomScores>> &Rows) {
  std::string Out;
  Out += "Figure 3. Comparison of analysis tools against the custom "
         "undefinedness suite.\nAverages are across behaviors; no "
         "behavior is weighted more than another.\n\n";
  Out += padRight("Tools", 16) + padLeft("Static (% Passed)", 20) +
         padLeft("Dynamic (% Passed)", 21) + "\n";
  Out += std::string(57, '-') + "\n";
  for (const auto &[Name, Scores] : Rows) {
    Out += padRight(Name, 16) +
           padLeft(strFormat("%.1f", Scores.StaticPct), 20) +
           padLeft(strFormat("%.1f", Scores.DynamicPct), 21) + "\n";
  }
  return Out;
}
