//===- suites/SuiteRunner.h - Scoring tools on suites ------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scores analysis tools on the two benchmarks and renders the paper's
/// Figure 2 (Juliet classes x tools) and Figure 3 (static/dynamic
/// detection on the custom suite) tables. Scoring follows the paper:
/// a test pair passes when the undefined program is flagged and its
/// defined control is not; Figure 3 averages *across behaviors*, "no
/// behavior weighted more than another".
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUITES_SUITERUNNER_H
#define CUNDEF_SUITES_SUITERUNNER_H

#include "analysis/Tool.h"
#include "suites/DesktopSuite.h"
#include "suites/TestCase.h"

#include <map>
#include <string>
#include <vector>

namespace cundef {

/// Figure 2: one tool's results on one Juliet class.
struct ClassScore {
  JulietClass Class = JulietClass::InvalidPointer;
  unsigned Tests = 0;
  unsigned Passed = 0;
  unsigned FalsePositives = 0;

  double percent() const { return Tests ? 100.0 * Passed / Tests : 0.0; }
};

struct JulietScores {
  std::vector<ClassScore> PerClass;
  double MeanMicrosPerTest = 0.0;
};

JulietScores scoreJuliet(Tool &T, const std::vector<TestCase> &Tests);

/// Figure 3: one tool's per-behavior results on the custom suite.
struct BehaviorScore {
  uint16_t CatalogId = 0;
  bool Static = false;
  unsigned Tests = 0;
  unsigned Passed = 0;
};

struct CustomScores {
  std::vector<BehaviorScore> PerBehavior;
  /// Percent of behaviors detected, averaged per behavior.
  double StaticPct = 0.0;
  double DynamicPct = 0.0;
};

CustomScores scoreCustom(Tool &T, const std::vector<TestCase> &Tests);

/// One desktop case's scored outcome against its manifest expectation.
struct DesktopCaseScore {
  std::string Name;
  bool ExpectFlagged = true;
  uint16_t ExpectedCode = 0;
  bool FlaggedBad = false;
  bool FlaggedGood = false; ///< always a failure: the control is defined
  /// The bad half was flagged by the static layer alone — the finding
  /// carries StaticFinding, so no execution was needed to prove it.
  bool StaticCaught = false;
  /// First code reported on the bad half (0 when clean).
  uint16_t ReportedCode = 0;
  double Micros = 0.0;

  /// The case meets its contract: the bad half's verdict matches the
  /// manifest (including the expected code, when flagged) and the good
  /// half is clean.
  bool asExpected() const {
    return !FlaggedGood && FlaggedBad == ExpectFlagged &&
           (!ExpectFlagged || ReportedCode == ExpectedCode);
  }
};

/// The whole desktop suite, scored. AsExpected == PerCase.size() is the
/// suite's green state; the partitions below explain any shortfall.
struct DesktopScores {
  std::vector<DesktopCaseScore> PerCase;
  unsigned AsExpected = 0;
  unsigned Detected = 0;      ///< bad halves flagged (any code)
  unsigned StaticDetected = 0;///< bad halves static analysis alone catches
  unsigned WrongCode = 0;     ///< flagged as expected but wrong code
  unsigned MissedExpected = 0;///< 'flag' cases that came back clean
  unsigned KnownMisses = 0;   ///< 'miss' cases that stayed missed
  unsigned FalsePositives = 0;///< flagged good halves
  double WallMs = 0.0;
};

/// Scores the desktop suite batched through one shared engine worker
/// pool (runKccBatched), so the pool stays busy across the whole suite
/// instead of draining per case. Verdicts and reported codes are
/// deterministic across worker count (the determinism contract of
/// core/Scheduler.h).
DesktopScores scoreDesktopBatched(const AnalysisRequest &Req,
                                  const std::vector<DesktopCase> &Cases);

/// Renders the per-case desktop table plus a summary line; the final
/// line is the stable machine-greppable summary
/// `desktop: as-expected=N detected=N static=N wrong-code=N missed=N
/// known-miss=N false-pos=N total=N`.
std::string renderDesktopTable(const DesktopScores &S);

/// Renders the Figure 2 table for several tools.
std::string
renderFigure2(const std::vector<std::pair<std::string, JulietScores>> &Rows);

/// Renders the Figure 3 table.
std::string
renderFigure3(const std::vector<std::pair<std::string, CustomScores>> &Rows);

} // namespace cundef

#endif // CUNDEF_SUITES_SUITERUNNER_H
