//===- ub/Report.h - Undefinedness reports ---------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured findings produced by the checkers, and the kcc-style
/// renderer reproducing the paper's report format (section 3.2):
///
///   ERROR! KCC encountered an error.
///   ===============================================
///   Error: 00016
///   Description: Unsequenced side effect on scalar
///   object with side effect of same object.
///   ===============================================
///   Function: main
///   Line: 3
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_UB_REPORT_H
#define CUNDEF_UB_REPORT_H

#include "support/SourceLoc.h"
#include "support/Strings.h"
#include "ub/UbKind.h"

#include <string>
#include <vector>

namespace cundef {

/// Static-analysis confidence attached to a finding. Dynamic findings
/// carry None (the run witnessed the behavior, so confidence is not a
/// question); static findings are Must (UB whenever the program point
/// is reached — the abstract state proves it) or May (UB on at least
/// one abstract path — a triage hint, never part of the verdict).
enum class FindingVerdict : uint8_t { None, Must, May };

inline constexpr EnumName<FindingVerdict> FindingVerdictNames[] = {
    {FindingVerdict::None, "none"}, {FindingVerdict::Must, "must"},
    {FindingVerdict::May, "may"}};

/// One undefinedness finding.
struct UbReport {
  UbKind Kind = UbKind::None;
  std::string Description;
  std::string Function; ///< enclosing function name, or "<file scope>"
  SourceLoc Loc;
  bool StaticFinding = false; ///< found without executing the program
  FindingVerdict Verdict = FindingVerdict::None;
  /// Which static layer produced the finding ("syntactic", "nullness",
  /// "init", "interval"); empty for dynamic findings. Always a string
  /// literal, never owned.
  const char *Domain = "";

  UbReport() = default;
  UbReport(UbKind Kind, std::string Description, std::string Function,
           SourceLoc Loc, bool StaticFinding = false)
      : Kind(Kind), Description(std::move(Description)),
        Function(std::move(Function)), Loc(Loc),
        StaticFinding(StaticFinding) {}
};

/// Accumulates findings; shared between the static checker and the
/// dynamic machine.
class UbSink {
public:
  void report(UbReport Report) { Reports.push_back(std::move(Report)); }
  void report(UbKind Kind, std::string Function, SourceLoc Loc,
              bool StaticFinding = false) {
    Reports.emplace_back(Kind, ubShortDescription(Kind), std::move(Function),
                         Loc, StaticFinding);
  }

  bool empty() const { return Reports.empty(); }
  size_t size() const { return Reports.size(); }
  const std::vector<UbReport> &all() const { return Reports; }
  void clear() { Reports.clear(); }

  /// True if any finding has the given kind.
  bool has(UbKind Kind) const {
    for (const UbReport &R : Reports)
      if (R.Kind == Kind)
        return true;
    return false;
  }

private:
  std::vector<UbReport> Reports;
};

/// Renders one finding in the paper's kcc format.
std::string renderKccError(const UbReport &Report);

/// Renders every finding, separated by blank lines.
std::string renderKccErrors(const std::vector<UbReport> &Reports);

} // namespace cundef

#endif // CUNDEF_UB_REPORT_H
