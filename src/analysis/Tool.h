//===- analysis/Tool.h - Analysis tool interface ----------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four analysis tools the paper's evaluation compares (section 5):
///
///  * kcc            -- the strict semantics (this project's core),
///  * MemGrind       -- a Valgrind/Memcheck-style dynamic binary
///                      instrumentation model: shadow state over heap
///                      allocations and definedness, on the permissive
///                      (concrete) machine,
///  * PtrCheck       -- a CheckPointer-style pointer-safety instrumenter:
///                      per-pointer provenance and bounds for all storage,
///  * ValueAnalysis  -- a Frama-C-Value-style analyzer run in its
///                      "C interpreter" mode (the paper's footnote 10).
///
/// Each tool returns structured findings; the suite runners score them
/// against the expected verdicts to regenerate Figures 2 and 3.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_ANALYSIS_TOOL_H
#define CUNDEF_ANALYSIS_TOOL_H

#include "core/Machine.h"
#include "driver/Driver.h"
#include "ub/Report.h"

#include <memory>
#include <string>

namespace cundef {

enum class ToolKind : uint8_t { Kcc, MemGrind, PtrCheck, ValueAnalysis };

const char *toolName(ToolKind Kind);

/// What a tool said about one program.
struct ToolResult {
  bool CompileOk = true;
  std::vector<UbReport> Findings;
  RunStatus Status = RunStatus::Completed;
  int ExitCode = 0;
  std::string Output;
  double Micros = 0.0;

  /// kcc's result: static findings first, then dynamic ones.
  static ToolResult fromOutcome(DriverOutcome Outcome, double Micros);

  bool flagged() const { return !Findings.empty(); }
  bool flaggedKind(UbKind Kind) const {
    for (const UbReport &R : Findings)
      if (R.Kind == Kind)
        return true;
    return false;
  }
};

class Tool {
public:
  virtual ~Tool() = default;

  /// Analyzes one program (compiles and, for the dynamic tools, runs it).
  virtual ToolResult analyze(const std::string &Source,
                             const std::string &Name) = 0;
  virtual const char *name() const = 0;

  /// \p SearchJobs: worker threads for kcc's evaluation-order search,
  /// 0 = auto-detect hardware concurrency (the baselines execute one
  /// concrete run and ignore it).
  static std::unique_ptr<Tool> create(ToolKind Kind,
                                      TargetConfig Target =
                                          TargetConfig::lp64(),
                                      unsigned SearchJobs = 1);
};

/// Shared implementation for the monitor-based baselines: compile with
/// the common frontend, run the permissive machine with the monitor
/// attached, collect the monitor's findings. A hardware fault counts as
/// a detection when \p ReportFaults (the modelled tools all report
/// crashes of their target).
class MonitorTool : public Tool {
public:
  explicit MonitorTool(TargetConfig Target) : Target(Target) {}

  ToolResult analyze(const std::string &Source,
                     const std::string &Name) override;

protected:
  /// Creates this tool's monitor; findings go into \p Sink.
  virtual std::unique_ptr<ExecMonitor> makeMonitor(UbSink &Sink) = 0;
  virtual bool reportFaults() const { return true; }

  TargetConfig Target;
};

} // namespace cundef

#endif // CUNDEF_ANALYSIS_TOOL_H
