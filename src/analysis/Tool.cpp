//===- analysis/Tool.cpp - Analysis tool interface -----------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "analysis/Tool.h"

#include "analysis/MemGrind.h"
#include "analysis/PtrCheck.h"
#include "analysis/ValueAnalysis.h"

#include <chrono>

using namespace cundef;

const char *cundef::toolName(ToolKind Kind) {
  switch (Kind) {
  case ToolKind::Kcc:           return "kcc";
  case ToolKind::MemGrind:      return "MemGrind";
  case ToolKind::PtrCheck:      return "PtrCheck";
  case ToolKind::ValueAnalysis: return "ValueAnalysis";
  }
  return "?";
}

ToolResult ToolResult::fromOutcome(DriverOutcome Outcome, double Micros) {
  ToolResult Result;
  Result.CompileOk = Outcome.CompileOk;
  Result.Findings = std::move(Outcome.StaticUb);
  Result.Findings.insert(Result.Findings.end(), Outcome.DynamicUb.begin(),
                         Outcome.DynamicUb.end());
  Result.Status = Outcome.Status;
  Result.ExitCode = Outcome.ExitCode;
  Result.Output = std::move(Outcome.Output);
  Result.Micros = Micros;
  return Result;
}

namespace {

/// kcc: the strict semantics with static checks and order search.
class KccTool : public Tool {
public:
  explicit KccTool(TargetConfig Target, unsigned SearchJobs = 1) {
    Drv = std::make_unique<Driver>(AnalysisRequest::Builder()
                                       .target(Target)
                                       .strict(true)
                                       .staticChecks(true)
                                       .searchRuns(8)
                                       .searchJobs(SearchJobs)
                                       .buildOrDie());
  }

  ToolResult analyze(const std::string &Source,
                     const std::string &Name) override {
    auto Start = std::chrono::steady_clock::now();
    DriverOutcome Outcome = Drv->runSource(Source, Name);
    auto End = std::chrono::steady_clock::now();
    return ToolResult::fromOutcome(
        std::move(Outcome),
        std::chrono::duration<double, std::micro>(End - Start).count());
  }
  const char *name() const override { return "kcc"; }

private:
  std::unique_ptr<Driver> Drv;
};

} // namespace

ToolResult MonitorTool::analyze(const std::string &Source,
                                const std::string &Name) {
  auto Start = std::chrono::steady_clock::now();
  ToolResult Result;

  Driver Drv(AnalysisRequest::Builder()
                 .target(Target)
                 .staticChecks(false)
                 .buildOrDie());
  Driver::Compiled C = Drv.compile(Source, Name);
  if (!C->ok()) {
    Result.CompileOk = false;
    Result.Status = RunStatus::Internal;
    return Result;
  }

  UbSink MonitorSink;   // the tool's findings
  UbSink MachineSink;   // the machine's own reports (discarded)
  MachineOptions MOpts;
  MOpts.Strict = false;
  Machine M(C->ast(), MOpts, MachineSink);
  std::unique_ptr<ExecMonitor> Monitor = makeMonitor(MonitorSink);
  M.addMonitor(Monitor.get());
  Result.Status = M.run();
  Result.ExitCode = M.config().ExitCode;
  Result.Output = M.config().Output;
  Result.Findings = MonitorSink.all();

  if (Result.Status == RunStatus::Fault && reportFaults() &&
      Result.Findings.empty()) {
    // The target crashed under the tool: every modelled tool reports it.
    Result.Findings.emplace_back(UbKind::DerefDanglingPointer,
                                 "target program received SIGSEGV",
                                 "<signal>", SourceLoc());
  }
  auto End = std::chrono::steady_clock::now();
  Result.Micros =
      std::chrono::duration<double, std::micro>(End - Start).count();
  return Result;
}

std::unique_ptr<Tool> Tool::create(ToolKind Kind, TargetConfig Target,
                                   unsigned SearchJobs) {
  switch (Kind) {
  case ToolKind::Kcc:
    return std::make_unique<KccTool>(Target, SearchJobs);
  case ToolKind::MemGrind:
    return std::make_unique<MemGrind>(Target);
  case ToolKind::PtrCheck:
    return std::make_unique<PtrCheck>(Target);
  case ToolKind::ValueAnalysis:
    return std::make_unique<ValueAnalysis>(Target);
  }
  return nullptr;
}
