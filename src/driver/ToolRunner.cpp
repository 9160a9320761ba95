//===- driver/ToolRunner.cpp - Running tools over programs ---------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "driver/ToolRunner.h"

#include "support/Strings.h"

using namespace cundef;

PairVerdict cundef::runOnPair(Tool &T, const TestCase &Test) {
  PairVerdict Verdict;
  ToolResult Bad = T.analyze(Test.Bad, Test.Name + "_bad.c");
  ToolResult Good = T.analyze(Test.Good, Test.Name + "_good.c");
  Verdict.FlaggedBad = Bad.flagged();
  Verdict.FlaggedGood = Good.flagged();
  Verdict.Micros = Bad.Micros + Good.Micros;
  return Verdict;
}

std::vector<ComparisonRow>
cundef::compareTools(const std::string &Source, const std::string &Name,
                     TargetConfig Target, unsigned SearchJobs) {
  std::vector<ComparisonRow> Rows;
  for (ToolKind Kind : {ToolKind::Kcc, ToolKind::MemGrind, ToolKind::PtrCheck,
                        ToolKind::ValueAnalysis}) {
    std::unique_ptr<Tool> T = Tool::create(Kind, Target, SearchJobs);
    ToolResult Result = T->analyze(Source, Name);
    ComparisonRow Row;
    Row.Tool = toolName(Kind);
    Row.Flagged = Result.flagged();
    Row.NumFindings = Result.Findings.size();
    if (!Result.Findings.empty())
      Row.FirstFinding = Result.Findings.front().Description;
    Row.Micros = Result.Micros;
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

std::vector<ToolResult>
cundef::runKccBatched(const AnalysisRequest &Req,
                      const std::vector<BatchInput> &Programs) {
  AnalysisEngine Eng(engineConfigFor(Req));
  std::vector<JobHandle> Handles = Eng.submitBatch(Req, Programs);
  std::vector<ToolResult> Results;
  Results.reserve(Handles.size());
  for (JobHandle &H : Handles) {
    // wallMicros blocks until this job completed; later handles were
    // already running on the shared pool the whole time.
    const double Micros = H.wallMicros();
    Results.push_back(ToolResult::fromOutcome(H.take(), Micros));
  }
  return Results;
}

std::string cundef::renderComparison(const std::vector<ComparisonRow> &Rows) {
  std::string Out;
  Out += padRight("Tool", 14) + padRight("Verdict", 11) +
         padRight("Findings", 9) + "First finding\n";
  Out += std::string(70, '-') + "\n";
  for (const ComparisonRow &Row : Rows) {
    Out += padRight(Row.Tool, 14) +
           padRight(Row.Flagged ? "UNDEFINED" : "clean", 11) +
           padRight(strFormat("%zu", Row.NumFindings), 9) +
           Row.FirstFinding.substr(0, 44) + "\n";
  }
  return Out;
}
