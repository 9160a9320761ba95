//===- perfbench/src/Probe.cpp - The per-layer probe ----------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// Drives a sample of a workload's inputs through each layer's public
// entry point in turn, on the calling thread, with one span around each
// call: Preprocessor::run, Parser::parseTranslationUnit, Sema::run,
// StaticChecker::run, FlowChecker::run, compileTranslationUnit,
// Machine::run (hooks time configFingerprint() and
// captureChoiceSnapshot()), OrderSearch::run, and the four analysis
// tools of the paper's section 5.1.2 runtime comparison. The spans live
// here, in the benchmark; nothing under src/ is instrumented.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/Tool.h"
#include "core/Search.h"
#include "frontend/Frontend.h"
#include "libc/Builtins.h"
#include "libc/Headers.h"
#include "parse/Parser.h"
#include "sema/Sema.h"
#include "static/FlowChecker.h"
#include "text/Preprocessor.h"
#include "ub/StaticChecks.h"

using namespace cundef;
using namespace perfbench;

namespace {

struct Counts {
  double Tokens = 0, MustFindings = 0, MayHints = 0;
  double Steps = 0, PermissiveSteps = 0, Choices = 0, Captures = 0;
  double FingerprintNs = 0, CaptureNs = 0, Runs = 0;
};

/// The frontend pipeline of frontend/Frontend.cpp, one layer per span.
bool frontendLayers(const Program &P, const FrontendOptions &FO,
                    const HeaderRegistry &Headers, Tracer &T, uint64_t Id,
                    Counts &N) {
  Scope Whole(&T, "frontend.layers", Id);
  StringInterner Interner;
  DiagnosticEngine Diags;
  std::vector<Token> Toks;
  {
    Scope Sp(&T, "text.preprocess", Id);
    Preprocessor PP(Interner, Diags, Headers);
    Toks = PP.run(P.Source, P.Name);
  }
  N.Tokens += Toks.size();
  if (Diags.hasErrors())
    return false;
  AstContext Ast(FO.Target, Interner);
  bool ParseOk;
  {
    Scope Sp(&T, "parse", Id);
    Parser Parse(std::move(Toks), Ast, Diags);
    ParseOk = Parse.parseTranslationUnit();
  }
  if (!ParseOk)
    return false;
  UbSink Static, Hints;
  {
    Scope Sp(&T, "sema", Id);
    Sema S(Ast, Diags, Static);
    S.run();
    assignBuiltinIds(Ast);
  }
  {
    Scope Sp(&T, "ub.syntactic", Id);
    StaticChecker Checker(Ast, Static);
    Checker.run();
  }
  if (!Diags.hasErrors()) {
    Scope Sp(&T, "static.flow", Id);
    FlowChecker Flow(Ast, Static, Hints);
    Flow.run();
  }
  N.MustFindings += Static.all().size();
  N.MayHints += Hints.all().size();
  return !Diags.hasErrors();
}

/// Strict root run with both choice hooks, then the permissive machine.
void machineRuns(const CompiledProgram &CP, const MachineOptions &MO,
                 Tracer &T, uint64_t Id, Counts &N) {
  {
    UbSink Sink;
    Machine M(CP.ast(), MO, Sink);
    M.setChoiceHook([&](Machine &Mm) {
      Clock::time_point A = Clock::now();
      volatile uint64_t Fp = Mm.configFingerprint();
      (void)Fp;
      Clock::time_point B = Clock::now();
      N.FingerprintNs += microsBetween(A, B) * 1000.0;
      ++N.Choices;
      T.record("core.fingerprint", Id, A, B);
      return true;
    });
    M.setBeforeChoiceHook([&](Machine &Mm, unsigned) {
      if (Mm.inSyncCall())
        return;
      Clock::time_point A = Clock::now();
      MachineSnapshot Snap = Mm.captureChoiceSnapshot();
      Clock::time_point B = Clock::now();
      N.CaptureNs += microsBetween(A, B) * 1000.0;
      ++N.Captures;
      T.record("core.snapshot", Id, A, B);
    });
    Scope Sp(&T, "core.machine", Id);
    M.run();
    N.Steps += M.config().Steps;
  }
  MachineOptions Permissive = MO;
  Permissive.Strict = false;
  UbSink Sink;
  Machine M(CP.ast(), Permissive, Sink);
  {
    Scope Sp(&T, "core.machine_permissive", Id);
    M.run();
  }
  N.PermissiveSteps += M.config().Steps;
}

} // namespace

void perfbench::layerProbe(const std::vector<Program> &Inputs,
                           const AnalysisRequest &Req, Tracer &T,
                           std::map<std::string, double> &M,
                           PhaseStats &Check) {
  HeaderRegistry Headers;
  registerStandardHeaders(Headers);
  FrontendOptions FO;
  FO.Target = Req.target();
  FO.StaticChecks = Req.staticChecks();
  FO.FlowChecks = Req.staticAnalyze() != StaticAnalysisMode::Off;
  SearchOptions SO;
  SO.MaxRuns = Req.searchRuns();
  SO.Jobs = 1;
  SO.Dedup = Req.searchDedup();
  SO.UseSnapshots = Req.searchSnapshots();

  Counts N;
  uint64_t Id = 1u << 28;
  for (const Program &P : Inputs) {
    ++Id;
    ++Check.Attempted;
    if (!frontendLayers(P, FO, Headers, T, Id, N)) {
      Check.fail(P.Name + ": layer probe frontend failed");
      continue;
    }
    CompiledProgramRef CP;
    {
      Scope Sp(&T, "frontend.compile", Id);
      CP = compileTranslationUnit(FO, P.Source, P.Name, Headers);
    }
    if (!CP->ok()) {
      Check.fail(P.Name + ": compileTranslationUnit failed");
      continue;
    }
    machineRuns(*CP, Req.machine(), T, Id, N);
    SearchResult R;
    {
      Scope Sp(&T, "core.search", Id);
      R = OrderSearch(CP->ast(), Req.machine(), SO).run();
    }
    N.Runs += R.RunsExplored;
    const bool Flagged = !CP->staticUb().empty() || R.UbFound;
    if (Flagged != P.Want.Undefined)
      Check.fail(P.Name + ": OrderSearch verdict disagrees with the oracle");
  }

  // The section 5.1.2 runtime comparison. Every name is new to each
  // tool, so kcc's caches cannot serve a single call.
  const std::pair<ToolKind, const char *> Tools[] = {
      {ToolKind::Kcc, "analysis.kcc"},
      {ToolKind::MemGrind, "analysis.memgrind"},
      {ToolKind::PtrCheck, "analysis.ptrcheck"},
      {ToolKind::ValueAnalysis, "analysis.valueanalysis"},
  };
  for (const auto &[Kind, Span] : Tools) {
    std::unique_ptr<Tool> Tl = Tool::create(Kind, Req.target());
    // Untimed first call: kcc spawns its engine lazily.
    Tl->analyze(Inputs.front().Source, "warm-" + Inputs.front().Name);
    for (const Program &P : Inputs) {
      Scope Sp(&T, Span, ++Id);
      ToolResult R = Tl->analyze(P.Source, "tool-" + P.Name);
      if (Kind == ToolKind::Kcc && R.flagged() != P.Want.Undefined)
        Check.fail(P.Name + ": kcc tool verdict disagrees with the oracle");
    }
  }

  const std::map<std::string, Tracer::Totals> Tot = T.totals();
  auto self = [&](const char *Name) {
    auto It = Tot.find(Name);
    return It == Tot.end() ? 0.0 : It->second.SelfUs;
  };
  auto total = [&](const char *Name) {
    auto It = Tot.find(Name);
    return It == Tot.end() ? 0.0 : It->second.TotalUs;
  };
  const double Programs = static_cast<double>(Inputs.size());
  auto perSec = [](double Count, double Us) {
    return Us > 0 ? Count / (Us / 1e6) : 0.0;
  };

  M["text.preprocess_self_us"] = self("text.preprocess") / Programs;
  M["text.tokens_per_program"] = N.Tokens / Programs;
  M["text.tokens_per_s"] = perSec(N.Tokens, self("text.preprocess"));
  M["parse.self_us"] = self("parse") / Programs;
  M["parse.tokens_per_s"] = perSec(N.Tokens, self("parse"));
  M["sema.self_us"] = self("sema") / Programs;
  M["ub.syntactic_self_us"] = self("ub.syntactic") / Programs;
  M["static.flow_self_us"] = self("static.flow") / Programs;
  M["static.must_findings"] = N.MustFindings;
  M["static.may_hints"] = N.MayHints;
  auto Compile = Tot.find("frontend.compile");
  M["frontend.compile_us_p50"] =
      Compile == Tot.end() ? 0.0 : median(Compile->second.Durations);
  const double Fe = total("frontend.compile"), Se = total("core.search");
  M["frontend.share"] = Fe + Se > 0 ? Fe / (Fe + Se) : 0.0;
  M["core.machine_steps_per_s"] = perSec(N.Steps, self("core.machine"));
  M["core.machine_steps_per_s_permissive"] =
      perSec(N.PermissiveSteps, total("core.machine_permissive"));
  M["core.steps_per_program"] = N.Steps / Programs;
  M["core.choice_points_per_program"] = N.Choices / Programs;
  M["core.fingerprint_ns_per_choice"] =
      N.Choices ? N.FingerprintNs / N.Choices : 0.0;
  M["core.snapshot_capture_ns"] = N.Captures ? N.CaptureNs / N.Captures : 0.0;
  M["core.search_us_per_run"] = N.Runs ? Se / N.Runs : 0.0;
  for (const auto &[Kind, Span] : Tools)
    M[std::string(Span) + "_us_per_program"] = total(Span) / Programs;
}
