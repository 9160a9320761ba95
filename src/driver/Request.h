//===- driver/Request.h - Validated analysis requests -----------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The options surface of the analysis engine. An AnalysisRequest is an
/// immutable, pre-validated description of how to analyze one (or many)
/// translation units: target parameters, machine semantics, and the
/// evaluation-order search configuration. Requests are built once
/// through the fluent AnalysisRequest::Builder — which rejects nonsense
/// combinations with a typed RequestError instead of silently clamping
/// them — and then reused across any number of engine submissions.
///
/// This replaces the flat DriverOptions flag-struct: every entry point
/// (AnalysisEngine::submit, the Driver adapters, the batched tool
/// runner, the suite scorers, the kcc CLI) now speaks the same
/// validated type, so a bad configuration is diagnosed exactly once, at
/// build time, with a machine-inspectable error code.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_DRIVER_REQUEST_H
#define CUNDEF_DRIVER_REQUEST_H

#include "core/Search.h"
#include "support/Strings.h"
#include "types/TargetConfig.h"

#include <string>

namespace cundef {

/// Why a request failed to validate. Kind is stable and machine
/// checkable; Message is the human rendering (what kcc prints before
/// exiting 2).
struct RequestError {
  enum class Code : uint8_t {
    None = 0,
    /// SearchRuns == 0: the budget cannot even run the default order.
    ZeroSearchBudget,
    /// SearchJobs beyond any plausible machine (> MaxSearchJobs); a
    /// typo like 10000 would silently burn memory on idle deques.
    OversizedSearchJobs,
    /// MachineOptions::StepLimit == 0: the machine would stop before
    /// its first step and every program would look non-terminating.
    ZeroStepLimit,
    /// MachineOptions::MaxCallDepth == 0: main() itself could not be
    /// entered.
    ZeroCallDepth,
  };

  Code Kind = Code::None;
  std::string Message;

  bool ok() const { return Kind == Code::None; }
};

/// Upper bound the builder accepts for worker threads. Far above any
/// real pool (the scheduler additionally clamps to hardware
/// concurrency by default); guards against unit-typo requests.
constexpr unsigned MaxSearchJobs = 4096;

/// How much of the flow-sensitive static layer (static/FlowChecker.h)
/// a request runs. Off keeps only the syntactic checks; On (the
/// default) adds the CFG/dataflow pass; Only additionally skips the
/// dynamic search entirely — the verdict is the static one, which is
/// what kcc --static-analyze=only exposes.
enum class StaticAnalysisMode : uint8_t { Off, On, Only };

inline constexpr EnumName<StaticAnalysisMode> StaticAnalysisModeNames[] = {
    {StaticAnalysisMode::Off, "off"}, {StaticAnalysisMode::On, "on"},
    {StaticAnalysisMode::Only, "only"}};

/// An immutable, validated description of one analysis: what the kcc
/// pipeline should do to a translation unit. Default-constructed
/// requests carry the documented defaults (strict semantics, static
/// checks on, no order search); anything else goes through Builder.
class AnalysisRequest {
public:
  class Builder;

  AnalysisRequest() = default;

  /// Implementation-defined parameters (paper section 2.5.1).
  const TargetConfig &target() const { return Target; }
  /// Machine semantics: strictness, tracking, order policy, style.
  const MachineOptions &machine() const { return Machine; }
  /// Run the static undefinedness checker (kcc's compile-time half).
  bool staticChecks() const { return RunStaticChecks; }
  /// Flow-sensitive static layer mode. Only meaningful while
  /// staticChecks() is true (the flow layer builds on the same AST
  /// facts); Only turns the whole analysis purely static.
  StaticAnalysisMode staticAnalyze() const { return StaticAnalysis; }
  /// Evaluation orders to search (paper 2.5.2). 1 = only the policy
  /// default order; the builder rejects 0.
  unsigned searchRuns() const { return SearchRuns; }
  /// Worker threads for the search pool. 0 = auto-detect hardware
  /// concurrency. An AnalysisEngine sizes its pool from its own
  /// EngineConfig; this field sizes the engines the Driver adapters
  /// and the kcc CLI create (engineConfigFor).
  unsigned searchJobs() const { return SearchJobs; }
  /// Deduplicate symmetric interleavings during the search.
  bool searchDedup() const { return SearchDedup; }
  /// Fork search children from snapshots instead of replaying
  /// prefixes.
  bool searchSnapshots() const { return SearchSnapshots; }
  /// Consult the engine's content-addressed result cache
  /// (driver/Engine.cpp) for this submission. Off forces a full
  /// search even when an identical outcome is resident — the kcc
  /// --result-cache=off A/B mode. Per-request (not engine-wide) so a
  /// remote client can disable it over the wire against a shared
  /// daemon without affecting other clients.
  bool useResultCache() const { return UseResultCache; }

private:
  TargetConfig Target = TargetConfig::lp64();
  MachineOptions Machine;
  bool RunStaticChecks = true;
  StaticAnalysisMode StaticAnalysis = StaticAnalysisMode::On;
  unsigned SearchRuns = 1;
  unsigned SearchJobs = 1;
  bool SearchDedup = true;
  bool SearchSnapshots = true;
  bool UseResultCache = true;
};

/// Fluent builder for AnalysisRequest. Setters never fail; build()
/// validates the whole combination once and returns either the
/// immutable request or the first typed error. A built request needs
/// no further checking anywhere downstream.
class AnalysisRequest::Builder {
public:
  Builder &target(TargetConfig T) { Req.Target = T; return *this; }
  /// Wholesale machine-options override (ablation benches flip the
  /// individual semantic switches this way).
  Builder &machine(const MachineOptions &M) { Req.Machine = M; return *this; }
  Builder &style(RuleStyle S) { Req.Machine.Style = S; return *this; }
  Builder &order(EvalOrderKind O) { Req.Machine.Order = O; return *this; }
  Builder &seed(uint32_t S) { Req.Machine.Seed = S; return *this; }
  Builder &strict(bool On) { Req.Machine.Strict = On; return *this; }
  Builder &staticChecks(bool On) { Req.RunStaticChecks = On; return *this; }
  Builder &staticAnalyze(StaticAnalysisMode M) {
    Req.StaticAnalysis = M;
    return *this;
  }
  Builder &searchRuns(unsigned N) { Req.SearchRuns = N; return *this; }
  Builder &searchJobs(unsigned N) { Req.SearchJobs = N; return *this; }
  Builder &dedup(bool On) { Req.SearchDedup = On; return *this; }
  Builder &snapshots(bool On) { Req.SearchSnapshots = On; return *this; }
  Builder &resultCache(bool On) { Req.UseResultCache = On; return *this; }

  struct Result {
    AnalysisRequest Request; ///< meaningful only when Err.ok()
    RequestError Err;

    bool ok() const { return Err.ok(); }
    explicit operator bool() const { return ok(); }
  };

  /// Validates the accumulated configuration. Never clamps: a zero
  /// search budget, an absurd worker count, or a machine that cannot
  /// take a step are errors the caller must surface (kcc exits 2 with
  /// Err.Message).
  Result build() const;

  /// For call sites whose configuration is a compile-time constant
  /// (tests, benches, examples): aborts with the diagnostic instead of
  /// returning an error.
  AnalysisRequest buildOrDie() const;

private:
  AnalysisRequest Req;
};

} // namespace cundef

#endif // CUNDEF_DRIVER_REQUEST_H
