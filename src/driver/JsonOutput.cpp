//===- driver/JsonOutput.cpp - Machine-readable kcc output ---------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "driver/JsonOutput.h"

#include "support/Strings.h"

using namespace cundef;

namespace {

/// A finding of the combined list, or with \p InStaticBlock one of the
/// static_analysis block (which adds verdict and domain).
JsonValue findingJson(const UbReport &R, bool InStaticBlock) {
  JsonValue F = JsonValue::object();
  F.set("code", strFormat("%05u", ubCode(R.Kind)));
  if (InStaticBlock)
    F.set("verdict", enumName(FindingVerdictNames, R.Verdict))
        .set("domain", R.Domain);
  F.set("description", R.Description)
      .set("function", R.Function)
      .set("line", R.Loc.Line)
      .set("column", R.Loc.Col);
  if (!InStaticBlock)
    F.set("static", R.StaticFinding);
  return F;
}

JsonValue programJson(const JsonProgram &P) {
  const DriverOutcome &O = *P.Outcome;
  const char *Verdict = !O.CompileOk && !O.anyUb() ? "compile-error"
                        : O.anyUb()                ? "undefined"
                                                   : "clean";
  // The compile block: where this job's artifact came from and how the
  // job's wall time split between the two pipeline halves.
  JsonValue Compile = JsonValue::object();
  Compile.set("cache_hit", O.TranslationCacheHit)
      .set("result_cache_hit", O.ResultCacheHit)
      .set("frontend_micros", JsonValue(O.FrontendMicros, 3))
      .set("search_micros", JsonValue(O.SearchMicros, 3));

  JsonValue Findings = JsonValue::array();
  for (const auto *List : {&O.StaticUb, &O.DynamicUb})
    for (const UbReport &R : *List)
      Findings.push(findingJson(R, false));

  // The static_analysis block: the flow layer's mode and findings with
  // their must/may verdict and producing domain. Must findings repeat
  // entries of the combined findings array (with richer attribution);
  // may findings appear ONLY here — they are hints, not part of the
  // verdict.
  JsonValue StaticFindings = JsonValue::array();
  for (const auto *List : {&O.StaticUb, &O.StaticHints})
    for (const UbReport &R : *List)
      StaticFindings.push(findingJson(R, true));
  JsonValue Static = JsonValue::object();
  Static.set("mode", P.StaticMode)
      .set("static_only", O.StaticOnly)
      .set("must_count", O.StaticUb.size())
      .set("may_count", O.StaticHints.size())
      .set("findings", std::move(StaticFindings));

  JsonValue Witness = JsonValue::array();
  for (uint8_t D : O.SearchWitness)
    Witness.push(D);
  JsonValue Search = JsonValue::object();
  Search.set("orders_explored", O.OrdersExplored)
      .set("orders_deduped", O.OrdersDeduped)
      .set("truncated", O.SearchTruncated)
      .set("dropped_subtrees", O.SearchDropped)
      .set("steals", O.SearchSteals)
      .set("snapshot_evictions", O.SearchEvictions)
      .set("peak_frontier", O.SearchPeakFrontier)
      .set("witness", std::move(Witness));

  JsonValue Prog = JsonValue::object();
  Prog.set("name", P.Name)
      .set("verdict", Verdict)
      .set("compile_ok", O.CompileOk)
      .set("compile_errors", O.CompileErrors)
      .set("status", enumName(RunStatusNames, O.Status))
      .set("exit_code", O.ExitCode)
      .set("output", O.Output)
      .set("wall_micros", JsonValue(P.WallMicros, 3))
      .set("compile", std::move(Compile))
      .set("findings", std::move(Findings))
      .set("static_analysis", std::move(Static))
      .set("search", std::move(Search));
  return Prog;
}

} // namespace

std::string
cundef::renderJsonDocument(const std::vector<JsonProgram> &Programs,
                           const SchedulerStats &Pool,
                           const TranslationCacheStats &TCache,
                           const ResultCacheStats &RCache, double WallMs,
                           int ExitCode) {
  JsonValue Progs = JsonValue::array();
  for (const JsonProgram &P : Programs)
    Progs.push(programJson(P));
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", "cundef-kcc-v1")
      .set("exit_code", ExitCode)
      .set("programs", std::move(Progs))
      .set("pool", fieldsJson(Pool).set("wall_ms", JsonValue(WallMs, 3)))
      // Engine-wide cache counters (all zero when the cache is off).
      .set("translation_cache", fieldsJson(TCache))
      .set("result_cache", fieldsJson(RCache));
  return Doc.pretty();
}
