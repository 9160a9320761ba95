//===- frontend/Frontend.h - The frontend pipeline --------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frontend half of the kcc pipeline as a standalone layer:
/// preprocess → lex → parse → sema → static UB checks, producing an
/// immutable, shareable CompiledProgram. Extracted from the engine
/// (driver/Engine.cpp used to run this inline in submit()) so that
///
///  * the artifact has exactly one producer, content-addressed by
///    translationKeyFor — the translation cache's contract that equal
///    keys mean interchangeable artifacts holds by construction;
///  * compilation can run on any thread (engine frontend workers, the
///    compile-only test entry points) against a const HeaderRegistry.
///
/// Everything the output depends on is either in the key's inputs
/// (source bytes, unit name, TargetConfig, static-checks flag, header
/// registry) or deterministic (the parser and sema have no other
/// inputs); MachineOptions never reach the frontend, so one artifact
/// serves submissions that differ only in machine semantics, order
/// policy, or search configuration.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_FRONTEND_FRONTEND_H
#define CUNDEF_FRONTEND_FRONTEND_H

#include "frontend/CompiledProgram.h"
#include "types/TargetConfig.h"

#include <string>

namespace cundef {

class HeaderRegistry;
struct Prelude;

/// The frontend's configuration surface: the subset of an
/// AnalysisRequest that can change what compilation produces.
struct FrontendOptions {
  TargetConfig Target;
  /// Run the static undefinedness checker (kcc's compile-time half).
  bool StaticChecks = true;
  /// Run the flow-sensitive static layer (static/FlowChecker.h) on top
  /// of the syntactic checks: CFG + dataflow domains, producing must
  /// findings (part of the verdict) and may hints (triage only). Only
  /// consulted when StaticChecks is on.
  bool FlowChecks = true;
};

/// Digest of every implementation-defined parameter (type sizes,
/// char signedness, shift semantics): sema layouts and static-check
/// verdicts depend on all of them.
uint64_t targetConfigFingerprint(const TargetConfig &Target);

/// The content address compileTranslationUnit would compile \p Source
/// under. \p HeadersFingerprint comes from
/// HeaderRegistry::fingerprint(), which the registry memoizes until a
/// header changes.
TranslationKey translationKeyFor(const FrontendOptions &Opts,
                                 const std::string &Source,
                                 const std::string &Name,
                                 uint64_t HeadersFingerprint);

/// Runs the whole frontend pipeline and freezes the result. Pure:
/// equal inputs produce interchangeable artifacts (the cache relies on
/// it). Thread-safe for concurrent calls as long as \p Headers is not
/// mutated concurrently (the engine's documented registry contract).
/// A source starting with an eligible include block continues from
/// that block's prelude (frontend/Prelude.h) in \p Headers.
/// \p PrecomputedKey, when given, is stamped onto the artifact —
/// callers that addressed the cache pass theirs, so the stamped key IS
/// the cache key. Without one the artifact's key stays zero: uncached
/// compiles never pay the source/registry hashing pass.
CompiledProgramRef
compileTranslationUnit(const FrontendOptions &Opts, const std::string &Source,
                       const std::string &Name, const HeaderRegistry &Headers,
                       const TranslationKey *PrecomputedKey = nullptr);

/// compileTranslationUnit continuing from \p P, which is null (the
/// includes are translated in place) or preludeFor()'s answer for
/// \p Source's include block under \p Opts. Both give the same
/// artifact; tests compare them.
CompiledProgramRef compileWithPrelude(const FrontendOptions &Opts,
                                      const std::string &Source,
                                      const std::string &Name,
                                      const HeaderRegistry &Headers,
                                      std::shared_ptr<const Prelude> P);

} // namespace cundef

#endif // CUNDEF_FRONTEND_FRONTEND_H
