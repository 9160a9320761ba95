//===- driver/Driver.h - The kcc-style driver -------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synchronous convenience facade over the AnalysisEngine: the
/// pipeline the paper wraps in its kcc script (section 3.2), exposed as
/// blocking calls for tests, examples, and one-shot tooling. A Driver
/// is a session — it owns one engine (one persistent worker pool, one
/// snapshot cache, one header registry) sized from its AnalysisRequest,
/// and every runSource call submits into that pool, so repeated calls
/// amortize pool startup exactly like a long-lived service. Batches
/// (kcc a.c b.c --batch-stats), asynchronous submission, streaming
/// events, and per-job timing live on the engine itself
/// (driver/Engine.h).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_DRIVER_DRIVER_H
#define CUNDEF_DRIVER_DRIVER_H

#include "driver/Engine.h"
#include "driver/Request.h"

#include <string>

namespace cundef {

/// The kcc-like frontend driver: a blocking adapter over one owned
/// AnalysisEngine. Holds the header registry (through the engine) so
/// callers can add program-specific headers before running.
class Driver {
public:
  explicit Driver(AnalysisRequest Req = AnalysisRequest());

  HeaderRegistry &headers() { return Eng.headers(); }
  const AnalysisRequest &request() const { return Req; }
  /// The engine this driver submits into (for callers that want to mix
  /// blocking and async submission against one pool).
  AnalysisEngine &engine() { return Eng; }

  /// Compiles and executes \p Source: submits one job and blocks on
  /// it. The search's root run doubles as the default-order run (the
  /// engine's root-gated contract), so OrdersExplored counts every
  /// machine run exactly once.
  DriverOutcome runSource(const std::string &Source,
                          const std::string &Name = "test.c");

  /// Compile-only entry point (used by tests that inspect the AST):
  /// the immutable frontend artifact, shared through the engine's
  /// translation cache. C->ok() is false on parse/sema errors;
  /// C->errors() has the rendered diagnostics, C->staticUb() the
  /// static findings, C->ast() the const AST every downstream machine
  /// reads.
  using Compiled = CompiledProgramRef;
  Compiled compile(const std::string &Source,
                   const std::string &Name = "test.c");

private:
  AnalysisRequest Req;
  AnalysisEngine Eng;
};

} // namespace cundef

#endif // CUNDEF_DRIVER_DRIVER_H
