//===- static/FlowChecker.h - Flow-sensitive static UB pass -----*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-sensitive static analysis pass: builds a CFG per function
/// definition (static/Cfg.h), runs the three abstract domains
/// (static/Domains.h) to a fixpoint (static/Dataflow.h) and reports from
/// the settled block-entry states.
///
/// Findings split by verdict into two sinks: *must* findings (true on
/// every execution reaching the point) join the syntactic checker's
/// output and participate in the program's UB verdict; *may* findings
/// are triage hints, reported separately and never part of the verdict.
/// Both are sorted by (line, col, code) and deduplicated, so the output
/// is a pure function of the AST — byte-identical across schedulers,
/// worker counts, and cache state.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_STATIC_FLOWCHECKER_H
#define CUNDEF_STATIC_FLOWCHECKER_H

#include "ast/Ast.h"
#include "ub/Report.h"

namespace cundef {

/// Implementation limit: a function whose CFG blocks times tracked slots
/// (all three domains) exceed this gets no flow findings. It bounds the
/// layer's time and memory per function (at most 16 MiB of 16-byte
/// interval cells); silence is sound, since must findings only add UB
/// verdicts and the dynamic search still checks the function.
constexpr size_t MaxFlowCells = size_t(1) << 20;

class FlowChecker {
public:
  FlowChecker(AstContext &Ctx, UbSink &Must, UbSink &Hints)
      : Ctx(Ctx), Must(Must), Hints(Hints) {}

  /// Analyzes every function definition in the translation unit.
  void run();

private:
  AstContext &Ctx;
  UbSink &Must;
  UbSink &Hints;
};

} // namespace cundef

#endif // CUNDEF_STATIC_FLOWCHECKER_H
