//===- static/Cfg.h - Per-function control-flow graphs ----------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statement-level control-flow graphs over the analyzed AST, built per
/// function for the flow-sensitive static layer (static/FlowChecker.h).
/// Basic blocks hold straight-line statements; edges model `if`, the
/// three loop forms, `switch` dispatch with fallthrough, `break` /
/// `continue` / `return`, Sema-resolved `goto`, and short-circuit
/// evaluation: `&&` / `||` / `!` / `?:` in branch position are
/// decomposed into chains of *atomic* condition blocks, so a dataflow
/// domain sees each leaf condition with an explicit true/false edge and
/// can refine its state per branch (static/Dataflow.h).
///
/// The graph never owns AST nodes — it indexes into the immutable
/// CompiledProgram AST, so building one is cheap and the result is as
/// shareable as the artifact it came from.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_STATIC_CFG_H
#define CUNDEF_STATIC_CFG_H

#include "ast/Ast.h"

#include <string>
#include <vector>

namespace cundef {

using BlockId = uint32_t;
constexpr BlockId NoBlock = ~0u;

/// One basic block: straight-line statements plus a terminator.
///
/// Terminators, by shape of (Cond, Switch, Succs):
///  * plain jump / fallthrough: Cond == null, Succs = {next} (or {} for
///    the exit block);
///  * conditional branch: Cond != null, Succs = {true-target,
///    false-target}. Cond is atomic — never `&&`/`||`/`!`/`?:`;
///  * switch dispatch: Switch != null, Cond is the controlling
///    expression, Succs[i] targets SwitchCases[i] (null = the default /
///    fall-out edge, always last).
struct CfgBlock {
  BlockId Id = 0;
  std::vector<const Stmt *> Stmts;
  const Expr *Cond = nullptr;
  const SwitchStmt *Switch = nullptr;
  std::vector<const CaseStmt *> SwitchCases; ///< aligned with Succs
  std::vector<BlockId> Succs;
  std::vector<BlockId> Preds; ///< computed when the graph is sealed

  bool isConditional() const { return Cond && !Switch; }
  bool isSwitch() const { return Switch != nullptr; }
};

/// The control-flow graph of one function definition.
class Cfg {
public:
  /// Builds the graph for \p F (which must have a body). Deterministic:
  /// equal ASTs produce equal graphs, block ids are creation-ordered.
  static Cfg build(const FunctionDecl *F);

  const FunctionDecl *function() const { return Fn; }
  const std::vector<CfgBlock> &blocks() const { return Blocks; }
  const CfgBlock &block(BlockId Id) const { return Blocks[Id]; }
  BlockId entry() const { return Entry; }
  BlockId exit() const { return Exit; }
  size_t size() const { return Blocks.size(); }

  /// Blocks reachable from entry, in reverse post-order — the iteration
  /// order every dataflow fixpoint uses (deterministic).
  const std::vector<BlockId> &rpo() const { return Rpo; }

private:
  friend class CfgBuilder;
  const FunctionDecl *Fn = nullptr;
  std::vector<CfgBlock> Blocks;
  BlockId Entry = 0;
  BlockId Exit = 0;
  std::vector<BlockId> Rpo;
};

} // namespace cundef

#endif // CUNDEF_STATIC_CFG_H
