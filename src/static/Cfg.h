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
/// shareable as the artifact it came from. Statements, successors and
/// switch labels of all blocks sit in three shared arrays.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_STATIC_CFG_H
#define CUNDEF_STATIC_CFG_H

#include "ast/Ast.h"

#include <vector>

namespace cundef {

using BlockId = uint32_t;

/// A read-only view of a run of one of the graph's shared arrays.
template <typename T> struct CfgSpan {
  const T *First, *Last;
  const T *begin() const { return First; }
  const T *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }
  bool empty() const { return First == Last; }
  const T &operator[](size_t I) const { return First[I]; }
};

/// One basic block: straight-line statements plus a terminator. Its
/// statements and successors are runs of the graph's shared arrays
/// (Cfg::stmts, Cfg::succs).
///
/// Terminators, by shape of (Cond, Switch, succs):
///  * plain jump / fallthrough: Cond == null, succs = {next} (or {} for
///    the exit block);
///  * conditional branch: Cond != null, succs = {true-target,
///    false-target}. Cond is atomic — never `&&`/`||`/`!`/`?:`;
///  * switch dispatch: Switch != null, Cond is the controlling
///    expression, succs[i] targets Cfg::switchCase(b, i) (null = the
///    default / fall-out edge, always last).
struct CfgBlock {
  uint32_t StmtBegin = 0, StmtEnd = 0;
  uint32_t SuccBegin = 0, SuccEnd = 0;
  uint32_t CaseBegin = 0; ///< switch blocks: labels aligned with succs
  const Expr *Cond = nullptr;
  const SwitchStmt *Switch = nullptr;

  bool isConditional() const { return Cond && !Switch; }
  bool isSwitch() const { return Switch != nullptr; }
};

/// The control-flow graph of one function definition.
class Cfg {
public:
  /// Builds the graph for \p F (which must have a body). Deterministic:
  /// equal ASTs produce equal graphs, block ids are creation-ordered.
  static Cfg build(const FunctionDecl *F);
  /// Rebuilds this graph for \p F, keeping the arrays' capacity.
  void rebuild(const FunctionDecl *F);

  const FunctionDecl *function() const { return Fn; }
  const CfgBlock &block(BlockId Id) const { return Blocks[Id]; }
  BlockId entry() const { return Entry; }
  BlockId exit() const { return Exit; }
  size_t size() const { return Blocks.size(); }

  CfgSpan<const Stmt *> stmts(BlockId Id) const {
    const CfgBlock &B = Blocks[Id];
    return {Stmts.data() + B.StmtBegin, Stmts.data() + B.StmtEnd};
  }
  CfgSpan<BlockId> succs(BlockId Id) const {
    const CfgBlock &B = Blocks[Id];
    return {Succs.data() + B.SuccBegin, Succs.data() + B.SuccEnd};
  }
  /// The label of a switch block's \p I-th edge (null: default edge).
  const CaseStmt *switchCase(BlockId Id, size_t I) const {
    return Cases[Blocks[Id].CaseBegin + I];
  }

  /// Blocks reachable from entry, in reverse post-order — the iteration
  /// order every dataflow fixpoint uses (deterministic).
  const std::vector<BlockId> &rpo() const { return Rpo; }
  /// Whether no cycle is reachable from entry: then every reachable
  /// block's predecessors precede it in rpo().
  bool acyclic() const { return Acyclic; }

private:
  friend class CfgBuilder;
  const FunctionDecl *Fn = nullptr;
  std::vector<CfgBlock> Blocks;
  std::vector<const Stmt *> Stmts;
  std::vector<BlockId> Succs;
  std::vector<const CaseStmt *> Cases;
  BlockId Entry = 0;
  BlockId Exit = 0;
  std::vector<BlockId> Rpo;
  bool Acyclic = true;
  /// The builder's work lists, kept so a rebuild allocates nothing new.
  struct Scratch {
    std::vector<BlockId> Breaks, Continues;
    std::vector<std::pair<const CompoundStmt *, size_t>> Open;
    std::vector<std::pair<BlockId, uint32_t>> Dfs;
    std::vector<uint8_t> Visit;
  } Work;
};

} // namespace cundef

#endif // CUNDEF_STATIC_CFG_H
