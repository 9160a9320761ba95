//===- static/Dataflow.h - Forward dataflow to fixpoint ---------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic forward-dataflow engine the flow-sensitive domains
/// (static/Domains.h) share: sweeps over the CFG in reverse post-order,
/// joining edge states into block-entry states until a fixpoint, then
/// one reporting pass from the settled states. A Domain supplies
///
///   using Cell = ...;     // one slot's value (trivially copyable)
///   using State = Cell *; // width() cells
///   size_t width();
///   void boundary(State St);                // state at function entry
///   bool join(State Into, const Cell *In);  // pointwise; true if changed
///   void transferStmt(const Stmt *S, State St);
///   void transferCondEval(const Expr *Cond, State St);
///     // side effects of *evaluating* a terminator condition, once per
///     // block, before any edge refinement
///   bool transferCond(const Expr *Cond, bool Taken, State St);
///   bool transferSwitchEdge(const Expr *Cond, const CaseStmt *Case,
///                           State St);
///     // refine St along one edge (Case == null: default edge); false
///     // means the edge is infeasible under St (never propagated)
///   void setWidening(bool On); // after WideningSweep sweeps
///   void setReporting(bool On); // transfers report only while on;
///                               // edge refinements never report
///
/// A ForStmt in a block's statement list stands for its increment
/// expression only (the CFG's increment block); Decl / Expr / Return
/// statements mean themselves. Sweeps visit blocks in RPO and joins
/// happen in successor order, so the fixpoint is a pure function of the
/// CFG and the domain.
///
/// Cost rules, each exact:
///  * A sweep visits only *dirty* blocks, whose entry state changed
///    since their last visit. Revisiting a clean block B changes
///    nothing: transfers are pure functions of the entry state, so B
///    yields the edge states it yielded before, each already joined
///    into its successor. Entry states change only by joins, and every
///    join is an upper bound of both sides (nullness and init join in a
///    lattice; the interval hull contains both sides, widening only
///    moves a slot to top), so joining the same edge state again is
///    idempotent. Sweep counts, and so the widening schedule, are those
///    of visiting every reached block.
///  * The first sweep reports and is the last when the graph is acyclic
///    (RPO is then topological: each reached block is visited once,
///    after all its predecessors, with its final entry state, in the
///    reporting pass's order) or when the domain tracks no slot (every
///    edge is then feasible, since refinements only cut edges on a
///    tracked slot, so each reachable block is reached from its DFS
///    parent, which precedes it in RPO, and empty states never change).
///  * One buffer of (blocks + 2) * width() cells holds every entry state
///    and two scratch states; a copy is a memcpy.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_STATIC_DATAFLOW_H
#define CUNDEF_STATIC_DATAFLOW_H

#include "static/Cfg.h"

#include <cstring>
#include <vector>

namespace cundef {

/// Sweeps after which the domain is asked to widen its joins. Finite
/// domains converge well before this; the interval domain widens
/// growing bounds to top so every loop still terminates.
constexpr unsigned WideningSweep = 4;

/// Backstop on total sweeps. With widening on, every supplied domain
/// converges in a handful of sweeps; this bound only guards against a
/// non-monotone domain bug turning into an infinite loop.
constexpr unsigned MaxSweeps = 64;

/// Runs a domain to its fixpoint over a CFG and reports from each
/// reached block's settled entry state; reused across functions.
template <typename DomainT> class ForwardDataflow {
public:
  using Cell = typename DomainT::Cell;

  void run(const Cfg &G, DomainT &Dom) {
    W = Dom.width();
    const size_t N = G.size();
    Cells.resize((N + 2) * W);
    Reached.assign(N, 0);
    Dirty.assign(N, 0);
    Cell *Out = Cells.data() + N * W;
    Cell *Edge = Out + W;
    Dom.boundary(in(G.entry()));
    Reached[G.entry()] = Dirty[G.entry()] = 1;

    const bool OneSweep = G.acyclic() || W == 0;
    Dom.setReporting(OneSweep);
    bool Changed = true;
    for (unsigned Sweep = 0; Changed && Sweep < MaxSweeps; ++Sweep) {
      Dom.setWidening(Sweep >= WideningSweep);
      Changed = false;
      for (BlockId B : G.rpo()) {
        if (!Dirty[B])
          continue;
        Dirty[B] = 0;
        transferBlock(G, Dom, B, Out);
        const CfgBlock &Blk = G.block(B);
        CfgSpan<BlockId> Succs = G.succs(B);
        if (Blk.isSwitch()) {
          for (size_t I = 0; I < Succs.size(); ++I) {
            copy(Edge, Out);
            if (Dom.transferSwitchEdge(Blk.Cond, G.switchCase(B, I), Edge))
              Changed |= propagate(Dom, Succs[I], Edge);
          }
        } else if (Blk.isConditional()) {
          copy(Edge, Out);
          if (Dom.transferCond(Blk.Cond, /*Taken=*/true, Edge))
            Changed |= propagate(Dom, Succs[0], Edge);
          if (Dom.transferCond(Blk.Cond, /*Taken=*/false, Out))
            Changed |= propagate(Dom, Succs[1], Out);
        } else {
          for (BlockId S : Succs)
            Changed |= propagate(Dom, S, Out);
        }
      }
      if (OneSweep)
        break;
    }
    if (!OneSweep) {
      Dom.setReporting(true);
      Dom.setWidening(false);
      for (BlockId B : G.rpo())
        if (Reached[B])
          transferBlock(G, Dom, B, Out);
    }
    Dom.setReporting(false);
  }

private:
  Cell *in(BlockId B) { return Cells.data() + B * W; }
  void copy(Cell *To, const Cell *From) {
    if (W)
      std::memcpy(To, From, W * sizeof(Cell));
  }

  /// Runs block \p B's statements and condition side effects on a copy
  /// of its entry state, left in \p Out.
  void transferBlock(const Cfg &G, DomainT &Dom, BlockId B, Cell *Out) {
    copy(Out, in(B));
    for (const Stmt *S : G.stmts(B))
      Dom.transferStmt(S, Out);
    if (const Expr *Cond = G.block(B).Cond)
      Dom.transferCondEval(Cond, Out);
  }

  bool propagate(DomainT &Dom, BlockId To, const Cell *St) {
    bool Changed;
    if (!Reached[To]) {
      Reached[To] = 1;
      copy(in(To), St);
      Changed = true;
    } else {
      Changed = Dom.join(in(To), St);
    }
    Dirty[To] |= Changed;
    return Changed;
  }

  size_t W = 0;
  /// The entry state of every block, then two scratch states.
  std::vector<Cell> Cells;
  std::vector<uint8_t> Reached, Dirty;
};

} // namespace cundef

#endif // CUNDEF_STATIC_DATAFLOW_H
