//===- static/Cfg.cpp - Per-function control-flow graphs -------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "static/Cfg.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace cundef;

namespace cundef {

/// Builds one Cfg. The builder keeps a "current block" cursor; control
/// statements terminate it and continue in fresh blocks. Jumps out of
/// line (break/continue/goto/return) leave the cursor on a fresh
/// *unreached* block so trailing dead statements still land somewhere
/// without corrupting edges.
///
/// Every write goes to the current block, and a block is current for
/// one stretch of the build only, so each block's statements and
/// successors are contiguous runs of the shared arrays.
class CfgBuilder {
public:
  CfgBuilder(Cfg &G, const FunctionDecl *F) : G(G) {
    G.Fn = F;
    G.Blocks.clear();
    G.Stmts.clear();
    G.Succs.clear();
    G.Cases.clear();
    G.Rpo.clear();
    G.Work.Breaks.clear(); // a build that threw may have left entries
    G.Work.Continues.clear();
    G.Work.Open.clear();
  }

  void run() {
    G.Entry = newBlock();
    G.Exit = newBlock();
    Cur = G.Entry;
    buildStmt(G.Fn->Body);
    edge(G.Exit); // falling off the end
    seal();
  }

private:
  Cfg &G;
  BlockId Cur = 0;
  std::vector<BlockId> &BreakTargets = G.Work.Breaks;
  std::vector<BlockId> &ContinueTargets = G.Work.Continues;
  std::map<const Stmt *, BlockId> Targets; ///< label, case, default

  BlockId newBlock() {
    BlockId Id = static_cast<BlockId>(G.Blocks.size());
    G.Blocks.emplace_back();
    return Id;
  }

  /// Appends to the current block's run [Begin, End) of \p Array.
  template <typename T>
  void append(std::vector<T> &Array, uint32_t &Begin, uint32_t &End, T X) {
    if (Begin == End)
      Begin = End = static_cast<uint32_t>(Array.size());
    assert(End == Array.size() && "a block's run must be contiguous");
    Array.push_back(X);
    ++End;
  }
  void addStmt(const Stmt *S) {
    CfgBlock &B = G.Blocks[Cur];
    append(G.Stmts, B.StmtBegin, B.StmtEnd, S);
  }
  void edge(BlockId To) {
    CfgBlock &B = G.Blocks[Cur];
    append(G.Succs, B.SuccBegin, B.SuccEnd, To);
  }

  /// The block a label, case or default statement starts.
  BlockId targetBlock(const Stmt *S) {
    auto It = Targets.find(S);
    if (It != Targets.end())
      return It->second;
    BlockId Id = newBlock();
    Targets.emplace(S, Id);
    return Id;
  }

  //===--- Conditions ----------------------------------------------------===//

  /// Is \p E a short-circuit shape worth decomposing? Peels the ToBool
  /// wrapper Sema puts around branch conditions.
  static const Expr *peelToBool(const Expr *E) {
    if (const auto *IC = dynCast<ImplicitCastExpr>(E))
      if (IC->CK == CastKind::ToBool)
        return IC->Sub;
    return E;
  }

  /// Terminates the current block(s) so that control reaches \p True
  /// when \p E evaluates nonzero and \p False otherwise, decomposing
  /// short-circuit operators into atomic condition blocks.
  void buildCond(const Expr *E, BlockId True, BlockId False) {
    const Expr *Inner = peelToBool(E);
    if (const auto *B = dynCast<BinaryExpr>(Inner);
        B && (B->Op == BinaryOp::LogAnd || B->Op == BinaryOp::LogOr)) {
      BlockId Mid = newBlock();
      if (B->Op == BinaryOp::LogAnd)
        buildCond(B->Lhs, Mid, False);
      else
        buildCond(B->Lhs, True, Mid);
      Cur = Mid;
      buildCond(B->Rhs, True, False);
      return;
    }
    if (const auto *U = dynCast<UnaryExpr>(Inner);
        U && U->Op == UnaryOp::LogNot) {
      buildCond(U->Sub, False, True);
      return;
    }
    if (const auto *C = dynCast<CondExpr>(Inner)) {
      BlockId T = newBlock(), F = newBlock();
      buildCond(C->Cond, T, F);
      Cur = T;
      buildCond(C->Then, True, False);
      Cur = F;
      buildCond(C->Else, True, False);
      return;
    }
    G.Blocks[Cur].Cond = E;
    edge(True);
    edge(False);
  }

  //===--- Statements ----------------------------------------------------===//

  /// Nested compound statements are walked with an explicit stack, not
  /// by recursion: a block nested a thousand deep would otherwise cost a
  /// thousand frames, enough to overflow the stack in sanitizer builds.
  /// Only the statements that branch recurse.
  void buildStmt(const Stmt *S) {
    const auto *Block = dynCast<CompoundStmt>(S);
    if (!Block) {
      buildOne(S);
      return;
    }
    auto &Open = G.Work.Open;
    size_t Bottom = Open.size(); // a switch or loop body nests a walk
    Open.emplace_back(Block, 0);
    while (Open.size() > Bottom) {
      auto &[C, Next] = Open.back();
      if (Next == C->Body.size()) {
        Open.pop_back();
        continue;
      }
      const Stmt *Sub = C->Body[Next++];
      if (const auto *Inner = dynCast<CompoundStmt>(Sub))
        Open.emplace_back(Inner, 0);
      else
        buildOne(Sub);
    }
  }

  /// Builds one statement; a compound one goes back to buildStmt.
  void buildOne(const Stmt *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Compound:
      buildStmt(S);
      return;
    case StmtKind::Decl:
    case StmtKind::Expr:
      addStmt(S);
      return;
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      BlockId Then = newBlock();
      BlockId Join = newBlock();
      BlockId Else = I->Else ? newBlock() : Join;
      buildCond(I->Cond, Then, Else);
      Cur = Then;
      buildStmt(I->Then);
      edge(Join);
      if (I->Else) {
        Cur = Else;
        buildStmt(I->Else);
        edge(Join);
      }
      Cur = Join;
      return;
    }
    case StmtKind::While: {
      const auto *W = cast<WhileStmt>(S);
      BlockId Head = newBlock();
      BlockId Body = newBlock();
      BlockId After = newBlock();
      edge(Head);
      Cur = Head;
      buildCond(W->Cond, Body, After);
      BreakTargets.push_back(After);
      ContinueTargets.push_back(Head);
      Cur = Body;
      buildStmt(W->Body);
      edge(Head);
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      Cur = After;
      return;
    }
    case StmtKind::Do: {
      const auto *D = cast<DoStmt>(S);
      BlockId Body = newBlock();
      BlockId CondB = newBlock();
      BlockId After = newBlock();
      edge(Body);
      BreakTargets.push_back(After);
      ContinueTargets.push_back(CondB);
      Cur = Body;
      buildStmt(D->Body);
      edge(CondB);
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      Cur = CondB;
      buildCond(D->Cond, Body, After);
      Cur = After;
      return;
    }
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(S);
      buildStmt(F->Init);
      BlockId Head = newBlock();
      BlockId Body = newBlock();
      BlockId Inc = newBlock();
      BlockId After = newBlock();
      edge(Head);
      Cur = Head;
      if (F->Cond)
        buildCond(F->Cond, Body, After);
      else
        edge(Body);
      BreakTargets.push_back(After);
      ContinueTargets.push_back(Inc);
      Cur = Body;
      buildStmt(F->Body);
      edge(Inc);
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      Cur = Inc;
      if (F->Inc)
        addStmt(S); // the Inc expression rides as the ForStmt itself
                    // (domains transfer F->Inc)
      edge(Head);
      Cur = After;
      return;
    }
    case StmtKind::Switch: {
      const auto *SW = cast<SwitchStmt>(S);
      BlockId After = newBlock();
      G.Blocks[Cur].Cond = SW->Cond; // Cur dispatches
      G.Blocks[Cur].Switch = SW;
      G.Blocks[Cur].CaseBegin = static_cast<uint32_t>(G.Cases.size());
      for (const CaseStmt *C : SW->Cases) {
        edge(targetBlock(C));
        G.Cases.push_back(C);
      }
      // The default edge (or fall-out when there is none) is always
      // last, marked by a null CaseStmt.
      edge(SW->Default ? targetBlock(SW->Default) : After);
      G.Cases.push_back(nullptr);

      BreakTargets.push_back(After);
      // Statements before the first label are unreachable; park them in
      // a fresh block with no predecessors.
      Cur = newBlock();
      buildStmt(SW->Body);
      edge(After); // fallthrough out of the last label
      BreakTargets.pop_back();
      Cur = After;
      return;
    }
    case StmtKind::Case: {
      const auto *C = cast<CaseStmt>(S);
      BlockId B = targetBlock(C);
      edge(B); // fallthrough from the previous label's statements
      Cur = B;
      buildStmt(C->Sub);
      return;
    }
    case StmtKind::Default: {
      const auto *D = cast<DefaultStmt>(S);
      BlockId B = targetBlock(D);
      edge(B);
      Cur = B;
      buildStmt(D->Sub);
      return;
    }
    case StmtKind::Break:
      if (!BreakTargets.empty())
        edge(BreakTargets.back());
      Cur = newBlock();
      return;
    case StmtKind::Continue:
      if (!ContinueTargets.empty())
        edge(ContinueTargets.back());
      Cur = newBlock();
      return;
    case StmtKind::Goto: {
      const auto *Gt = cast<GotoStmt>(S);
      if (Gt->Target)
        edge(targetBlock(Gt->Target));
      Cur = newBlock();
      return;
    }
    case StmtKind::Label: {
      const auto *L = cast<LabelStmt>(S);
      BlockId B = targetBlock(L);
      edge(B);
      Cur = B;
      buildStmt(L->Sub);
      return;
    }
    case StmtKind::Return:
      addStmt(S);
      edge(G.Exit);
      Cur = newBlock();
      return;
    }
  }

  //===--- Sealing -------------------------------------------------------===//

  /// Reverse post-order over reachable blocks (iterative DFS; succ
  /// order is the AST order, so the result is deterministic). An edge
  /// to a block still open on the DFS stack closes a cycle.
  void seal() {
    std::vector<uint8_t> &State = G.Work.Visit; // 0 new, 1 open, 2 done
    State.assign(G.Blocks.size(), 0);
    auto &Stack = G.Work.Dfs;
    Stack.emplace_back(G.Entry, G.Blocks[G.Entry].SuccBegin);
    State[G.Entry] = 1;
    G.Acyclic = true;
    while (!Stack.empty()) {
      auto &[B, Next] = Stack.back();
      if (Next < G.Blocks[B].SuccEnd) {
        BlockId S = G.Succs[Next++];
        if (!State[S]) {
          State[S] = 1;
          Stack.emplace_back(S, G.Blocks[S].SuccBegin);
        } else if (State[S] == 1) {
          G.Acyclic = false;
        }
      } else {
        State[B] = 2;
        G.Rpo.push_back(B);
        Stack.pop_back();
      }
    }
    std::reverse(G.Rpo.begin(), G.Rpo.end());
  }
};

} // namespace cundef

void Cfg::rebuild(const FunctionDecl *F) { CfgBuilder(*this, F).run(); }

Cfg Cfg::build(const FunctionDecl *F) {
  Cfg G;
  G.rebuild(F);
  return G;
}
