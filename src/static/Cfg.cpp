//===- static/Cfg.cpp - Per-function control-flow graphs -------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "static/Cfg.h"

#include <algorithm>
#include <map>

using namespace cundef;

namespace cundef {

/// Builds one Cfg. The builder keeps a "current block" cursor; control
/// statements terminate it and continue in fresh blocks. Jumps out of
/// line (break/continue/goto/return) leave the cursor on a fresh
/// *unreached* block so trailing dead statements still land somewhere
/// without corrupting edges.
class CfgBuilder {
public:
  explicit CfgBuilder(const FunctionDecl *F) { G.Fn = F; }

  Cfg run() {
    G.Entry = newBlock();
    G.Exit = newBlock();
    Cur = G.Entry;
    buildStmt(G.Fn->Body);
    edge(Cur, G.Exit); // falling off the end
    seal();
    return std::move(G);
  }

private:
  Cfg G;
  BlockId Cur = 0;
  std::vector<BlockId> BreakTargets;
  std::vector<BlockId> ContinueTargets;
  std::map<const LabelStmt *, BlockId> LabelBlocks;
  std::map<const Stmt *, BlockId> CaseBlocks; ///< CaseStmt / DefaultStmt

  BlockId newBlock() {
    BlockId Id = static_cast<BlockId>(G.Blocks.size());
    G.Blocks.emplace_back();
    G.Blocks.back().Id = Id;
    return Id;
  }

  void edge(BlockId From, BlockId To) { G.Blocks[From].Succs.push_back(To); }

  BlockId labelBlock(const LabelStmt *L) {
    auto It = LabelBlocks.find(L);
    if (It != LabelBlocks.end())
      return It->second;
    BlockId Id = newBlock();
    LabelBlocks.emplace(L, Id);
    return Id;
  }

  BlockId caseBlock(const Stmt *CaseOrDefault) {
    auto It = CaseBlocks.find(CaseOrDefault);
    if (It != CaseBlocks.end())
      return It->second;
    BlockId Id = newBlock();
    CaseBlocks.emplace(CaseOrDefault, Id);
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
    if (const auto *B = dynCast<BinaryExpr>(Inner)) {
      if (B->Op == BinaryOp::LogAnd) {
        BlockId Mid = newBlock();
        buildCond(B->Lhs, Mid, False);
        Cur = Mid;
        buildCond(B->Rhs, True, False);
        return;
      }
      if (B->Op == BinaryOp::LogOr) {
        BlockId Mid = newBlock();
        buildCond(B->Lhs, True, Mid);
        Cur = Mid;
        buildCond(B->Rhs, True, False);
        return;
      }
    }
    if (const auto *U = dynCast<UnaryExpr>(Inner)) {
      if (U->Op == UnaryOp::LogNot) {
        buildCond(U->Sub, False, True);
        return;
      }
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
    CfgBlock &B = G.Blocks[Cur];
    B.Cond = E;
    B.Succs.push_back(True);
    B.Succs.push_back(False);
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
    std::vector<std::pair<const CompoundStmt *, size_t>> Open;
    Open.emplace_back(Block, 0);
    while (!Open.empty()) {
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
      G.Blocks[Cur].Stmts.push_back(S);
      return;
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      BlockId Then = newBlock();
      BlockId Join = newBlock();
      BlockId Else = I->Else ? newBlock() : Join;
      buildCond(I->Cond, Then, Else);
      Cur = Then;
      buildStmt(I->Then);
      edge(Cur, Join);
      if (I->Else) {
        Cur = Else;
        buildStmt(I->Else);
        edge(Cur, Join);
      }
      Cur = Join;
      return;
    }
    case StmtKind::While: {
      const auto *W = cast<WhileStmt>(S);
      BlockId Head = newBlock();
      BlockId Body = newBlock();
      BlockId After = newBlock();
      edge(Cur, Head);
      Cur = Head;
      buildCond(W->Cond, Body, After);
      BreakTargets.push_back(After);
      ContinueTargets.push_back(Head);
      Cur = Body;
      buildStmt(W->Body);
      edge(Cur, Head);
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
      edge(Cur, Body);
      BreakTargets.push_back(After);
      ContinueTargets.push_back(CondB);
      Cur = Body;
      buildStmt(D->Body);
      edge(Cur, CondB);
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
      edge(Cur, Head);
      Cur = Head;
      if (F->Cond)
        buildCond(F->Cond, Body, After);
      else
        edge(Cur, Body);
      BreakTargets.push_back(After);
      ContinueTargets.push_back(Inc);
      Cur = Body;
      buildStmt(F->Body);
      edge(Cur, Inc);
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      Cur = Inc;
      if (F->Inc)
        G.Blocks[Cur].Stmts.push_back(S); // the Inc expression rides as
                                          // the ForStmt itself (domains
                                          // transfer F->Inc)
      edge(Cur, Head);
      Cur = After;
      return;
    }
    case StmtKind::Switch: {
      const auto *SW = cast<SwitchStmt>(S);
      BlockId After = newBlock();
      BlockId DispatchId = Cur;
      // Materialize every target first: newBlock() may reallocate the
      // block vector, so no CfgBlock reference is held across it.
      std::vector<BlockId> Targets;
      std::vector<const CaseStmt *> Labels;
      for (const CaseStmt *C : SW->Cases) {
        Targets.push_back(caseBlock(C));
        Labels.push_back(C);
      }
      // The default edge (or fall-out when there is none) is always
      // last, marked by a null CaseStmt.
      Targets.push_back(SW->Default ? caseBlock(SW->Default) : After);
      Labels.push_back(nullptr);
      CfgBlock &Dispatch = G.Blocks[DispatchId];
      Dispatch.Cond = SW->Cond;
      Dispatch.Switch = SW;
      Dispatch.Succs = std::move(Targets);
      Dispatch.SwitchCases = std::move(Labels);

      BreakTargets.push_back(After);
      // Statements before the first label are unreachable; park them in
      // a fresh block with no predecessors.
      Cur = newBlock();
      buildStmt(SW->Body);
      edge(Cur, After); // fallthrough out of the last label
      BreakTargets.pop_back();
      Cur = After;
      return;
    }
    case StmtKind::Case: {
      const auto *C = cast<CaseStmt>(S);
      BlockId B = caseBlock(C);
      edge(Cur, B); // fallthrough from the previous label's statements
      Cur = B;
      buildStmt(C->Sub);
      return;
    }
    case StmtKind::Default: {
      const auto *D = cast<DefaultStmt>(S);
      BlockId B = caseBlock(D);
      edge(Cur, B);
      Cur = B;
      buildStmt(D->Sub);
      return;
    }
    case StmtKind::Break:
      if (!BreakTargets.empty())
        edge(Cur, BreakTargets.back());
      Cur = newBlock();
      return;
    case StmtKind::Continue:
      if (!ContinueTargets.empty())
        edge(Cur, ContinueTargets.back());
      Cur = newBlock();
      return;
    case StmtKind::Goto: {
      const auto *Gt = cast<GotoStmt>(S);
      if (Gt->Target)
        edge(Cur, labelBlock(Gt->Target));
      Cur = newBlock();
      return;
    }
    case StmtKind::Label: {
      const auto *L = cast<LabelStmt>(S);
      BlockId B = labelBlock(L);
      edge(Cur, B);
      Cur = B;
      buildStmt(L->Sub);
      return;
    }
    case StmtKind::Return:
      G.Blocks[Cur].Stmts.push_back(S);
      edge(Cur, G.Exit);
      Cur = newBlock();
      return;
    }
  }

  //===--- Sealing -------------------------------------------------------===//

  void seal() {
    for (const CfgBlock &B : G.Blocks)
      for (BlockId S : B.Succs)
        G.Blocks[S].Preds.push_back(B.Id);
    // Reverse post-order over reachable blocks (iterative DFS; succ
    // order is the AST order, so the result is deterministic).
    std::vector<uint8_t> State(G.Blocks.size(), 0); // 0 new, 1 open, 2 done
    std::vector<std::pair<BlockId, size_t>> Stack;
    std::vector<BlockId> Post;
    Stack.emplace_back(G.Entry, 0);
    State[G.Entry] = 1;
    while (!Stack.empty()) {
      auto &[B, Next] = Stack.back();
      if (Next < G.Blocks[B].Succs.size()) {
        BlockId S = G.Blocks[B].Succs[Next++];
        if (!State[S]) {
          State[S] = 1;
          Stack.emplace_back(S, 0);
        }
      } else {
        State[B] = 2;
        Post.push_back(B);
        Stack.pop_back();
      }
    }
    G.Rpo.assign(Post.rbegin(), Post.rend());
  }
};

} // namespace cundef

Cfg Cfg::build(const FunctionDecl *F) { return CfgBuilder(F).run(); }
