//===- core/KItem.h - Items of the k cell ----------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The computation (k) cell is a stack of these items; the item on top
/// is the next thing to compute (the paper's redex, section 3.1). AST
/// nodes are pushed as Expr/Stmt items; the remaining kinds are the
/// continuation frames the small-step rules leave behind.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_KITEM_H
#define CUNDEF_CORE_KITEM_H

#include "core/EvalOrder.h"
#include "core/Value.h"

#include <vector>

namespace cundef {

enum class KKind : uint8_t {
  Expr, ///< evaluate E
  Stmt, ///< execute S

  // Expression continuations.
  EvalOperands, ///< schedule operand evaluation in a chosen order
  LvToRv,       ///< read through the lvalue on top of the value stack
  CastApply,    ///< apply E's (implicit or explicit) cast to the value
  LogicRhs,     ///< decide a short-circuit operator after its lhs
  LogicDone,    ///< collapse the rhs of &&/|| to 0/1
  CondPick,     ///< pick a conditional arm
  Pop,          ///< discard the top value (discarded full expressions)
  SeqPoint,     ///< a sequence point: empty the locsWrittenTo cell

  // Initialization.
  InitVar, ///< scalar initializer value -> variable's object
  StoreTo, ///< store the value to (object of D) + Offset with type Ty

  // Statement continuations.
  LeaveBlock,     ///< end the lifetimes of the block's objects
  IfDecide,       ///< branch on the condition value
  WhileTest,      ///< (re)evaluate a while condition
  WhileDecide,    ///< act on the while condition value
  DoTest,         ///< evaluate a do-while condition after the body
  DoDecide,       ///< act on the do-while condition value
  ForTest,        ///< (re)evaluate a for condition
  ForDecide,      ///< act on the for condition value
  ForInc,         ///< run the for increment, then retest
  SwitchDispatch, ///< jump to the matching case
  SwitchEnd,      ///< break target of a switch
  DoReturn,       ///< unwind to the caller with an optional value
  CallReturn,     ///< call boundary marker; holds the callee
};

/// One item of the k cell. A tagged struct rather than a class
/// hierarchy so that configurations remain cheap, flat value types that
/// search can clone.
struct KItem {
  KKind K = KKind::Expr;
  const Expr *E = nullptr;
  const Stmt *S = nullptr;

  // EvalOperands payload: the chosen evaluation order (a permutation of
  // operand indices) and the number of operands scheduled so far. The
  // operands themselves are E's children. Their values are not stored
  // here: each stays on the value stack where its operand pushed it, so
  // the top Idx - 1 values (Idx once all are done) are the results of
  // Perm[0], Perm[1], ... in that order. The item stays on k while its
  // operands run and advances Idx in place. When Idx == Perm.size() and
  // the last operand is done, it is popped and the finish handler for E
  // takes the values off. A list has at most OperandOrder::MaxOperands
  // operands, so Idx fits a byte.
  OperandOrder Perm;
  uint8_t Idx = 0;

  // StoreTo payload.
  const VarDecl *D = nullptr;
  uint64_t Offset = 0;
  QualType Ty;

  // LeaveBlock/CallReturn payload: object ids whose lifetime ends.
  std::vector<uint32_t> ObjectsToKill;
  // CallReturn payload.
  const FunctionDecl *Callee = nullptr;
  // DoReturn payload.
  bool HasValue = false;

  static KItem expr(const Expr *E) {
    KItem Item;
    Item.K = KKind::Expr;
    Item.E = E;
    return Item;
  }
  static KItem stmt(const Stmt *S) {
    KItem Item;
    Item.K = KKind::Stmt;
    Item.S = S;
    return Item;
  }
  static KItem simple(KKind K) {
    KItem Item;
    Item.K = K;
    return Item;
  }
  static KItem forExpr(KKind K, const Expr *E) {
    KItem Item;
    Item.K = K;
    Item.E = E;
    return Item;
  }
  static KItem forStmt(KKind K, const Stmt *S) {
    KItem Item;
    Item.K = K;
    Item.S = S;
    return Item;
  }
};

} // namespace cundef

#endif // CUNDEF_CORE_KITEM_H
