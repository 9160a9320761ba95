//===- core/RulesExpr.cpp - Expression rules ---------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// Side conditions limiting the positive rules (paper section 4.1) live
// here: division, dereference, pointer arithmetic and comparison,
// overflow, shift ranges, and the use of indeterminate values.
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include "libc/Builtins.h"
#include "support/InlineBuffer.h"

#include <cassert>

using namespace cundef;

void Machine::stepExpr(const Expr *E) {
  switch (E->Kind) {
  case ExprKind::IntLit:
    pushValue(Value::makeInt(E->Ty.Ty, cast<IntLitExpr>(E)->Value));
    return;
  case ExprKind::FloatLit:
    pushValue(Value::makeFloat(E->Ty.Ty, cast<FloatLitExpr>(E)->Value));
    return;
  case ExprKind::StringLit: {
    uint32_t Id = literalObject(cast<StringLitExpr>(E));
    pushValue(Value::makeLValue(SymPointer(Id, 0), E->Ty));
    return;
  }
  case ExprKind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    if (Ref->Fn) {
      // A function designator: a pointer value typed with the function
      // type until FunctionDecay retypes it.
      uint32_t Id = functionObject(Ref->Fn);
      pushValue(Value::makePointer(Ref->Fn->FnTy, SymPointer(Id, 0)));
      return;
    }
    uint32_t Id = Conf.lookup(Ref->Var->DeclId);
    if (!Id) {
      Conf.Status = RunStatus::Internal;
      return;
    }
    pushValue(Value::makeLValue(SymPointer(Id, 0), Ref->Ty));
    return;
  }
  case ExprKind::Unary:
    scheduleOperands(E, 1);
    return;
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->Op == BinaryOp::LogAnd || B->Op == BinaryOp::LogOr) {
      Conf.K.push_back(KItem::forExpr(KKind::LogicRhs, B));
      Conf.K.push_back(KItem::expr(B->Lhs));
      return;
    }
    if (B->Op == BinaryOp::Comma) {
      // lhs ; sequence point ; rhs  (value of lhs discarded unread)
      Conf.K.push_back(KItem::expr(B->Rhs));
      Conf.K.push_back(KItem::simple(KKind::SeqPoint));
      Conf.K.push_back(KItem::simple(KKind::Pop));
      Conf.K.push_back(KItem::expr(B->Lhs));
      return;
    }
    scheduleOperands(E, 2);
    return;
  }
  case ExprKind::Assign:
    scheduleOperands(E, 2);
    return;
  case ExprKind::Cond: {
    Conf.K.push_back(KItem::forExpr(KKind::CondPick, E));
    Conf.K.push_back(KItem::expr(cast<CondExpr>(E)->Cond));
    return;
  }
  case ExprKind::Cast:
  case ExprKind::ImplicitCast: {
    const Expr *Sub = E->Kind == ExprKind::Cast
                          ? cast<CastExpr>(E)->Sub
                          : cast<ImplicitCastExpr>(E)->Sub;
    CastKind CK = E->Kind == ExprKind::Cast
                      ? cast<CastExpr>(E)->CK
                      : cast<ImplicitCastExpr>(E)->CK;
    if (CK == CastKind::LValueToRValue) {
      Conf.K.push_back(KItem::forExpr(KKind::LvToRv, E));
      Conf.K.push_back(KItem::expr(Sub));
      return;
    }
    Conf.K.push_back(KItem::forExpr(KKind::CastApply, E));
    Conf.K.push_back(KItem::expr(Sub));
    return;
  }
  case ExprKind::Call:
    scheduleOperands(
        E, 1 + static_cast<unsigned>(cast<CallExpr>(E)->Args.size()));
    return;
  case ExprKind::Member:
    scheduleOperands(E, 1);
    return;
  case ExprKind::Index:
    scheduleOperands(E, 2);
    return;
  case ExprKind::Sizeof: {
    const auto *S = cast<SizeofExpr>(E);
    QualType Ty = S->ArgExpr ? S->ArgExpr->Ty : S->ArgTy;
    uint64_t Size = Ty.isNull() ? 0 : Ctx.Types.sizeOf(Ty);
    pushValue(Value::makeInt(E->Ty.Ty, Size));
    return;
  }
  case ExprKind::InitList:
    Conf.Status = RunStatus::Internal; // only valid inside initializers
    return;
  }
}

/// Operand \p I, in source order, of an operator whose operands go
/// through scheduleOperands.
static const Expr *operandAt(const Expr *E, unsigned I) {
  switch (E->Kind) {
  case ExprKind::Unary:
    return cast<UnaryExpr>(E)->Sub;
  case ExprKind::Binary:
    return I ? cast<BinaryExpr>(E)->Rhs : cast<BinaryExpr>(E)->Lhs;
  case ExprKind::Assign:
    return I ? cast<AssignExpr>(E)->Rhs : cast<AssignExpr>(E)->Lhs;
  case ExprKind::Call:
    return I ? cast<CallExpr>(E)->Args[I - 1] : cast<CallExpr>(E)->Callee;
  case ExprKind::Member:
    return cast<MemberExpr>(E)->Base;
  case ExprKind::Index:
    return I ? cast<IndexExpr>(E)->Index : cast<IndexExpr>(E)->Base;
  default:
    return nullptr;
  }
}

void Machine::scheduleOperands(const Expr *Node, unsigned N) {
  // Operand indices are bytes (OperandOrder): a call with more arguments
  // than that is beyond this machine, which is not the program's fault.
  if (N > OperandOrder::MaxOperands) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  // An order-free list reaches the same state in every order, so it is
  // one forced decision: no snapshot, no fingerprint, no sibling.
  const bool Forced = Node->OrderFree;
  // Pre-choice hook: the configuration is still the pre-step state
  // (popping Node's expr item and entering this function had no other
  // effect), which is what makes captureChoiceSnapshot's rewind exact.
  if (OnBeforeChoice && !Forced && N >= 2 &&
      Conf.Status == RunStatus::Running) {
    PendingChoiceNode = Node;
    OnBeforeChoice(*this, N);
    PendingChoiceNode = nullptr;
  }
  KItem Item = KItem::forExpr(KKind::EvalOperands, Node);
  Item.Perm = Chooser.choose(N, Forced);
  Conf.K.push_back(std::move(Item));
  stepEvalOperands();
  // The chosen permutation is on the k cell now, so a fingerprint taken
  // by the hook sees (and distinguishes) the decision just made.
  if (OnChoice && !Forced && Conf.Status == RunStatus::Running &&
      !OnChoice(*this))
    Conf.Status = RunStatus::Cancelled;
}

void Machine::stepEvalOperands() {
  const KItem &Top = Conf.K.back();
  // The previously scheduled operand left its value on top of the value
  // stack, above those of the operands before it. It stays there; only
  // the check for consuming it runs now, in the step that used to pop it.
  if (Top.Idx > 0) {
    if (Conf.Values.size() < Top.Idx) {
      Conf.Status = RunStatus::Internal;
      return;
    }
    checkTopValue(Top.E->Loc);
    if (Conf.Status != RunStatus::Running)
      return;
  }
  if (Top.Idx < Top.Perm.size()) {
    KItem &Item = Conf.K.mutableBack();
    const Expr *Next = operandAt(Item.E, Item.Perm[Item.Idx++]);
    Conf.K.push_back(KItem::expr(Next));
    return;
  }
  finishOperands(Conf.K.take());
}

void Machine::finishOperands(const KItem &Item) {
  // The top N values are the operands' results in evaluation order,
  // Perm[0]'s lowest. They move to a buffer of this activation's own
  // before the rule runs: the rule pushes its result, and a builtin's
  // call-back (qsort's comparator) runs whole operand lists of its own
  // from inside finishCall, so no rule may hold references into the
  // value stack or into a buffer that nested lists share.
  const unsigned N = Item.Perm.size();
  InlineBuffer<Value, 4> Buffer(N);
  ValueSpan Vals(Buffer.data(), N);
  const auto First = Conf.Values.end() - N;
  for (unsigned I = 0; I < N; ++I)
    Vals[Item.Perm[I]] = std::move(First[I]);
  Conf.Values.erase(First, Conf.Values.end());
  switch (Item.E->Kind) {
  case ExprKind::Unary:
    finishUnary(cast<UnaryExpr>(Item.E), Vals);
    return;
  case ExprKind::Binary:
    finishBinary(cast<BinaryExpr>(Item.E), Vals);
    return;
  case ExprKind::Assign:
    finishAssign(cast<AssignExpr>(Item.E), Vals);
    return;
  case ExprKind::Call:
    finishCall(cast<CallExpr>(Item.E), Vals);
    return;
  case ExprKind::Index:
    finishIndex(cast<IndexExpr>(Item.E), Vals);
    return;
  case ExprKind::Member:
    finishMember(cast<MemberExpr>(Item.E), Vals);
    return;
  default:
    Conf.Status = RunStatus::Internal;
    return;
  }
}

/// Checks an operand that is about to be used as a value: opaque bytes
/// (unknown or pointer fragments read through character lvalues) may be
/// stored but not computed with (paper section 4.3.3).
static bool checkComputable(Machine &M, const Value &V, SourceLoc Loc) {
  if (!V.isOpaque())
    return true;
  M.flagUb(UbKind::ReadIndeterminateValue, Loc);
  return !M.options().Strict;
}

void Machine::finishUnary(const UnaryExpr *U, ValueSpan Vals) {
  Value &Sub = Vals[0];
  switch (U->Op) {
  case UnaryOp::AddrOf: {
    if (Sub.isLValue()) {
      pushValue(Value::makePointer(U->Ty.Ty, Sub.Ptr));
      return;
    }
    if (Sub.isPointer()) { // &function
      pushValue(Value::makePointer(U->Ty.Ty, Sub.Ptr));
      return;
    }
    Conf.Status = RunStatus::Internal;
    return;
  }
  case UnaryOp::Deref: {
    if (!Sub.isPointer()) {
      Conf.Status = RunStatus::Internal;
      return;
    }
    QualType Pointee = Sub.Ty->Pointee;
    if (Pointee.Ty->isFunction()) {
      // *fp is again a function designator.
      pushValue(Value::makePointer(Pointee.Ty, Sub.Ptr));
      return;
    }
    if (!derefCheck(Sub, Pointee, U->Loc))
      return;
    if (Opts.Strict && Opts.SymbolicPointers && Sub.SubLen != 0 &&
        Sub.Ptr.Offset ==
            Sub.SubStart + static_cast<int64_t>(Sub.SubLen)) {
      flagUbCode(64, U->Loc); // deref one past the inner array
      return;
    }
    pushValue(Value::makeLValue(Sub.Ptr, Pointee));
    return;
  }
  case UnaryOp::Plus:
    if (!checkComputable(*this, Sub, U->Loc))
      return;
    pushValue(Sub);
    return;
  case UnaryOp::Minus: {
    if (!checkComputable(*this, Sub, U->Loc))
      return;
    if (Sub.isFloat()) {
      pushValue(Value::makeFloat(U->Ty.Ty, -Sub.F));
      return;
    }
    Value Zero = Value::makeInt(U->Ty.Ty, 0);
    ArithOutcome Out =
        evalIntBinary(BinaryOp::Sub, Zero, Sub, U->Ty.Ty, Ctx.Types);
    for (ExecMonitor *M : Monitors)
      M->onArith(*this, Out, U->Loc);
    if (Out.Overflow && Opts.Strict) {
      flagUb(UbKind::SignedOverflow, U->Loc);
      if (Opts.StopAtFirstUb)
        return;
    }
    pushValue(Out.V);
    return;
  }
  case UnaryOp::BitNot: {
    if (!checkComputable(*this, Sub, U->Loc))
      return;
    uint64_t Bits = ~Sub.asUnsigned(Ctx.Types);
    pushValue(Value::makeInt(U->Ty.Ty, truncateBits(Bits, U->Ty.Ty,
                                                    Ctx.Types)));
    return;
  }
  case UnaryOp::LogNot: {
    if (!checkComputable(*this, Sub, U->Loc))
      return;
    pushValue(Value::makeInt(U->Ty.Ty, Sub.truthy(Ctx.Types) ? 0 : 1));
    return;
  }
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec:
    applyIncDec(U, Sub);
    return;
  }
}

void Machine::applyIncDec(const UnaryExpr *U, const Value &Lv) {
  if (!Lv.isLValue()) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  QualType Ty = Lv.lvalueType();
  Value Old;
  if (!loadScalar(Lv.Ptr, Ty, U->Loc, Old))
    return;
  if (!checkComputable(*this, Old, U->Loc))
    return;
  bool IsInc = U->Op == UnaryOp::PreInc || U->Op == UnaryOp::PostInc;
  bool IsPost = U->Op == UnaryOp::PostInc || U->Op == UnaryOp::PostDec;
  Value New;
  if (Old.isPointer()) {
    if (!pointerAdd(Old, IsInc ? 1 : -1, U->Loc, New))
      return;
  } else if (Old.isFloat()) {
    New = Value::makeFloat(Old.Ty, IsInc ? Old.F + 1.0 : Old.F - 1.0);
  } else {
    // Compute in the promoted type (so char/short never overflow), then
    // convert back; overflow in int-or-wider is UB 3.
    QualType Promoted = Ctx.Types.promote(QualType(Old.Ty));
    Value Wide = Value::makeInt(
        Promoted.Ty, truncateBits(Old.Bits, Old.Ty, Ctx.Types));
    if (!Old.Ty->isUnsignedInteger(Ctx.Types.config()))
      Wide = Value::makeInt(Promoted.Ty,
                            static_cast<uint64_t>(Old.asSigned(Ctx.Types)));
    Value One = Value::makeInt(Promoted.Ty, 1);
    ArithOutcome Out =
        evalIntBinary(IsInc ? BinaryOp::Add : BinaryOp::Sub, Wide, One,
                      Promoted.Ty, Ctx.Types);
    for (ExecMonitor *M : Monitors)
      M->onArith(*this, Out, U->Loc);
    if (Out.Overflow && Opts.Strict) {
      flagUb(UbKind::SignedOverflow, U->Loc);
      if (Opts.StopAtFirstUb)
        return;
    }
    New = Value::makeInt(Old.Ty,
                         truncateBits(Out.V.Bits, Old.Ty, Ctx.Types));
  }
  if (!storeScalar(Lv.Ptr, Ty, New, U->Loc, /*IsInit=*/false))
    return;
  pushValue(IsPost ? Old : New);
}

bool Machine::divisionRule(BinaryOp Op, const Value &L, const Value &R,
                           const Type *ResultTy, SourceLoc Loc, Value &Out) {
  for (ExecMonitor *M : Monitors)
    M->onDivide(*this, R, Loc);

  if (Opts.Style == RuleStyle::PrecedenceChain && Opts.Strict) {
    RuleContext RC;
    RC.Operand0 = L;
    RC.Operand1 = R;
    RC.Loc = Loc;
    RC.Node = nullptr;
    // The chain carries the result type through Operand0's type slot;
    // rules read machine state directly.
    const char *Applied = divChain().apply(*this, RC);
    (void)Applied;
    if (!RC.ProducedResult)
      return false; // a negative rule reported undefinedness
    Out = RC.Result;
    return true;
  }

  bool DivisorZero = R.asUnsigned(Ctx.Types) == 0;
  if (DivisorZero) {
    if (Opts.Strict && Opts.Style != RuleStyle::Declarative) {
      flagUb(Op == BinaryOp::Div ? UbKind::DivisionByZero
                                 : UbKind::ModuloByZero,
             Loc);
      return false;
    }
    if (Opts.Strict && Conf.Status != RunStatus::Running)
      return false; // a declarative monitor already stopped us
    // Modelled hardware (ARM-style) yields 0 rather than trapping.
    Out = Value::makeInt(ResultTy, 0);
    return true;
  }
  ArithOutcome Res = evalIntBinary(Op, L, R, ResultTy, Ctx.Types);
  for (ExecMonitor *M : Monitors)
    M->onArith(*this, Res, Loc);
  if (Res.Overflow && Opts.Strict && Opts.Style != RuleStyle::Declarative) {
    flagUb(UbKind::SignedOverflow, Loc);
    return false;
  }
  if (Opts.Strict && Conf.Status != RunStatus::Running)
    return false;
  Out = Res.V;
  return true;
}

void Machine::finishBinary(const BinaryExpr *B, ValueSpan Vals) {
  Value &L = Vals[0];
  Value &R = Vals[1];
  if (!checkComputable(*this, L, B->Loc) ||
      !checkComputable(*this, R, B->Loc))
    return;

  // Pointer arithmetic and comparison (paper section 4.3.1).
  if (L.isPointer() || R.isPointer()) {
    switch (B->Op) {
    case BinaryOp::Add: {
      const Value &P = L.isPointer() ? L : R;
      const Value &I = L.isPointer() ? R : L;
      Value Out;
      if (!pointerAdd(P, I.asSigned(Ctx.Types), B->Loc, Out))
        return;
      pushValue(Out);
      return;
    }
    case BinaryOp::Sub: {
      if (L.isPointer() && !R.isPointer()) {
        Value Out;
        if (!pointerAdd(L, -R.asSigned(Ctx.Types), B->Loc, Out))
          return;
        pushValue(Out);
        return;
      }
      // Pointer difference.
      uint64_t ElemSize = 1;
      if (L.Ty->Pointee.Ty && L.Ty->Pointee.Ty->isCompleteObjectType())
        ElemSize = Ctx.Types.sizeOf(L.Ty->Pointee);
      if (Opts.Strict && Opts.SymbolicPointers) {
        if (L.Ptr.FromInteger || R.Ptr.FromInteger ||
            L.Ptr.Base != R.Ptr.Base || L.Ptr.isNull()) {
          flagUb(UbKind::PointerSubDifferentObjects, B->Loc);
          return;
        }
        const MemObject *Obj = Conf.Mem.find(L.Ptr.Base);
        if (Obj && !Obj->isAlive()) {
          flagUbCode(53, B->Loc); // value of dangling pointer used
          return;
        }
        int64_t Diff = (L.Ptr.Offset - R.Ptr.Offset) /
                       static_cast<int64_t>(ElemSize);
        pushValue(Value::makeInt(B->Ty.Ty,
                                 static_cast<uint64_t>(Diff)));
        return;
      }
      int64_t Diff = static_cast<int64_t>(absAddr(L.Ptr)) -
                     static_cast<int64_t>(absAddr(R.Ptr));
      pushValue(Value::makeInt(B->Ty.Ty,
                               static_cast<uint64_t>(
                                   Diff / static_cast<int64_t>(ElemSize))));
      return;
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      bool Equal;
      if (Opts.Strict && Opts.SymbolicPointers)
        Equal = L.Ptr == R.Ptr;
      else
        Equal = absAddr(L.Ptr) == absAddr(R.Ptr);
      bool Result = B->Op == BinaryOp::Eq ? Equal : !Equal;
      pushValue(Value::makeInt(B->Ty.Ty, Result ? 1 : 0));
      return;
    }
    case BinaryOp::Lt:
    case BinaryOp::Gt:
    case BinaryOp::Le:
    case BinaryOp::Ge: {
      if (Opts.Strict && Opts.SymbolicPointers) {
        // Only pointers into the same object are ordered (6.5.8p5);
        // this is the paper's &a < &b example.
        if (L.Ptr.isNull() || R.Ptr.isNull() || L.Ptr.FromInteger ||
            R.Ptr.FromInteger || L.Ptr.Base != R.Ptr.Base) {
          flagUb(UbKind::PointerCompareDifferentObjects, B->Loc);
          return;
        }
        const MemObject *Obj = Conf.Mem.find(L.Ptr.Base);
        if (Obj && !Obj->isAlive()) {
          flagUbCode(53, B->Loc);
          return;
        }
        int64_t A = L.Ptr.Offset, Bo = R.Ptr.Offset;
        bool Result = B->Op == BinaryOp::Lt   ? A < Bo
                      : B->Op == BinaryOp::Gt ? A > Bo
                      : B->Op == BinaryOp::Le ? A <= Bo
                                              : A >= Bo;
        pushValue(Value::makeInt(B->Ty.Ty, Result ? 1 : 0));
        return;
      }
      uint64_t A = absAddr(L.Ptr), Bo = absAddr(R.Ptr);
      bool Result = B->Op == BinaryOp::Lt   ? A < Bo
                    : B->Op == BinaryOp::Gt ? A > Bo
                    : B->Op == BinaryOp::Le ? A <= Bo
                                            : A >= Bo;
      pushValue(Value::makeInt(B->Ty.Ty, Result ? 1 : 0));
      return;
    }
    default:
      Conf.Status = RunStatus::Internal;
      return;
    }
  }

  if (L.isFloat() || R.isFloat()) {
    pushValue(evalFloatBinary(B->Op, L, R, B->Ty.Ty, Ctx.Types));
    return;
  }

  // Integer arithmetic.
  if (B->Op == BinaryOp::Div || B->Op == BinaryOp::Rem) {
    Value Out;
    if (!divisionRule(B->Op, L, R, B->Ty.Ty, B->Loc, Out))
      return;
    pushValue(Out);
    return;
  }
  ArithOutcome Out = evalIntBinary(B->Op, L, R, B->Ty.Ty, Ctx.Types);
  for (ExecMonitor *M : Monitors)
    M->onArith(*this, Out, B->Loc);
  if (Opts.Strict && Opts.Style != RuleStyle::Declarative) {
    if (Out.Overflow) {
      flagUb(UbKind::SignedOverflow, B->Loc);
      return;
    }
    if (Out.ShiftNegCount) {
      flagUb(UbKind::NegativeShiftCount, B->Loc);
      return;
    }
    if (Out.ShiftTooWide) {
      flagUb(UbKind::ShiftExponentOutOfRange, B->Loc);
      return;
    }
    if (Out.ShiftOfNeg) {
      flagUb(UbKind::ShiftOfNegative, B->Loc);
      return;
    }
  }
  if (Opts.Strict && Conf.Status != RunStatus::Running)
    return; // declarative monitor stopped us
  pushValue(Out.V);
}

void Machine::finishAssign(const AssignExpr *A, ValueSpan Vals) {
  Value &Target = Vals[0];
  Value &Rhs = Vals[1];
  if (!Target.isLValue()) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  QualType LhsTy = Target.lvalueType();

  if (A->Op == AssignOp::Assign) {
    bool Ok = LhsTy.Ty->isRecord()
                  ? storeAgg(Target.Ptr, LhsTy, Rhs, A->Loc, false)
                  : storeScalar(Target.Ptr, LhsTy, Rhs, A->Loc, false);
    if (!Ok)
      return;
    Value Result = Rhs;
    Result.Ty = A->Ty.Ty;
    pushValue(std::move(Result));
    return;
  }

  // Compound assignment: read, compute in ComputeTy, convert back.
  Value Old;
  if (!loadScalar(Target.Ptr, LhsTy, A->Loc, Old))
    return;
  if (!checkComputable(*this, Old, A->Loc) ||
      !checkComputable(*this, Rhs, A->Loc))
    return;
  BinaryOp Op = compoundOpOf(A->Op);
  Value New;
  if (Old.isPointer()) {
    if (!pointerAdd(Old, Op == BinaryOp::Add ? Rhs.asSigned(Ctx.Types)
                                             : -Rhs.asSigned(Ctx.Types),
                    A->Loc, New))
      return;
  } else {
    Value Wide = convertForMachine(Old, A->ComputeTy.Ty, A->Loc);
    if (Conf.Status != RunStatus::Running)
      return;
    if (Wide.isFloat() || Rhs.isFloat()) {
      New = evalFloatBinary(Op, Wide, Rhs, A->ComputeTy.Ty, Ctx.Types);
    } else if (Op == BinaryOp::Div || Op == BinaryOp::Rem) {
      if (!divisionRule(Op, Wide, Rhs, A->ComputeTy.Ty, A->Loc, New))
        return;
    } else {
      ArithOutcome Out =
          evalIntBinary(Op, Wide, Rhs, A->ComputeTy.Ty, Ctx.Types);
      for (ExecMonitor *M : Monitors)
        M->onArith(*this, Out, A->Loc);
      if (Opts.Strict && Opts.Style != RuleStyle::Declarative &&
          (Out.Overflow || Out.ShiftTooWide || Out.ShiftNegCount ||
           Out.ShiftOfNeg)) {
        flagUb(Out.Overflow ? UbKind::SignedOverflow
               : Out.ShiftNegCount
                   ? UbKind::NegativeShiftCount
                   : Out.ShiftTooWide ? UbKind::ShiftExponentOutOfRange
                                      : UbKind::ShiftOfNegative,
               A->Loc);
        return;
      }
      if (Opts.Strict && Conf.Status != RunStatus::Running)
        return;
      New = Out.V;
    }
    New = convertForMachine(New, LhsTy.Ty, A->Loc);
    if (Conf.Status != RunStatus::Running)
      return;
  }
  if (!storeScalar(Target.Ptr, LhsTy, New, A->Loc, false))
    return;
  Value Result = New;
  Result.Ty = A->Ty.Ty;
  pushValue(std::move(Result));
}

void Machine::finishIndex(const IndexExpr *I, ValueSpan Vals) {
  Value &Base = Vals[0];
  Value &Idx = Vals[1];
  if (!Base.isPointer() || !Idx.isInt()) {
    if (!checkComputable(*this, Base, I->Loc) ||
        !checkComputable(*this, Idx, I->Loc))
      return;
    Conf.Status = RunStatus::Internal;
    return;
  }
  Value Moved;
  if (!pointerAdd(Base, Idx.asSigned(Ctx.Types), I->Loc, Moved))
    return;
  // Forming an lvalue exactly one past the decayed inner array: the
  // enclosing object may continue, but the access is out of the
  // subscripted array's range (catalog row 64).
  if (Opts.Strict && Opts.SymbolicPointers && Moved.SubLen != 0 &&
      Moved.Ptr.Offset ==
          Moved.SubStart + static_cast<int64_t>(Moved.SubLen)) {
    flagUbCode(64, I->Loc);
    return;
  }
  pushValue(Value::makeLValue(Moved.Ptr, I->Ty));
}

void Machine::finishMember(const MemberExpr *M, ValueSpan Vals) {
  Value &Base = Vals[0];
  const Type *RecordTy = nullptr;
  SymPointer Ptr;
  if (M->IsArrow) {
    if (!Base.isPointer()) {
      Conf.Status = RunStatus::Internal;
      return;
    }
    RecordTy = Base.Ty->Pointee.Ty;
    if (!derefCheck(Base, Base.Ty->Pointee, M->Loc))
      return;
    Ptr = Base.Ptr;
  } else if (Base.isLValue()) {
    RecordTy = Base.Ty;
    Ptr = Base.Ptr;
  } else if (Base.isAgg()) {
    // Member of a struct rvalue (e.g. f().x): slice the bytes.
    RecordTy = Base.Ty;
    const FieldInfo &Field = RecordTy->Record->Fields[M->FieldIdx];
    uint64_t Size = Ctx.Types.sizeOf(Field.Ty);
    Value Out;
    if (!decodeBytes(Base.AggBytes.data() + Field.Offset, Size, Field.Ty,
                     M->Loc, Out))
      return;
    pushValue(std::move(Out));
    return;
  } else {
    Conf.Status = RunStatus::Internal;
    return;
  }
  const FieldInfo &Field = RecordTy->Record->Fields[M->FieldIdx];
  Ptr.Offset += static_cast<int64_t>(Field.Offset);
  pushValue(Value::makeLValue(Ptr, M->Ty));
}

void Machine::stepLvToRv(const Expr *Node) {
  Value Lv = popValue(Node->Loc);
  if (Conf.Status != RunStatus::Running)
    return;
  if (!Lv.isLValue()) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  QualType Ty = Lv.lvalueType();
  Value Out;
  bool Ok = Ty.Ty->isRecord() ? loadAgg(Lv.Ptr, Ty, Node->Loc, Out)
                              : loadScalar(Lv.Ptr, Ty, Node->Loc, Out);
  if (!Ok)
    return;
  pushValue(std::move(Out));
}

void Machine::stepCastApply(const Expr *Node) {
  CastKind CK = Node->Kind == ExprKind::Cast
                    ? cast<CastExpr>(Node)->CK
                    : cast<ImplicitCastExpr>(Node)->CK;
  Value V = popValue(Node->Loc);
  if (Conf.Status != RunStatus::Running)
    return;
  switch (CK) {
  case CastKind::ToVoid:
    pushValue(Value::empty());
    return;
  case CastKind::ArrayDecay: {
    if (!V.isLValue()) {
      Conf.Status = RunStatus::Internal;
      return;
    }
    Value P = Value::makePointer(Node->Ty.Ty, V.Ptr);
    // Remember the decayed array's window: indexing beyond it is
    // undefined even inside a larger object (C11 6.5.6p8, row 64).
    if (V.Ty && V.Ty->isArray() && V.Ty->ArraySizeKnown) {
      P.SubStart = V.Ptr.Offset;
      P.SubLen = Ctx.Types.sizeOf(QualType(V.Ty));
    }
    pushValue(P);
    return;
  }
  case CastKind::FunctionDecay: {
    pushValue(Value::makePointer(Node->Ty.Ty, V.Ptr));
    return;
  }
  case CastKind::PointerToInt: {
    uint64_t Raw = V.isPointer() ? absAddr(V.Ptr) : 0;
    pushValue(Value::makeInt(Node->Ty.Ty,
                             truncateBits(Raw, Node->Ty.Ty, Ctx.Types)));
    return;
  }
  default: {
    if (V.isOpaque()) {
      // Conversions use the value: indeterminate operands are UB.
      flagUb(UbKind::ReadIndeterminateValue, Node->Loc);
      if (Opts.Strict && Opts.StopAtFirstUb)
        return;
      V = Value::makeInt(Ctx.Types.ucharTy(),
                         permissiveByteValue(V.Payload, 0));
    }
    ConvOutcome Out = convertScalar(V, Node->Ty.Ty, CK, Ctx.Types);
    if (Out.FloatToIntOverflow && Opts.Strict) {
      flagUb(UbKind::FloatToIntOverflow, Node->Loc);
      if (Opts.StopAtFirstUb)
        return;
    }
    pushValue(Out.V);
    return;
  }
  }
}

void Machine::stepLogicRhs(const Expr *Node) {
  const auto *B = cast<BinaryExpr>(Node);
  Value L = popValue(Node->Loc);
  if (Conf.Status != RunStatus::Running)
    return;
  if (!checkComputable(*this, L, B->Lhs->Loc))
    return;
  bool Truth = L.truthy(Ctx.Types);
  bool IsAnd = B->Op == BinaryOp::LogAnd;
  if ((IsAnd && !Truth) || (!IsAnd && Truth)) {
    pushValue(Value::makeInt(B->Ty.Ty, Truth ? 1 : 0));
    return;
  }
  // Sequence point between the operands (C11 6.5.13/6.5.14).
  Conf.K.push_back(KItem::forExpr(KKind::LogicDone, B));
  Conf.K.push_back(KItem::expr(B->Rhs));
  seqPoint();
}

void Machine::stepLogicDone(const Expr *Node) {
  const auto *B = cast<BinaryExpr>(Node);
  Value R = popValue(Node->Loc);
  if (Conf.Status != RunStatus::Running)
    return;
  if (!checkComputable(*this, R, B->Rhs->Loc))
    return;
  pushValue(Value::makeInt(B->Ty.Ty, R.truthy(Ctx.Types) ? 1 : 0));
}

void Machine::stepCondPick(const Expr *Node) {
  const auto *C = cast<CondExpr>(Node);
  Value V = popValue(Node->Loc);
  if (Conf.Status != RunStatus::Running)
    return;
  if (!checkComputable(*this, V, C->Cond->Loc))
    return;
  seqPoint();
  Conf.K.push_back(KItem::expr(V.truthy(Ctx.Types) ? C->Then : C->Else));
}

void Machine::finishCall(const CallExpr *C, ValueSpan Vals) {
  Value &CalleeV = Vals[0];
  if (!CalleeV.isPointer()) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  if (CalleeV.Ptr.isNull() || CalleeV.Ptr.FromInteger) {
    flagUb(UbKind::DerefNullPointer, C->Loc);
    if (Opts.Strict && Opts.StopAtFirstUb)
      return;
    fault("call through invalid function pointer", C->Loc);
    return;
  }
  auto FnIt = Conf.FuncByObject.find(CalleeV.Ptr.Base);
  if (FnIt == Conf.FuncByObject.end()) {
    // Calling through a pointer to a non-function object.
    flagUb(UbKind::CallTypeMismatch, C->Loc);
    if (Opts.Strict && Opts.StopAtFirstUb)
      return;
    fault("call through non-function pointer", C->Loc);
    return;
  }
  const FunctionDecl *Fn = FnIt->second;
  for (ExecMonitor *M : Monitors)
    M->onCall(*this, Fn, C);

  ValueSpan Args(Vals.begin() + 1, Vals.size() - 1);
  seqPoint(); // sequence point after designator and argument evaluation

  if (Fn->BuiltinId) {
    Value Result;
    if (!runBuiltin(*this, Fn->BuiltinId, Args, C, Result))
      return; // builtin reported UB / stopped the machine
    pushValue(std::move(Result));
    return;
  }
  if (!Fn->Body) {
    // No definition anywhere: undefined reference (catalog row 161).
    flagUbCode(161, C->Loc);
    if (Opts.Strict && Opts.StopAtFirstUb)
      return;
    pushValue(Value::makeInt(Ctx.Types.intTy(), 0));
    return;
  }

  // Call-site / definition compatibility (UB 22, paper section 2.7's
  // LLVM example is the same idea).
  const Type *SiteTy = C->Callee->Ty.Ty->isPointer()
                           ? C->Callee->Ty.Ty->Pointee.Ty
                           : C->Callee->Ty.Ty;
  if (SiteTy && !SiteTy->NoProto &&
      !Ctx.Types.compatible(QualType(SiteTy), QualType(Fn->FnTy))) {
    flagUb(UbKind::CallTypeMismatch, C->Loc);
    if (Opts.Strict && Opts.StopAtFirstUb)
      return;
  }
  if (SiteTy && SiteTy->NoProto) {
    // Unchecked call: the definition's expectations are checked now.
    if (!Fn->FnTy->Variadic && Args.size() != Fn->Params.size()) {
      flagUb(UbKind::CallArityMismatch, C->Loc);
      if (Opts.Strict && Opts.StopAtFirstUb)
        return;
    }
  }
  if (Conf.CallStack.size() >= Opts.MaxCallDepth) {
    flagUb(UbKind::RecursionLimitExceeded, C->Loc);
    if (Opts.Strict && Opts.StopAtFirstUb)
      return;
    fault("stack overflow", C->Loc);
    return;
  }

  Frame NewFrame;
  NewFrame.Fn = Fn;
  NewFrame.CallLoc = C->Loc;
  KItem Ret = KItem::simple(KKind::CallReturn);
  Ret.Callee = Fn;

  size_t NumParams = Fn->Params.size();
  for (size_t I = 0; I < NumParams; ++I) {
    const VarDecl *Param = Fn->Params[I];
    uint32_t Id = createObjectForDecl(Param, StorageKind::Auto);
    NewFrame.Env[Param->DeclId] = Id;
    NewFrame.ParamObjects.push_back(Id);
    Ret.ObjectsToKill.push_back(Id);
    if (I < Args.size()) {
      Value Arg = convertForMachine(Args[I], Param->Ty.Ty, C->Loc);
      if (Conf.Status != RunStatus::Running)
        return;
      if (Param->Ty.Ty->isRecord())
        storeAgg(SymPointer(Id, 0), Param->Ty, Arg, C->Loc, true);
      else
        storeScalar(SymPointer(Id, 0), Param->Ty, Arg, C->Loc, true);
    }
    // else: parameter left indeterminate (arity UB already flagged)
  }
  for (size_t I = NumParams; I < Args.size(); ++I)
    NewFrame.VarArgs.push_back(Args[I]);

  Conf.CallStack.push_back(std::move(NewFrame));
  seqPoint(); // sequence point before the actual call (C11 6.5.2.2p10)
  Conf.K.push_back(std::move(Ret));
  Conf.K.push_back(KItem::stmt(Fn->Body));
}
