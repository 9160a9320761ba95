//===- sema/SemaExpr.cpp - Semantic analysis: expressions ------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "sema/Sema.h"

#include "sema/ConstEval.h"
#include "support/Strings.h"

using namespace cundef;

bool Sema::isNullPointerConstant(const Expr *E) const {
  // An integer constant expression with value 0, or such an expression
  // cast to void* (C11 6.3.2.3p3).
  if (const auto *Cast = dynCast<CastExpr>(E)) {
    if (Cast->TargetTy.Ty && Cast->TargetTy.Ty->isVoidPointer())
      return isNullPointerConstant(Cast->Sub);
  }
  if (const auto *Imp = dynCast<ImplicitCastExpr>(E))
    return isNullPointerConstant(Imp->Sub);
  if (!E->Ty.isNull() && !E->Ty.Ty->isIntegral())
    return false;
  auto Value = constEvalInt(E, Ctx.Types);
  return Value && *Value == 0;
}

CastKind Sema::castKindFor(QualType From, QualType To) const {
  const Type *F = From.Ty;
  const Type *T = To.Ty;
  if (T->isBool())
    return CastKind::ToBool;
  if (F->isIntegral() && T->isIntegral())
    return CastKind::IntegralCast;
  if (F->isIntegral() && T->isFloating())
    return CastKind::IntToFloat;
  if (F->isFloating() && T->isIntegral())
    return CastKind::FloatToInt;
  if (F->isFloating() && T->isFloating())
    return CastKind::FloatCast;
  if (F->isPointer() && T->isPointer())
    return CastKind::PointerCast;
  if (F->isIntegral() && T->isPointer())
    return CastKind::IntToPointer;
  if (F->isPointer() && T->isIntegral())
    return CastKind::PointerToInt;
  return CastKind::IntegralCast;
}

void Sema::rvalue(Expr *&E) {
  if (E->Ty.isNull())
    return;
  const Type *T = E->Ty.Ty;
  if (T->isArray()) {
    QualType PtrTy(Ctx.Types.getPointer(T->Pointee));
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::ArrayDecay, PtrTy, E);
    return;
  }
  if (T->isFunction()) {
    QualType PtrTy(Ctx.Types.getPointer(E->Ty));
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::FunctionDecay, PtrTy,
                                     E);
    return;
  }
  if (E->Cat == ValueCat::LValue) {
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::LValueToRValue,
                                     E->Ty.unqualified(), E);
  }
}

/// Reports use of a void expression's (nonexistent) value -- statically
/// undefined per C11 6.3.2.2p1 and the paper's section 5.2.1 example.
static void reportVoidUse(Sema &S, UbSink &Ub, DiagnosticEngine &Diags,
                          const std::string &Fn, SourceLoc Loc) {
  (void)S;
  Ub.report(UbKind::UseOfVoidExpressionValue, Fn, Loc,
            /*StaticFinding=*/true);
  Diags.error(Loc, "value of void expression used");
}

void Sema::convertTo(Expr *&E, QualType To, const char *What) {
  rvalue(E);
  if (E->Ty.isNull() || To.isNull())
    return;
  QualType From = E->Ty;
  if (From.Ty == To.Ty)
    return;
  if (From.Ty->isVoid()) {
    reportVoidUse(*this, Ub, Diags, currentFunctionName(), E->Loc);
    return;
  }
  if (To.Ty->isVoid()) {
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::ToVoid, To, E);
    return;
  }
  if (To.Ty->isRecord() || From.Ty->isRecord()) {
    if (!Ctx.Types.compatible(From.unqualified(), To.unqualified()))
      Diags.error(E->Loc, strFormat("incompatible types in %s", What));
    return;
  }
  if (To.Ty->isPointer() && isNullPointerConstant(E)) {
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::NullToPointer, To, E);
    return;
  }
  if (To.Ty->isPointer() && From.Ty->isPointer()) {
    const QualType &FromPointee = From.Ty->Pointee;
    const QualType &ToPointee = To.Ty->Pointee;
    bool EitherVoid = FromPointee.Ty->isVoid() || ToPointee.Ty->isVoid();
    if (!EitherVoid &&
        !Ctx.Types.compatible(FromPointee.unqualified(),
                              ToPointee.unqualified()))
      Diags.warning(E->Loc,
                    strFormat("incompatible pointer types in %s", What));
    // Discarding qualifiers is a constraint violation (C11 6.5.16.1p1);
    // the paper discusses the strchr() loophole around it.
    if ((FromPointee.Quals & ~ToPointee.Quals) != 0)
      Diags.warning(E->Loc,
                    strFormat("%s discards qualifiers from pointer target",
                              What));
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::PointerCast, To, E);
    return;
  }
  if (To.Ty->isPointer() && From.Ty->isIntegral()) {
    Diags.warning(E->Loc,
                  strFormat("implicit integer-to-pointer conversion in %s",
                            What));
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::IntToPointer, To, E);
    return;
  }
  if (To.Ty->isIntegral() && From.Ty->isPointer()) {
    Diags.warning(E->Loc,
                  strFormat("implicit pointer-to-integer conversion in %s",
                            What));
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::PointerToInt, To, E);
    return;
  }
  if (From.Ty->isArithmetic() && To.Ty->isArithmetic()) {
    E = Ctx.create<ImplicitCastExpr>(E->Loc, castKindFor(From, To), To, E);
    return;
  }
  Diags.error(E->Loc, strFormat("invalid conversion in %s", What));
}

QualType Sema::usualArith(Expr *&L, Expr *&R) {
  rvalue(L);
  rvalue(R);
  if (L->Ty.isNull() || R->Ty.isNull())
    return QualType(Ctx.Types.intTy());
  if (!L->Ty.Ty->isArithmetic() || !R->Ty.Ty->isArithmetic()) {
    if (L->Ty.Ty->isVoid() || R->Ty.Ty->isVoid())
      reportVoidUse(*this, Ub, Diags, currentFunctionName(), L->Loc);
    else
      Diags.error(L->Loc, "operands must have arithmetic type");
    return QualType(Ctx.Types.intTy());
  }
  QualType Common = Ctx.Types.usualArithmetic(L->Ty, R->Ty);
  if (L->Ty.Ty != Common.Ty)
    L = Ctx.create<ImplicitCastExpr>(L->Loc, castKindFor(L->Ty, Common),
                                     Common, L);
  if (R->Ty.Ty != Common.Ty)
    R = Ctx.create<ImplicitCastExpr>(R->Loc, castKindFor(R->Ty, Common),
                                     Common, R);
  return Common;
}

void Sema::defaultPromote(Expr *&E) {
  rvalue(E);
  if (E->Ty.isNull())
    return;
  const Type *T = E->Ty.Ty;
  if (T->Kind == TypeKind::Float) {
    E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::FloatCast,
                                     QualType(Ctx.Types.doubleTy()), E);
    return;
  }
  if (T->isIntegral()) {
    QualType Promoted = Ctx.Types.promote(E->Ty);
    if (Promoted.Ty != T)
      E = Ctx.create<ImplicitCastExpr>(E->Loc, CastKind::IntegralCast,
                                       Promoted, E);
  }
}

void Sema::requireModifiable(const Expr *Lhs, SourceLoc Loc) {
  if (Lhs->Ty.isNull())
    return;
  if (Lhs->Cat != ValueCat::LValue) {
    Diags.error(Loc, "expression is not assignable (not an lvalue)");
    return;
  }
  if (Lhs->Ty.isConst()) {
    // Assignment to a const-qualified lvalue: constraint violation,
    // classified statically undefined (catalog id 43). Reported as a
    // finding (the kcc way) rather than a hard error so the program
    // still executes and the dynamic notWritable check fires too.
    Ub.report(UbKind::AssignToConstLvalue, currentFunctionName(), Loc,
              /*StaticFinding=*/true);
    Diags.warning(Loc, "assignment to const-qualified lvalue");
    return;
  }
  if (Lhs->Ty.Ty->isArray())
    Diags.error(Loc, "array is not assignable");
}

void Sema::typeExpr(Expr *&E) {
  if (!E)
    return;
  switch (E->Kind) {
  case ExprKind::IntLit:
  case ExprKind::FloatLit:
  case ExprKind::StringLit:
    return; // typed by the parser
  case ExprKind::DeclRef: {
    auto *Ref = static_cast<DeclRefExpr *>(E);
    if (Ref->Var) {
      Ref->Ty = Ref->Var->Ty;
      Ref->Cat = ValueCat::LValue;
    } else if (Ref->Fn) {
      Ref->Ty = QualType(Ref->Fn->FnTy);
      Ref->Cat = ValueCat::RValue; // function designator
    } else {
      Ref->Ty = QualType(Ctx.Types.intTy()); // recovery
    }
    return;
  }
  case ExprKind::Unary:
    typeUnary(static_cast<UnaryExpr *>(E), E);
    return;
  case ExprKind::Binary:
    typeBinary(static_cast<BinaryExpr *>(E), E);
    return;
  case ExprKind::Assign:
    typeAssign(static_cast<AssignExpr *>(E));
    return;
  case ExprKind::Cond: {
    auto *C = static_cast<CondExpr *>(E);
    typeExpr(C->Cond);
    rvalue(C->Cond);
    if (!C->Cond->Ty.isNull() && !C->Cond->Ty.Ty->isScalar())
      Diags.error(C->Cond->Loc, "condition must have scalar type");
    typeExpr(C->Then);
    typeExpr(C->Else);
    rvalue(C->Then);
    rvalue(C->Else);
    QualType LT = C->Then->Ty;
    QualType RT = C->Else->Ty;
    if (LT.isNull() || RT.isNull()) {
      C->Ty = QualType(Ctx.Types.intTy());
      return;
    }
    if (LT.Ty->isArithmetic() && RT.Ty->isArithmetic()) {
      C->Ty = usualArith(C->Then, C->Else);
      return;
    }
    if (LT.Ty->isVoid() && RT.Ty->isVoid()) {
      C->Ty = QualType(Ctx.Types.voidTy());
      return;
    }
    if (LT.Ty->isPointer() && isNullPointerConstant(C->Else)) {
      convertTo(C->Else, LT.unqualified(), "conditional expression");
      C->Ty = LT.unqualified();
      return;
    }
    if (RT.Ty->isPointer() && isNullPointerConstant(C->Then)) {
      convertTo(C->Then, RT.unqualified(), "conditional expression");
      C->Ty = RT.unqualified();
      return;
    }
    if (LT.Ty->isPointer() && RT.Ty->isPointer()) {
      if (LT.Ty->Pointee.Ty->isVoid()) {
        convertTo(C->Then, LT.unqualified(), "conditional expression");
        convertTo(C->Else, LT.unqualified(), "conditional expression");
        C->Ty = LT.unqualified();
        return;
      }
      if (RT.Ty->Pointee.Ty->isVoid() ||
          !Ctx.Types.compatible(LT.unqualified(), RT.unqualified())) {
        convertTo(C->Then, RT.unqualified(), "conditional expression");
        convertTo(C->Else, RT.unqualified(), "conditional expression");
        C->Ty = RT.unqualified();
        return;
      }
      C->Ty = LT.unqualified();
      return;
    }
    if (LT.Ty->isRecord() &&
        Ctx.Types.compatible(LT.unqualified(), RT.unqualified())) {
      C->Ty = LT.unqualified();
      return;
    }
    Diags.error(C->Loc, "incompatible operands of conditional expression");
    C->Ty = QualType(Ctx.Types.intTy());
    return;
  }
  case ExprKind::Cast: {
    auto *C = static_cast<CastExpr *>(E);
    typeExpr(C->Sub);
    QualType To = C->TargetTy;
    if (To.Ty->isVoid()) {
      C->CK = CastKind::ToVoid;
      C->Ty = To.unqualified();
      return;
    }
    rvalue(C->Sub);
    QualType From = C->Sub->Ty;
    if (From.isNull()) {
      C->Ty = To.unqualified();
      return;
    }
    if (From.Ty->isVoid()) {
      // (int)(void)5 -- statically undefined use of a void value.
      reportVoidUse(*this, Ub, Diags, currentFunctionName(), C->Loc);
      C->Ty = To.unqualified();
      return;
    }
    if (!To.Ty->isScalar() || !From.Ty->isScalar()) {
      Diags.error(C->Loc, "cast requires scalar types");
      C->Ty = To.unqualified();
      return;
    }
    C->CK = castKindFor(From, To);
    C->Ty = To.unqualified();
    return;
  }
  case ExprKind::Call:
    typeCall(static_cast<CallExpr *>(E));
    return;
  case ExprKind::Member:
    typeMember(static_cast<MemberExpr *>(E));
    return;
  case ExprKind::Index: {
    auto *I = static_cast<IndexExpr *>(E);
    typeExpr(I->Base);
    typeExpr(I->Index);
    rvalue(I->Base);
    rvalue(I->Index);
    // C allows i[p] as well as p[i]; normalize so Base is the pointer.
    if (!I->Base->Ty.isNull() && I->Base->Ty.Ty->isIntegral() &&
        !I->Index->Ty.isNull() && I->Index->Ty.Ty->isPointer())
      std::swap(I->Base, I->Index);
    if (I->Base->Ty.isNull() || !I->Base->Ty.Ty->isPointer()) {
      Diags.error(I->Loc, "subscripted value is not a pointer or array");
      I->Ty = QualType(Ctx.Types.intTy());
      return;
    }
    if (!I->Index->Ty.isNull() && !I->Index->Ty.Ty->isIntegral())
      Diags.error(I->Index->Loc, "array subscript is not an integer");
    I->Ty = I->Base->Ty.Ty->Pointee;
    I->Cat = ValueCat::LValue;
    return;
  }
  case ExprKind::Sizeof: {
    auto *S = static_cast<SizeofExpr *>(E);
    if (S->ArgExpr) {
      typeExpr(S->ArgExpr); // not evaluated; no decay, no lvalue conv
      if (!S->ArgExpr->Ty.isNull() &&
          (S->ArgExpr->Ty.Ty->isFunction() ||
           !S->ArgExpr->Ty.Ty->isCompleteObjectType()))
        Diags.error(S->Loc,
                    "sizeof requires a complete object type operand");
    } else if (!S->ArgTy.isNull() && (S->ArgTy.Ty->isFunction() ||
                                      !S->ArgTy.Ty->isCompleteObjectType())) {
      Diags.error(S->Loc, "sizeof requires a complete object type");
    }
    S->Ty = QualType(Ctx.Types.sizeTy());
    return;
  }
  case ExprKind::ImplicitCast:
    return; // already built by Sema
  case ExprKind::InitList:
    Diags.error(E->Loc, "initializer list used outside initialization");
    E->Ty = QualType(Ctx.Types.intTy());
    return;
  }
}

void Sema::typeUnary(UnaryExpr *U, Expr *&Slot) {
  typeExpr(U->Sub);
  switch (U->Op) {
  case UnaryOp::AddrOf: {
    if (U->Sub->Ty.isNull()) {
      U->Ty = QualType(Ctx.Types.getPointer(QualType(Ctx.Types.intTy())));
      return;
    }
    if (U->Sub->Ty.Ty->isFunction()) {
      U->Ty = QualType(Ctx.Types.getPointer(U->Sub->Ty));
      return;
    }
    if (U->Sub->Cat != ValueCat::LValue) {
      Diags.error(U->Loc, "cannot take the address of an rvalue");
      U->Ty = QualType(Ctx.Types.getPointer(QualType(Ctx.Types.intTy())));
      return;
    }
    U->Ty = QualType(Ctx.Types.getPointer(U->Sub->Ty));
    return;
  }
  case UnaryOp::Deref: {
    rvalue(U->Sub);
    if (U->Sub->Ty.isNull() || !U->Sub->Ty.Ty->isPointer()) {
      Diags.error(U->Loc, "indirection requires a pointer operand");
      U->Ty = QualType(Ctx.Types.intTy());
      return;
    }
    QualType Pointee = U->Sub->Ty.Ty->Pointee;
    U->Ty = Pointee;
    // *p where p : void* yields a "void lvalue" one cannot use; we keep
    // it an rvalue of void type (the machine flags the dereference).
    U->Cat = Pointee.Ty->isVoid() || Pointee.Ty->isFunction()
                 ? ValueCat::RValue
                 : ValueCat::LValue;
    return;
  }
  case UnaryOp::Plus:
  case UnaryOp::Minus: {
    rvalue(U->Sub);
    if (U->Sub->Ty.isNull() || !U->Sub->Ty.Ty->isArithmetic()) {
      Diags.error(U->Loc, "unary +/- requires an arithmetic operand");
      U->Ty = QualType(Ctx.Types.intTy());
      return;
    }
    if (U->Sub->Ty.Ty->isIntegral()) {
      QualType Promoted = Ctx.Types.promote(U->Sub->Ty);
      if (Promoted.Ty != U->Sub->Ty.Ty)
        U->Sub = Ctx.create<ImplicitCastExpr>(
            U->Sub->Loc, CastKind::IntegralCast, Promoted, U->Sub);
    }
    U->Ty = U->Sub->Ty.unqualified();
    return;
  }
  case UnaryOp::BitNot: {
    rvalue(U->Sub);
    if (U->Sub->Ty.isNull() || !U->Sub->Ty.Ty->isIntegral()) {
      Diags.error(U->Loc, "~ requires an integer operand");
      U->Ty = QualType(Ctx.Types.intTy());
      return;
    }
    QualType Promoted = Ctx.Types.promote(U->Sub->Ty);
    if (Promoted.Ty != U->Sub->Ty.Ty)
      U->Sub = Ctx.create<ImplicitCastExpr>(
          U->Sub->Loc, CastKind::IntegralCast, Promoted, U->Sub);
    U->Ty = Promoted;
    return;
  }
  case UnaryOp::LogNot: {
    rvalue(U->Sub);
    if (!U->Sub->Ty.isNull() && !U->Sub->Ty.Ty->isScalar())
      Diags.error(U->Loc, "! requires a scalar operand");
    U->Ty = QualType(Ctx.Types.intTy());
    return;
  }
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec: {
    requireModifiable(U->Sub, U->Loc);
    if (!U->Sub->Ty.isNull() && !U->Sub->Ty.Ty->isScalar())
      Diags.error(U->Loc, "++/-- requires a scalar operand");
    U->Ty = U->Sub->Ty.unqualified();
    return;
  }
  }
  (void)Slot;
}

void Sema::typeBinary(BinaryExpr *B, Expr *&Slot) {
  (void)Slot;
  typeExpr(B->Lhs);
  typeExpr(B->Rhs);
  const TypeContext &Types = Ctx.Types;
  switch (B->Op) {
  case BinaryOp::Comma:
    // Left value discarded (no lvalue conversion); right converted.
    rvalue(B->Rhs);
    B->Ty = B->Rhs->Ty.unqualified();
    return;
  case BinaryOp::LogAnd:
  case BinaryOp::LogOr: {
    rvalue(B->Lhs);
    rvalue(B->Rhs);
    for (Expr *Side : {B->Lhs, B->Rhs})
      if (!Side->Ty.isNull() && !Side->Ty.Ty->isScalar())
        Diags.error(Side->Loc, "logical operator requires scalar operands");
    B->Ty = QualType(Types.intTy());
    return;
  }
  case BinaryOp::Mul:
  case BinaryOp::Div:
    B->Ty = usualArith(B->Lhs, B->Rhs);
    return;
  case BinaryOp::Rem:
  case BinaryOp::BitAnd:
  case BinaryOp::BitXor:
  case BinaryOp::BitOr: {
    rvalue(B->Lhs);
    rvalue(B->Rhs);
    for (Expr *Side : {B->Lhs, B->Rhs})
      if (!Side->Ty.isNull() && !Side->Ty.Ty->isIntegral())
        Diags.error(Side->Loc, "operator requires integer operands");
    B->Ty = usualArith(B->Lhs, B->Rhs);
    return;
  }
  case BinaryOp::Shl:
  case BinaryOp::Shr: {
    rvalue(B->Lhs);
    rvalue(B->Rhs);
    for (Expr **Side : {&B->Lhs, &B->Rhs}) {
      if ((*Side)->Ty.isNull() || !(*Side)->Ty.Ty->isIntegral()) {
        Diags.error((*Side)->Loc, "shift requires integer operands");
        continue;
      }
      QualType Promoted = Types.promote((*Side)->Ty);
      if (Promoted.Ty != (*Side)->Ty.Ty)
        *Side = Ctx.create<ImplicitCastExpr>(
            (*Side)->Loc, CastKind::IntegralCast, Promoted, *Side);
    }
    B->Ty = B->Lhs->Ty.unqualified();
    return;
  }
  case BinaryOp::Add: {
    rvalue(B->Lhs);
    rvalue(B->Rhs);
    QualType LT = B->Lhs->Ty;
    QualType RT = B->Rhs->Ty;
    if (LT.isNull() || RT.isNull()) {
      B->Ty = QualType(Types.intTy());
      return;
    }
    if (LT.Ty->isArithmetic() && RT.Ty->isArithmetic()) {
      B->Ty = usualArith(B->Lhs, B->Rhs);
      return;
    }
    if (LT.Ty->isPointer() && RT.Ty->isIntegral()) {
      B->Ty = LT.unqualified();
      return;
    }
    if (LT.Ty->isIntegral() && RT.Ty->isPointer()) {
      B->Ty = RT.unqualified();
      return;
    }
    Diags.error(B->Loc, "invalid operands to +");
    B->Ty = QualType(Types.intTy());
    return;
  }
  case BinaryOp::Sub: {
    rvalue(B->Lhs);
    rvalue(B->Rhs);
    QualType LT = B->Lhs->Ty;
    QualType RT = B->Rhs->Ty;
    if (LT.isNull() || RT.isNull()) {
      B->Ty = QualType(Types.intTy());
      return;
    }
    if (LT.Ty->isArithmetic() && RT.Ty->isArithmetic()) {
      B->Ty = usualArith(B->Lhs, B->Rhs);
      return;
    }
    if (LT.Ty->isPointer() && RT.Ty->isIntegral()) {
      B->Ty = LT.unqualified();
      return;
    }
    if (LT.Ty->isPointer() && RT.Ty->isPointer()) {
      if (!Types.compatible(LT.Ty->Pointee.unqualified(),
                            RT.Ty->Pointee.unqualified()))
        Diags.error(B->Loc, "subtraction of incompatible pointer types");
      B->Ty = QualType(Types.ptrdiffTy());
      return;
    }
    Diags.error(B->Loc, "invalid operands to -");
    B->Ty = QualType(Types.intTy());
    return;
  }
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    rvalue(B->Lhs);
    rvalue(B->Rhs);
    QualType LT = B->Lhs->Ty;
    QualType RT = B->Rhs->Ty;
    B->Ty = QualType(Types.intTy());
    if (LT.isNull() || RT.isNull())
      return;
    if (LT.Ty->isArithmetic() && RT.Ty->isArithmetic()) {
      usualArith(B->Lhs, B->Rhs);
      return;
    }
    bool IsEquality = B->Op == BinaryOp::Eq || B->Op == BinaryOp::Ne;
    if (LT.Ty->isPointer() && IsEquality && isNullPointerConstant(B->Rhs)) {
      convertTo(B->Rhs, LT.unqualified(), "comparison");
      return;
    }
    if (RT.Ty->isPointer() && IsEquality && isNullPointerConstant(B->Lhs)) {
      convertTo(B->Lhs, RT.unqualified(), "comparison");
      return;
    }
    if (LT.Ty->isPointer() && RT.Ty->isPointer())
      return; // same-object requirement checked dynamically
    if (LT.Ty->isPointer() || RT.Ty->isPointer()) {
      Diags.warning(B->Loc, "comparison between pointer and integer");
      if (LT.Ty->isPointer())
        convertTo(B->Rhs, LT.unqualified(), "comparison");
      else
        convertTo(B->Lhs, RT.unqualified(), "comparison");
      return;
    }
    Diags.error(B->Loc, "invalid operands to comparison");
    return;
  }
  default:
    Diags.error(B->Loc, "unhandled binary operator");
    B->Ty = QualType(Types.intTy());
    return;
  }
}

void Sema::typeAssign(AssignExpr *A) {
  typeExpr(A->Lhs);
  typeExpr(A->Rhs);
  requireModifiable(A->Lhs, A->Loc);
  QualType LhsTy = A->Lhs->Ty;
  if (LhsTy.isNull()) {
    A->Ty = QualType(Ctx.Types.intTy());
    return;
  }
  A->Ty = LhsTy.unqualified();
  if (A->Op == AssignOp::Assign) {
    convertTo(A->Rhs, LhsTy.unqualified(), "assignment");
    return;
  }
  // Compound assignment: determine the computation type.
  BinaryOp Op = compoundOpOf(A->Op);
  if (Op == BinaryOp::Shl || Op == BinaryOp::Shr) {
    rvalue(A->Rhs);
    A->ComputeTy = Ctx.Types.promote(LhsTy.unqualified());
    if (!A->Rhs->Ty.isNull() && !A->Rhs->Ty.Ty->isIntegral())
      Diags.error(A->Rhs->Loc, "shift requires integer operands");
    return;
  }
  if (LhsTy.Ty->isPointer() &&
      (Op == BinaryOp::Add || Op == BinaryOp::Sub)) {
    rvalue(A->Rhs);
    if (!A->Rhs->Ty.isNull() && !A->Rhs->Ty.Ty->isIntegral())
      Diags.error(A->Rhs->Loc, "pointer compound assignment needs integer");
    A->ComputeTy = LhsTy.unqualified();
    return;
  }
  rvalue(A->Rhs);
  if (LhsTy.Ty->isArithmetic() && !A->Rhs->Ty.isNull() &&
      A->Rhs->Ty.Ty->isArithmetic()) {
    A->ComputeTy = Ctx.Types.usualArithmetic(LhsTy.unqualified(), A->Rhs->Ty);
    convertTo(A->Rhs, A->ComputeTy, "compound assignment");
    if ((Op == BinaryOp::Rem || Op == BinaryOp::BitAnd ||
         Op == BinaryOp::BitXor || Op == BinaryOp::BitOr) &&
        !A->ComputeTy.Ty->isIntegral())
      Diags.error(A->Loc, "operator requires integer operands");
    return;
  }
  Diags.error(A->Loc, "invalid operands to compound assignment");
  A->ComputeTy = QualType(Ctx.Types.intTy());
}

void Sema::typeCall(CallExpr *C) {
  typeExpr(C->Callee);
  rvalue(C->Callee); // function designators decay to pointers
  const Type *FnTy = nullptr;
  if (!C->Callee->Ty.isNull() && C->Callee->Ty.Ty->isFunctionPointer())
    FnTy = C->Callee->Ty.Ty->Pointee.Ty;
  if (!FnTy) {
    Diags.error(C->Loc, "called object is not a function");
    for (Expr *&Arg : C->Args)
      typeExpr(Arg);
    C->Ty = QualType(Ctx.Types.intTy());
    return;
  }
  C->Ty = FnTy->ReturnType.unqualified();

  for (Expr *&Arg : C->Args)
    typeExpr(Arg);

  if (FnTy->NoProto) {
    // Unchecked call: default argument promotions; the machine checks
    // the definition's expectations at run time (UbKind 22/23).
    for (Expr *&Arg : C->Args)
      defaultPromote(Arg);
    return;
  }
  size_t NumParams = FnTy->ParamTypes.size();
  if (C->Args.size() < NumParams ||
      (C->Args.size() > NumParams && !FnTy->Variadic)) {
    // Constraint violation (C11 6.5.2.2p2): statically undefined call.
    Ub.report(UbKind::CallArityMismatch, currentFunctionName(), C->Loc,
              /*StaticFinding=*/true);
    Diags.error(C->Loc,
                strFormat("call supplies %zu argument(s), prototype has %zu",
                          C->Args.size(), NumParams));
  }
  for (size_t I = 0; I < C->Args.size(); ++I) {
    if (I < NumParams)
      convertTo(C->Args[I], FnTy->ParamTypes[I].unqualified(),
                "argument passing");
    else
      defaultPromote(C->Args[I]); // variadic tail
  }
}

void Sema::typeMember(MemberExpr *M) {
  typeExpr(M->Base);
  const Type *RecordTy = nullptr;
  uint8_t ExtraQuals = QualNone;
  if (M->IsArrow) {
    rvalue(M->Base);
    if (!M->Base->Ty.isNull() && M->Base->Ty.Ty->isPointer() &&
        M->Base->Ty.Ty->Pointee.Ty->isRecord()) {
      RecordTy = M->Base->Ty.Ty->Pointee.Ty;
      ExtraQuals = M->Base->Ty.Ty->Pointee.Quals;
    }
  } else if (!M->Base->Ty.isNull() && M->Base->Ty.Ty->isRecord()) {
    RecordTy = M->Base->Ty.Ty;
    ExtraQuals = M->Base->Ty.Quals;
  }
  if (!RecordTy || !RecordTy->Record->Complete) {
    Diags.error(M->Loc, "member access into a non-struct/union type");
    M->Ty = QualType(Ctx.Types.intTy());
    return;
  }
  int Idx = RecordTy->Record->fieldIndex(M->Member);
  if (Idx < 0) {
    Diags.error(M->Loc,
                strFormat("no member named '%s'",
                          Ctx.Interner.str(M->Member).c_str()));
    M->Ty = QualType(Ctx.Types.intTy());
    return;
  }
  M->FieldIdx = Idx;
  const FieldInfo &Field = RecordTy->Record->Fields[Idx];
  M->Ty = Field.Ty.withQuals(ExtraQuals);
  M->Cat = M->IsArrow ? ValueCat::LValue : M->Base->Cat;
}
