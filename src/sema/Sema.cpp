//===- sema/Sema.cpp - Semantic analysis: declarations and statements ------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "sema/Sema.h"

#include "sema/ConstEval.h"
#include "support/Strings.h"

using namespace cundef;

std::string Sema::currentFunctionName() const {
  return CurFn ? Ctx.Interner.str(CurFn->Name) : "<file scope>";
}

//===----------------------------------------------------------------------===//
// Order-free operand lists (Expr::OrderFree): one bottom-up pass
//===----------------------------------------------------------------------===//

namespace {
/// What evaluating a subtree can do beyond reading memory.
struct OperandEffects {
  /// Changes state another operand can observe: memory, locsWrittenTo
  /// (a sequence point clears it), or anything a call may do.
  bool Writes = false;
  /// May create a memory object on first evaluation, which takes the
  /// next object id and address (Machine::functionObject/literalObject).
  bool Creates = false;
};
} // namespace

/// Marks Expr::OrderFree on \p E and every operator below it.
static OperandEffects classifyExpr(Expr *E) {
  OperandEffects Fx;
  if (!E)
    return Fx;
  unsigned Creators = 0;
  auto Operand = [&](Expr *Sub) {
    OperandEffects S = classifyExpr(Sub);
    Fx.Writes |= S.Writes;
    Fx.Creates |= S.Creates;
    Creators += S.Creates;
  };
  bool IsList = false; // two or more operands in an unspecified order
  bool Writes = false; // E's own effect, beyond its operands'
  switch (E->Kind) {
  case ExprKind::IntLit:
  case ExprKind::FloatLit:
  case ExprKind::Sizeof: // its operand is not evaluated
    break;
  case ExprKind::StringLit:
    Fx.Creates = true;
    break;
  case ExprKind::DeclRef:
    Fx.Creates = static_cast<DeclRefExpr *>(E)->Fn != nullptr;
    break;
  case ExprKind::Unary: {
    auto *U = static_cast<UnaryExpr *>(E);
    Operand(U->Sub);
    Writes = U->Op == UnaryOp::PreInc || U->Op == UnaryOp::PreDec ||
             U->Op == UnaryOp::PostInc || U->Op == UnaryOp::PostDec;
    break;
  }
  case ExprKind::Binary: {
    auto *B = static_cast<BinaryExpr *>(E);
    Operand(B->Lhs);
    Operand(B->Rhs);
    // &&, || and the comma operator are sequence points.
    Writes = B->Op == BinaryOp::LogAnd || B->Op == BinaryOp::LogOr ||
             B->Op == BinaryOp::Comma;
    IsList = !Writes;
    break;
  }
  case ExprKind::Assign:
    Operand(static_cast<AssignExpr *>(E)->Lhs);
    Operand(static_cast<AssignExpr *>(E)->Rhs);
    IsList = Writes = true;
    break;
  case ExprKind::Cond: // a sequence point
    Operand(static_cast<CondExpr *>(E)->Cond);
    Operand(static_cast<CondExpr *>(E)->Then);
    Operand(static_cast<CondExpr *>(E)->Else);
    Writes = true;
    break;
  case ExprKind::Cast:
    Operand(static_cast<CastExpr *>(E)->Sub);
    break;
  case ExprKind::ImplicitCast:
    Operand(static_cast<ImplicitCastExpr *>(E)->Sub);
    break;
  case ExprKind::Call:
    Operand(static_cast<CallExpr *>(E)->Callee);
    for (Expr *Arg : static_cast<CallExpr *>(E)->Args)
      Operand(Arg);
    IsList = !static_cast<CallExpr *>(E)->Args.empty();
    Writes = true;
    break;
  case ExprKind::Member:
    Operand(static_cast<MemberExpr *>(E)->Base);
    break;
  case ExprKind::Index:
    Operand(static_cast<IndexExpr *>(E)->Base);
    Operand(static_cast<IndexExpr *>(E)->Index);
    IsList = true;
    break;
  case ExprKind::InitList:
    for (Expr *Init : static_cast<InitListExpr *>(E)->Inits)
      Operand(Init);
    Writes = true;
    break;
  }
  // Two creators would take ids and addresses in an order-dependent way.
  E->OrderFree = IsList && !Fx.Writes && Creators <= 1;
  // Accessing a volatile object is a side effect (C11 5.1.2.3p2).
  Fx.Writes |= Writes || (E->isLValue() && E->Ty.isVolatile());
  return Fx;
}

static void classifyStmt(Stmt *S) {
  if (!S)
    return;
  switch (S->Kind) {
  case StmtKind::Compound:
    for (Stmt *Sub : static_cast<CompoundStmt *>(S)->Body)
      classifyStmt(Sub);
    return;
  case StmtKind::Decl:
    for (VarDecl *V : static_cast<DeclStmt *>(S)->Decls)
      classifyExpr(V->Init);
    return;
  case StmtKind::Expr:
    classifyExpr(static_cast<ExprStmt *>(S)->E);
    return;
  case StmtKind::If:
    classifyExpr(static_cast<IfStmt *>(S)->Cond);
    classifyStmt(static_cast<IfStmt *>(S)->Then);
    classifyStmt(static_cast<IfStmt *>(S)->Else);
    return;
  case StmtKind::While:
    classifyExpr(static_cast<WhileStmt *>(S)->Cond);
    classifyStmt(static_cast<WhileStmt *>(S)->Body);
    return;
  case StmtKind::Do:
    classifyExpr(static_cast<DoStmt *>(S)->Cond);
    classifyStmt(static_cast<DoStmt *>(S)->Body);
    return;
  case StmtKind::For:
    classifyStmt(static_cast<ForStmt *>(S)->Init);
    classifyExpr(static_cast<ForStmt *>(S)->Cond);
    classifyExpr(static_cast<ForStmt *>(S)->Inc);
    classifyStmt(static_cast<ForStmt *>(S)->Body);
    return;
  case StmtKind::Switch:
    classifyExpr(static_cast<SwitchStmt *>(S)->Cond);
    classifyStmt(static_cast<SwitchStmt *>(S)->Body);
    return;
  case StmtKind::Case: // the label's value is a constant, never run
    classifyStmt(static_cast<CaseStmt *>(S)->Sub);
    return;
  case StmtKind::Default:
    classifyStmt(static_cast<DefaultStmt *>(S)->Sub);
    return;
  case StmtKind::Label:
    classifyStmt(static_cast<LabelStmt *>(S)->Sub);
    return;
  case StmtKind::Return:
    classifyExpr(static_cast<ReturnStmt *>(S)->Value);
    return;
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Goto:
    return;
  }
}

bool Sema::run() {
  for (VarDecl *Global : Ctx.TU.Globals) {
    CurFn = nullptr;
    checkVarDecl(Global);
  }
  for (FunctionDecl *F : Ctx.TU.Functions) {
    // A qualified function type (possible only through a typedef) is
    // undefined, C11 6.7.3p9.
    if (F->DeclQuals != QualNone)
      Ub.report(UbKind::FunctionTypeQualified, Ctx.Interner.str(F->Name),
                F->Loc, /*StaticFinding=*/true);
    if (F->Body)
      checkFunction(F);
  }
  for (VarDecl *Global : Ctx.TU.Globals)
    classifyExpr(Global->Init);
  for (FunctionDecl *F : Ctx.TU.Functions)
    classifyStmt(F->Body);
  return !Diags.hasErrors();
}

void Sema::checkDeclaredType(QualType Ty, SourceLoc Loc) {
  // A loop over pointer and array chains, so 100 000 '*' cost no stack;
  // function types recurse, but the parser bounds how deep they nest.
  for (const Type *T = Ty.Ty; T; T = T->Pointee.Ty) {
    switch (T->Kind) {
    case TypeKind::Array:
      // Arrays must have length at least 1 (C11 6.7.6.2p1&5); the paper
      // (section 3.2) describes catching exactly this in kcc. A negative
      // written size appears here as a huge uint64.
      if (T->ArraySizeKnown &&
          (T->ArraySize == 0 || T->ArraySize > (1ull << 48)))
        Ub.report(UbKind::ArraySizeNotPositive, currentFunctionName(), Loc,
                  /*StaticFinding=*/true);
      continue;
    case TypeKind::Pointer:
      continue;
    case TypeKind::Function:
      checkDeclaredType(T->ReturnType, Loc);
      for (const QualType &Param : T->ParamTypes)
        checkDeclaredType(Param, Loc);
      return;
    default:
      return;
    }
  }
}

void Sema::checkVarDecl(VarDecl *V) {
  // An array of unknown size is completed by its initializer
  // (C11 6.7.9p22): int a[] = {1, 2}; char s[] = "hi";
  if (V->Ty.Ty && V->Ty.Ty->isArray() && !V->Ty.Ty->ArraySizeKnown &&
      V->Init) {
    uint64_t Extent = 0;
    if (const auto *List = dynCast<InitListExpr>(V->Init))
      Extent = List->Inits.size();
    else if (const auto *Str = dynCast<StringLitExpr>(V->Init))
      Extent = Str->Bytes.size() + 1;
    if (Extent)
      V->Ty = QualType(
          Ctx.Types.getArray(V->Ty.Ty->Pointee, Extent, /*SizeKnown=*/true),
          V->Ty.Quals);
  }
  checkDeclaredType(V->Ty, V->Loc);
  // A function type with qualifiers is undefined (C11 6.7.3p9); it can
  // only arise through a typedef in our grammar.
  if (V->Ty.Ty->isFunction() && V->Ty.Quals != QualNone)
    Ub.report(UbKind::FunctionTypeQualified, currentFunctionName(), V->Loc,
              /*StaticFinding=*/true);
  if (!V->Ty.Ty->isCompleteObjectType() && !V->Ty.Ty->isFunction()) {
    if (V->Storage != StorageClass::Extern) {
      Ub.report(UbKind::IncompleteTypeObject, currentFunctionName(), V->Loc,
                /*StaticFinding=*/true);
      Diags.error(V->Loc,
                  strFormat("variable '%s' has incomplete type",
                            Ctx.Interner.str(V->Name).c_str()));
      return;
    }
  }
  if (V->Init) {
    bool StaticStorage = V->IsGlobal || V->Storage == StorageClass::Static;
    checkInit(V->Ty, V->Init, StaticStorage, V->Loc);
  }
}

void Sema::checkInit(QualType Ty, Expr *&Init, bool StaticStorage,
                     SourceLoc Loc) {
  const Type *T = Ty.Ty;
  if (auto *List = const_cast<InitListExpr *>(dynCast<InitListExpr>(Init))) {
    List->Ty = Ty.unqualified();
    if (T->isArray()) {
      uint64_t Extent = T->ArraySizeKnown ? T->ArraySize : List->Inits.size();
      if (List->Inits.size() > Extent)
        Diags.error(Loc, "too many initializers for array");
      for (Expr *&Sub : List->Inits)
        checkInit(T->Pointee, Sub, StaticStorage, Loc);
      return;
    }
    if (T->isRecord()) {
      const RecordInfo *Record = T->Record;
      size_t Limit = Record->IsUnion ? 1 : Record->Fields.size();
      if (List->Inits.size() > Limit)
        Diags.error(Loc, "too many initializers for aggregate");
      for (size_t I = 0; I < List->Inits.size() && I < Limit; ++I)
        checkInit(Record->Fields[I].Ty, List->Inits[I], StaticStorage, Loc);
      return;
    }
    // Scalar initialized with braces: allowed with exactly one element.
    if (List->Inits.size() != 1) {
      Diags.error(Loc, "invalid brace-enclosed initializer for scalar");
      return;
    }
    checkInit(Ty, List->Inits[0], StaticStorage, Loc);
    return;
  }
  // Character arrays may be initialized from a string literal.
  if (T->isArray() && isa<StringLitExpr>(Init)) {
    auto *Str = const_cast<StringLitExpr *>(cast<StringLitExpr>(Init));
    typeExpr(Init);
    if (T->ArraySizeKnown && Str->Bytes.size() + 1 > T->ArraySize &&
        Str->Bytes.size() > T->ArraySize)
      Diags.error(Loc, "string literal too long for array");
    return;
  }
  if (T->isArray() || T->isRecord()) {
    if (T->isRecord()) {
      // struct s x = y; -- plain copy initialization.
      typeExpr(Init);
      rvalue(Init);
      if (!Ctx.Types.compatible(Init->Ty.unqualified(), Ty.unqualified()))
        Diags.error(Loc, "incompatible types in aggregate initialization");
      return;
    }
    Diags.error(Loc, "array initializer must be a brace list or string");
    return;
  }
  typeExpr(Init);
  convertTo(Init, Ty.unqualified(), "initialization");
  if (StaticStorage) {
    // Static-duration objects need constant initializers (C11 6.7.9p4).
    // Address constants (string literals, &global, arrays decaying)
    // are permitted; reject only obviously non-constant arithmetic.
    if (T->isArithmetic() && !constEvalInt(Init, Ctx.Types) &&
        !isa<FloatLitExpr>(Init)) {
      bool FloatConst = false;
      if (const auto *Imp = dynCast<ImplicitCastExpr>(Init))
        FloatConst = isa<FloatLitExpr>(Imp->Sub) || isa<IntLitExpr>(Imp->Sub);
      if (!FloatConst)
        Diags.error(Loc, "initializer element is not a constant expression");
    }
  }
}

void Sema::checkFunction(FunctionDecl *F) {
  CurFn = F;
  Labels.clear();
  PendingGotos.clear();
  SwitchStack.clear();
  LoopDepth = 0;
  BreakableDepth = 0;

  checkDeclaredType(QualType(F->FnTy), F->Loc);

  // main's accepted signatures (C11 5.1.2.2.1p1).
  if (Ctx.Interner.str(F->Name) == "main") {
    const Type *FnTy = F->FnTy;
    bool ReturnsInt = FnTy->ReturnType.Ty == Ctx.Types.intTy();
    bool ZeroParams = FnTy->ParamTypes.empty();
    bool TwoParams =
        FnTy->ParamTypes.size() == 2 &&
        FnTy->ParamTypes[0].Ty == Ctx.Types.intTy() &&
        FnTy->ParamTypes[1].Ty->isPointer();
    if (!ReturnsInt || !(ZeroParams || TwoParams))
      Ub.report(UbKind::MainWrongSignature, "main", F->Loc,
                /*StaticFinding=*/true);
  }

  for (VarDecl *Param : F->Params)
    checkDeclaredType(Param->Ty, Param->Loc);

  checkStmt(F->Body);

  for (GotoStmt *Goto : PendingGotos) {
    auto It = Labels.find(Goto->Label);
    if (It == Labels.end()) {
      Diags.error(Goto->Loc,
                  strFormat("use of undeclared label '%s'",
                            Ctx.Interner.str(Goto->Label).c_str()));
      continue;
    }
    Goto->Target = It->second;
  }
  CurFn = nullptr;
}

void Sema::checkStmt(Stmt *S) {
  if (!S)
    return;
  switch (S->Kind) {
  case StmtKind::Compound:
    for (Stmt *Sub : static_cast<CompoundStmt *>(S)->Body)
      checkStmt(Sub);
    return;
  case StmtKind::Decl:
    for (VarDecl *V : static_cast<DeclStmt *>(S)->Decls)
      checkVarDecl(V);
    return;
  case StmtKind::Expr: {
    auto *E = static_cast<ExprStmt *>(S);
    if (E->E)
      typeExpr(E->E);
    // The value of an expression statement is discarded; no lvalue
    // conversion is performed (so `x;` does not read x).
    return;
  }
  case StmtKind::If: {
    auto *I = static_cast<IfStmt *>(S);
    typeExpr(I->Cond);
    rvalue(I->Cond);
    if (!I->Cond->Ty.isNull() && !I->Cond->Ty.Ty->isScalar())
      Diags.error(I->Cond->Loc, "if condition must have scalar type");
    checkStmt(I->Then);
    checkStmt(I->Else);
    return;
  }
  case StmtKind::While: {
    auto *W = static_cast<WhileStmt *>(S);
    typeExpr(W->Cond);
    rvalue(W->Cond);
    ++LoopDepth;
    ++BreakableDepth;
    checkStmt(W->Body);
    --LoopDepth;
    --BreakableDepth;
    return;
  }
  case StmtKind::Do: {
    auto *D = static_cast<DoStmt *>(S);
    ++LoopDepth;
    ++BreakableDepth;
    checkStmt(D->Body);
    --LoopDepth;
    --BreakableDepth;
    typeExpr(D->Cond);
    rvalue(D->Cond);
    return;
  }
  case StmtKind::For: {
    auto *F = static_cast<ForStmt *>(S);
    checkStmt(F->Init);
    if (F->Cond) {
      typeExpr(F->Cond);
      rvalue(F->Cond);
    }
    if (F->Inc)
      typeExpr(F->Inc);
    ++LoopDepth;
    ++BreakableDepth;
    checkStmt(F->Body);
    --LoopDepth;
    --BreakableDepth;
    return;
  }
  case StmtKind::Switch: {
    auto *W = static_cast<SwitchStmt *>(S);
    typeExpr(W->Cond);
    rvalue(W->Cond);
    if (!W->Cond->Ty.isNull() && !W->Cond->Ty.Ty->isIntegral())
      Diags.error(W->Cond->Loc, "switch condition must have integer type");
    SwitchStack.push_back(W);
    ++BreakableDepth;
    checkStmt(W->Body);
    --BreakableDepth;
    SwitchStack.pop_back();
    // Duplicate case values are a constraint violation (C11 6.8.4.2p3).
    for (size_t I = 0; I < W->Cases.size(); ++I)
      for (size_t J = I + 1; J < W->Cases.size(); ++J)
        if (W->Cases[I]->Value == W->Cases[J]->Value)
          Diags.error(W->Cases[J]->Loc, "duplicate case value");
    return;
  }
  case StmtKind::Case: {
    auto *C = static_cast<CaseStmt *>(S);
    typeExpr(C->ValueExpr);
    auto Value = constEvalInt(C->ValueExpr, Ctx.Types);
    if (!Value)
      Diags.error(C->Loc, "case label is not an integer constant");
    else
      C->Value = *Value;
    if (SwitchStack.empty())
      Diags.error(C->Loc, "case label outside of switch");
    else
      SwitchStack.back()->Cases.push_back(C);
    checkStmt(C->Sub);
    return;
  }
  case StmtKind::Default: {
    auto *D = static_cast<DefaultStmt *>(S);
    if (SwitchStack.empty())
      Diags.error(D->Loc, "default label outside of switch");
    else if (SwitchStack.back()->Default)
      Diags.error(D->Loc, "multiple default labels in one switch");
    else
      SwitchStack.back()->Default = D;
    checkStmt(D->Sub);
    return;
  }
  case StmtKind::Break:
    if (BreakableDepth == 0)
      Diags.error(S->Loc, "break statement outside of loop or switch");
    return;
  case StmtKind::Continue:
    if (LoopDepth == 0)
      Diags.error(S->Loc, "continue statement outside of loop");
    return;
  case StmtKind::Goto:
    PendingGotos.push_back(static_cast<GotoStmt *>(S));
    return;
  case StmtKind::Label: {
    auto *L = static_cast<LabelStmt *>(S);
    if (Labels.count(L->Name))
      Diags.error(L->Loc,
                  strFormat("redefinition of label '%s'",
                            Ctx.Interner.str(L->Name).c_str()));
    Labels[L->Name] = L;
    checkStmt(L->Sub);
    return;
  }
  case StmtKind::Return: {
    auto *R = static_cast<ReturnStmt *>(S);
    QualType RetTy = CurFn ? CurFn->FnTy->ReturnType : QualType();
    if (R->Value) {
      typeExpr(R->Value);
      if (!RetTy.isNull() && RetTy.Ty->isVoid()) {
        // return with a value in a void function (C11 6.8.6.4p1).
        Ub.report(UbKind::ReturnVoidValue, currentFunctionName(), R->Loc,
                  /*StaticFinding=*/true);
        Diags.warning(R->Loc, "return with a value in a void function");
        rvalue(R->Value);
        return;
      }
      if (!RetTy.isNull())
        convertTo(R->Value, RetTy.unqualified(), "return");
      return;
    }
    // Plain `return;` in a non-void function is only undefined if the
    // caller uses the value -- checked dynamically (UbKind 24).
    return;
  }
  }
}
