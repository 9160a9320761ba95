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
