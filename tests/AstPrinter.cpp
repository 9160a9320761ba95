//===- tests/AstPrinter.cpp - AST dumping for tests --------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "AstPrinter.h"

#include "frontend/CompiledProgram.h"
#include "support/StringInterner.h"
#include "support/Strings.h"

using namespace cundef;

static const char *unaryOpName(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Plus:    return "+";
  case UnaryOp::Minus:   return "-";
  case UnaryOp::BitNot:  return "~";
  case UnaryOp::LogNot:  return "!";
  case UnaryOp::Deref:   return "*";
  case UnaryOp::AddrOf:  return "&";
  case UnaryOp::PreInc:  return "++pre";
  case UnaryOp::PreDec:  return "--pre";
  case UnaryOp::PostInc: return "post++";
  case UnaryOp::PostDec: return "post--";
  }
  return "?";
}

static const char *binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Mul:    return "*";
  case BinaryOp::Div:    return "/";
  case BinaryOp::Rem:    return "%";
  case BinaryOp::Add:    return "+";
  case BinaryOp::Sub:    return "-";
  case BinaryOp::Shl:    return "<<";
  case BinaryOp::Shr:    return ">>";
  case BinaryOp::Lt:     return "<";
  case BinaryOp::Gt:     return ">";
  case BinaryOp::Le:     return "<=";
  case BinaryOp::Ge:     return ">=";
  case BinaryOp::Eq:     return "==";
  case BinaryOp::Ne:     return "!=";
  case BinaryOp::BitAnd: return "&";
  case BinaryOp::BitXor: return "^";
  case BinaryOp::BitOr:  return "|";
  case BinaryOp::LogAnd: return "&&";
  case BinaryOp::LogOr:  return "||";
  case BinaryOp::Comma:  return ",";
  }
  return "?";
}

static const char *assignOpName(AssignOp Op) {
  switch (Op) {
  case AssignOp::Assign:    return "=";
  case AssignOp::MulAssign: return "*=";
  case AssignOp::DivAssign: return "/=";
  case AssignOp::RemAssign: return "%=";
  case AssignOp::AddAssign: return "+=";
  case AssignOp::SubAssign: return "-=";
  case AssignOp::ShlAssign: return "<<=";
  case AssignOp::ShrAssign: return ">>=";
  case AssignOp::AndAssign: return "&=";
  case AssignOp::XorAssign: return "^=";
  case AssignOp::OrAssign:  return "|=";
  }
  return "?";
}

static const char *castKindName(CastKind CK) {
  switch (CK) {
  case CastKind::LValueToRValue: return "lvalue-to-rvalue";
  case CastKind::ArrayDecay:     return "array-decay";
  case CastKind::FunctionDecay:  return "function-decay";
  case CastKind::IntegralCast:   return "integral-cast";
  case CastKind::IntToFloat:     return "int-to-float";
  case CastKind::FloatToInt:     return "float-to-int";
  case CastKind::FloatCast:      return "float-cast";
  case CastKind::IntToPointer:   return "int-to-pointer";
  case CastKind::PointerToInt:   return "pointer-to-int";
  case CastKind::PointerCast:    return "pointer-cast";
  case CastKind::NullToPointer:  return "null-to-pointer";
  case CastKind::ToBool:         return "to-bool";
  case CastKind::ToVoid:         return "to-void";
  }
  return "?";
}

static std::string indentStr(int Indent) {
  return std::string(static_cast<size_t>(Indent) * 2, ' ');
}

std::string AstPrinter::print(const Expr *E) const {
  std::string Out;
  printExpr(E, Out, 0);
  return Out;
}

std::string AstPrinter::print(const FunctionDecl *F) const {
  std::string Out = strFormat("(function %s", Ctx.Interner.str(F->Name).c_str());
  if (!F->Body) {
    Out += " <prototype>)\n";
    return Out;
  }
  Out += "\n";
  printStmt(F->Body, Out, 1);
  Out += ")\n";
  return Out;
}

void AstPrinter::printExpr(const Expr *E, std::string &Out,
                           int Indent) const {
  Out += indentStr(Indent);
  if (!E) {
    Out += "(null)\n";
    return;
  }
  switch (E->Kind) {
  case ExprKind::IntLit:
    Out += strFormat("(int %llu)\n",
                     (unsigned long long)cast<IntLitExpr>(E)->Value);
    return;
  case ExprKind::FloatLit:
    Out += strFormat("(float %g)\n", cast<FloatLitExpr>(E)->Value);
    return;
  case ExprKind::StringLit:
    Out += strFormat(
        "(string \"%s\")\n",
        escapeForDisplay(cast<StringLitExpr>(E)->Bytes).c_str());
    return;
  case ExprKind::DeclRef:
    Out += strFormat("(ref %s)\n",
                     Ctx.Interner.str(cast<DeclRefExpr>(E)->Name).c_str());
    return;
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    Out += strFormat("(unary %s\n", unaryOpName(U->Op));
    printExpr(U->Sub, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    Out += strFormat("(binary %s\n", binaryOpName(B->Op));
    printExpr(B->Lhs, Out, Indent + 1);
    printExpr(B->Rhs, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    Out += strFormat("(assign %s\n", assignOpName(A->Op));
    printExpr(A->Lhs, Out, Indent + 1);
    printExpr(A->Rhs, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::Cond: {
    const auto *C = cast<CondExpr>(E);
    Out += "(cond\n";
    printExpr(C->Cond, Out, Indent + 1);
    printExpr(C->Then, Out, Indent + 1);
    printExpr(C->Else, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::Cast: {
    const auto *C = cast<CastExpr>(E);
    Out += strFormat("(cast %s\n",
                     Ctx.Types.typeName(C->TargetTy, Ctx.Interner).c_str());
    printExpr(C->Sub, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::ImplicitCast: {
    const auto *C = cast<ImplicitCastExpr>(E);
    Out += strFormat("(implicit %s\n", castKindName(C->CK));
    printExpr(C->Sub, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    Out += "(call\n";
    printExpr(C->Callee, Out, Indent + 1);
    for (const Expr *A : C->Args)
      printExpr(A, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    Out += strFormat("(member %s %s\n", M->IsArrow ? "->" : ".",
                     Ctx.Interner.str(M->Member).c_str());
    printExpr(M->Base, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::Index: {
    const auto *I = cast<IndexExpr>(E);
    Out += "(index\n";
    printExpr(I->Base, Out, Indent + 1);
    printExpr(I->Index, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case ExprKind::Sizeof: {
    const auto *S = cast<SizeofExpr>(E);
    if (S->ArgExpr) {
      Out += "(sizeof-expr\n";
      printExpr(S->ArgExpr, Out, Indent + 1);
      Out += indentStr(Indent) + ")\n";
    } else {
      Out += strFormat("(sizeof-type %s)\n",
                       Ctx.Types.typeName(S->ArgTy, Ctx.Interner).c_str());
    }
    return;
  }
  case ExprKind::InitList: {
    const auto *I = cast<InitListExpr>(E);
    Out += "(init-list\n";
    for (const Expr *Sub : I->Inits)
      printExpr(Sub, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  }
}

void AstPrinter::printStmt(const Stmt *S, std::string &Out,
                           int Indent) const {
  Out += indentStr(Indent);
  if (!S) {
    Out += "(null-stmt)\n";
    return;
  }
  switch (S->Kind) {
  case StmtKind::Compound: {
    Out += "(block\n";
    for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
      printStmt(Sub, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    Out += "(decl";
    for (const VarDecl *V : D->Decls) {
      Out += strFormat(" %s:%s", Ctx.Interner.str(V->Name).c_str(),
                       Ctx.Types.typeName(V->Ty, Ctx.Interner).c_str());
    }
    bool AnyInit = false;
    for (const VarDecl *V : D->Decls)
      AnyInit |= V->Init != nullptr;
    if (!AnyInit) {
      Out += ")\n";
      return;
    }
    Out += "\n";
    for (const VarDecl *V : D->Decls)
      if (V->Init)
        printExpr(V->Init, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::Expr: {
    const auto *E = cast<ExprStmt>(S);
    if (!E->E) {
      Out += "(empty)\n";
      return;
    }
    Out += "(expr\n";
    printExpr(E->E, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    Out += "(if\n";
    printExpr(I->Cond, Out, Indent + 1);
    printStmt(I->Then, Out, Indent + 1);
    if (I->Else)
      printStmt(I->Else, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::While: {
    const auto *W = cast<WhileStmt>(S);
    Out += "(while\n";
    printExpr(W->Cond, Out, Indent + 1);
    printStmt(W->Body, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::Do: {
    const auto *D = cast<DoStmt>(S);
    Out += "(do\n";
    printStmt(D->Body, Out, Indent + 1);
    printExpr(D->Cond, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(S);
    Out += "(for\n";
    if (F->Init)
      printStmt(F->Init, Out, Indent + 1);
    else
      Out += indentStr(Indent + 1) + "(no-init)\n";
    if (F->Cond)
      printExpr(F->Cond, Out, Indent + 1);
    else
      Out += indentStr(Indent + 1) + "(no-cond)\n";
    if (F->Inc)
      printExpr(F->Inc, Out, Indent + 1);
    else
      Out += indentStr(Indent + 1) + "(no-inc)\n";
    printStmt(F->Body, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::Switch: {
    const auto *W = cast<SwitchStmt>(S);
    Out += "(switch\n";
    printExpr(W->Cond, Out, Indent + 1);
    printStmt(W->Body, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::Case: {
    const auto *C = cast<CaseStmt>(S);
    Out += strFormat("(case %lld\n", (long long)C->Value);
    printStmt(C->Sub, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::Default: {
    Out += "(default\n";
    printStmt(cast<DefaultStmt>(S)->Sub, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::Break:
    Out += "(break)\n";
    return;
  case StmtKind::Continue:
    Out += "(continue)\n";
    return;
  case StmtKind::Goto:
    Out += strFormat("(goto %s)\n",
                     Ctx.Interner.str(cast<GotoStmt>(S)->Label).c_str());
    return;
  case StmtKind::Label: {
    const auto *L = cast<LabelStmt>(S);
    Out += strFormat("(label %s\n", Ctx.Interner.str(L->Name).c_str());
    printStmt(L->Sub, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  case StmtKind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    if (!R->Value) {
      Out += "(return)\n";
      return;
    }
    Out += "(return\n";
    printExpr(R->Value, Out, Indent + 1);
    Out += indentStr(Indent) + ")\n";
    return;
  }
  }
}

std::string cundef::dumpCfg(const Cfg &G, const StringInterner &Interner) {
  std::string Out = strFormat("cfg %s: blocks=%zu entry=B%u exit=B%u\n",
                              Interner.str(G.function()->Name).c_str(),
                              G.size(), G.entry(), G.exit());
  for (BlockId Id = 0; Id < G.size(); ++Id) {
    const CfgBlock &B = G.block(Id);
    CfgSpan<BlockId> Succs = G.succs(Id);
    std::string Line = strFormat("  B%u:", Id);
    if (Id == G.exit()) {
      Out += Line + " exit\n";
      continue;
    }
    if (!G.stmts(Id).empty())
      Line += strFormat(" stmts=%zu", G.stmts(Id).size());
    if (B.isSwitch()) {
      Line += " switch ->";
      for (size_t I = 0; I < Succs.size(); ++I) {
        const CaseStmt *C = G.switchCase(Id, I);
        Line += C ? strFormat(" B%u(case %lld)", Succs[I],
                              static_cast<long long>(C->Value))
                  : strFormat(" B%u(default)", Succs[I]);
      }
    } else if (B.isConditional()) {
      Line += strFormat(" if -> B%u B%u", Succs[0], Succs[1]);
    } else if (!Succs.empty()) {
      Line += " ->";
      for (BlockId S : Succs)
        Line += strFormat(" B%u", S);
    }
    Out += Line + "\n";
  }
  return Out;
}

std::string cundef::dumpArtifact(const CompiledProgram &P) {
  std::string Out = strFormat("ok=%d\nerrors:\n%s", P.ok() ? 1 : 0,
                              P.errors().c_str());
  auto Findings = [&](const char *Title, const std::vector<UbReport> &Rs) {
    Out += Title;
    for (const UbReport &R : Rs)
      Out += strFormat("  %u %s|%s|%u:%u:%u|%d|%d|%s\n", ubCode(R.Kind),
                       R.Description.c_str(), R.Function.c_str(), R.Loc.File,
                       R.Loc.Line, R.Loc.Col, R.StaticFinding ? 1 : 0,
                       static_cast<int>(R.Verdict), R.Domain);
  };
  Findings("static:\n", P.staticUb());
  Findings("hints:\n", P.staticHints());
  if (!P.hasAst())
    return Out;
  const AstContext &Ctx = P.ast();
  AstPrinter Printer(Ctx);
  auto TypeName = [&](QualType T) { return Ctx.Types.typeName(T, Ctx.Interner); };
  for (const FunctionDecl *F : Ctx.TU.Functions) {
    Out += Printer.print(F);
    Out += strFormat("  type=%s builtin=%u quals=%u loc=%u:%u:%u params:",
                     TypeName(QualType(F->FnTy)).c_str(), F->BuiltinId,
                     F->DeclQuals, F->Loc.File, F->Loc.Line, F->Loc.Col);
    for (const VarDecl *V : F->Params)
      Out += strFormat(" %s#%u", Ctx.Interner.str(V->Name).c_str(), V->DeclId);
    Out += " decls:";
    for (const Type *T : F->AllDeclTypes)
      Out += " " + TypeName(QualType(T));
    Out += "\n";
  }
  for (const VarDecl *G : Ctx.TU.Globals)
    Out += strFormat("global %s#%u %s\n", Ctx.Interner.str(G->Name).c_str(),
                     G->DeclId, TypeName(G->Ty).c_str());
  Out += strFormat("next-decl-id=%u\n", Ctx.NextDeclId);
  return Out;
}
