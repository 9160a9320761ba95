//===- static/Domains.cpp - Flow-sensitive abstract domains ---------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "static/Domains.h"

#include "sema/ConstEval.h"
#include "static/Cfg.h"
#include "support/StringInterner.h"
#include "types/Type.h"

#include <algorithm>
#include <tuple>

using namespace cundef;

//===----------------------------------------------------------------------===//
// Shared pattern helpers
//===----------------------------------------------------------------------===//

namespace {

/// The variable a bare DeclRef designates, or null.
const VarDecl *varOf(const Expr *E) {
  const auto *DR = dynCast<DeclRefExpr>(E);
  return DR ? DR->Var : nullptr;
}

/// The kind and operand of an implicit or explicit cast.
std::pair<CastKind, const Expr *> castParts(const Expr *E) {
  if (const auto *IC = dynCast<ImplicitCastExpr>(E))
    return {IC->CK, IC->Sub};
  return {cast<CastExpr>(E)->CK, cast<CastExpr>(E)->Sub};
}

/// The object variable at the bottom of an lvalue designator, without
/// crossing a dereference (-> or *): the base of `v`, `v.f`, `v[i]`,
/// `v.f[i].g`, ... Null when the designator roots in a dereference.
const VarDecl *designatorBase(const Expr *E) {
  while (true) {
    if (const auto *DR = dynCast<DeclRefExpr>(E))
      return DR->Var;
    if (const auto *M = dynCast<MemberExpr>(E)) {
      if (M->IsArrow)
        return nullptr;
      E = M->Base;
      continue;
    }
    if (const auto *IX = dynCast<IndexExpr>(E)) {
      E = IX->Base;
      continue;
    }
    if (!isa<ImplicitCastExpr>(E) && !isa<CastExpr>(E))
      return nullptr;
    E = castParts(E).second;
  }
}

bool isPointer(const Expr *E) { return E->Ty.Ty && E->Ty.Ty->isPointer(); }

/// The expression a non-declaration block statement evaluates: an
/// expression statement's, a return's value, or a ForStmt's increment
/// (it stands for that in a CFG block).
const Expr *stmtExpr(const Stmt *S) {
  if (const auto *E = dynCast<ExprStmt>(S))
    return E->E;
  if (const auto *R = dynCast<ReturnStmt>(S))
    return R->Value;
  if (const auto *F = dynCast<ForStmt>(S))
    return F->Inc;
  return nullptr;
}

/// Is \p V an object on the current frame (auto local or parameter)?
bool isFrameLocal(const VarDecl *V) {
  return V && !V->IsGlobal && V->Storage == StorageClass::None;
}

/// The interval type range of an integer type, or nullopt when it does
/// not fit int64_t.
std::optional<Interval> integerTypeRange(const Type *Ty,
                                         const TypeContext &Types) {
  if (!Ty || !Ty->isIntegral())
    return std::nullopt;
  if (Ty->isBool())
    return Interval{0, 1};
  unsigned W = Types.bitWidthOf(Ty);
  if (W == 0 || W > 64)
    return std::nullopt;
  if (Ty->isUnsignedInteger(Types.config())) {
    if (W >= 64)
      return std::nullopt; // uint64 max not representable in int64
    return Interval{0, (int64_t(1) << W) - 1};
  }
  int64_t Max = W == 64 ? INT64_MAX : (int64_t(1) << (W - 1)) - 1;
  return Interval{-Max - 1, Max};
}

} // namespace

namespace cundef {

/// The setup walk of FlowContext::reset, over the expressions of the
/// function's CFG: notes every frame-local variable the function
/// declares or names, and every variable whose address escapes:
/// explicit `&v` (through any member/index designator), or an array
/// decaying to a pointer *value* (passed, assigned, arithmetic) rather
/// than being indexed.
class SetupWalk {
public:
  explicit SetupWalk(FlowContext &FC) : FC(FC) {}

  void walk(const Cfg &G) {
    for (BlockId B = 0; B < G.size(); ++B) {
      for (const Stmt *S : G.stmts(B)) {
        if (const auto *D = dynCast<DeclStmt>(S))
          for (const VarDecl *V : D->Decls) {
            note(V);
            walkExpr(V->Init, false);
          }
        walkExpr(stmtExpr(S), false);
      }
      walkExpr(G.block(B).Cond, false);
    }
  }

private:
  FlowContext &FC;

  void note(const VarDecl *V) {
    if (isFrameLocal(V))
      FC.Locals.push_back(V);
  }

  void mark(const Expr *Designator) {
    if (const VarDecl *V = designatorBase(Designator))
      FC.Escaped.push_back(V);
  }

  /// Returns constEvalInt(E). An operator folds only when its operands
  /// do (constEvalInt's own rule), so each node is folded at most once;
  /// folded operators are recorded for FlowContext::constInt.
  /// \p IndexBase: this expression is the base operand of a subscript,
  /// where array-to-pointer decay is just an access, not an escape.
  std::optional<int64_t> walkExpr(const Expr *E, bool IndexBase) {
    if (!E)
      return std::nullopt;
    bool Fold = false;
    switch (E->Kind) {
    case ExprKind::IntLit:
    case ExprKind::Sizeof: // unevaluated operand
      return constEvalInt(E, FC.types());
    case ExprKind::DeclRef:
      note(cast<DeclRefExpr>(E)->Var);
      return std::nullopt;
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      if (U->Op == UnaryOp::AddrOf)
        mark(U->Sub);
      Fold = walkExpr(U->Sub, false).has_value();
      break;
    }
    case ExprKind::ImplicitCast: {
      const auto *IC = cast<ImplicitCastExpr>(E);
      if (IC->CK == CastKind::ArrayDecay && !IndexBase)
        mark(IC->Sub);
      Fold = walkExpr(IC->Sub, false).has_value();
      break;
    }
    case ExprKind::Cast:
      Fold = walkExpr(cast<CastExpr>(E)->Sub, false).has_value();
      break;
    case ExprKind::Index: {
      const auto *IX = cast<IndexExpr>(E);
      walkExpr(IX->Base, true);
      walkExpr(IX->Index, false);
      return std::nullopt;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      bool L = walkExpr(B->Lhs, false).has_value();
      Fold = walkExpr(B->Rhs, false).has_value() && L;
      break;
    }
    case ExprKind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      walkExpr(A->Lhs, false);
      walkExpr(A->Rhs, false);
      return std::nullopt;
    }
    case ExprKind::Cond: {
      const auto *C = cast<CondExpr>(E);
      Fold = walkExpr(C->Cond, false).has_value();
      walkExpr(C->Then, false);
      walkExpr(C->Else, false);
      break;
    }
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(E);
      walkExpr(C->Callee, false);
      for (const Expr *Arg : C->Args)
        walkExpr(Arg, false);
      return std::nullopt;
    }
    case ExprKind::Member:
      walkExpr(cast<MemberExpr>(E)->Base, false);
      return std::nullopt;
    case ExprKind::InitList:
      for (const Expr *I : cast<InitListExpr>(E)->Inits)
        walkExpr(I, false);
      return std::nullopt;
    default:
      return std::nullopt; // float and string literals
    }
    if (!Fold)
      return std::nullopt;
    std::optional<int64_t> V = constEvalInt(E, FC.types());
    if (V)
      FC.Consts.emplace_back(E, *V);
    return V;
  }
};

} // namespace cundef

//===----------------------------------------------------------------------===//
// FlowContext
//===----------------------------------------------------------------------===//

const VarSlots FlowContext::NoSlots;

void FlowContext::reset(AstContext &Unit, const Cfg &G) {
  Ctx = &Unit;
  Fn = G.function();
  RangeTy = nullptr;
  RangeOfTy.reset();
  Reporting = false;
  CondDepth = 0;
  Findings.clear();
  Consts.clear();
  Locals.clear();
  Escaped.clear();
  SetupWalk(*this).walk(G);
  std::sort(Consts.begin(), Consts.end());

  // One dense table over the locals' declaration ids, which the parser
  // hands out consecutively within a function.
  Slots.clear();
  NumNull = NumInit = NumItv = 0;
  MinDeclId = 0;
  if (Locals.empty())
    return;
  uint32_t Lo = UINT32_MAX, Hi = 0;
  for (const VarDecl *V : Locals) {
    Lo = std::min(Lo, V->DeclId);
    Hi = std::max(Hi, V->DeclId);
  }
  MinDeclId = Lo;
  Slots.resize(size_t(Hi - Lo) + 1);
  std::vector<uint8_t> &Seen = SlotState; // 0 new, 1 escaped, 2 assigned
  Seen.assign(Slots.size(), 0);
  for (const VarDecl *V : Escaped)
    if (size_t K = V->DeclId - Lo; K < Seen.size())
      Seen[K] = 1;
  for (const VarDecl *V : Locals)
    if (size_t K = V->DeclId - Lo; Seen[K] == 0) {
      Seen[K] = 2;
      assignSlots(V, Slots[K]);
    }
}

/// Gives \p V (a frame-local whose address never escapes) a slot in
/// every domain that tracks it.
void FlowContext::assignSlots(const VarDecl *V, VarSlots &S) {
  const Type *Ty = V->Ty.Ty;
  if (!Ty)
    return;
  if (Ty->isPointer())
    S.Null = static_cast<int32_t>(NumNull++);
  if (auto R = typeRange(Ty)) {
    S.Itv = static_cast<int32_t>(NumItv++);
    S.Range = *R;
  }
  if (V->IsParam)
    return; // parameters arrive initialized
  if (Ty->isScalar() || Ty->isArray()) {
    S.InitCount = 1;
  } else if (Ty->isRecord() && Ty->Record && Ty->Record->Complete &&
             Ty->Record->Fields.size() < 0xFFFE) {
    S.InitCount = static_cast<uint32_t>(Ty->Record->Fields.size());
    S.InitPerField = true;
  } else {
    return;
  }
  S.Init = static_cast<int32_t>(NumInit);
  NumInit += S.InitCount;
}

std::optional<int64_t> FlowContext::constInt(const Expr *E) {
  if (isa<IntLitExpr>(E) || isa<SizeofExpr>(E))
    return constEvalInt(E, Ctx->Types);
  // Other constants are operators, all folded by the setup walk.
  auto It = std::lower_bound(Consts.begin(), Consts.end(),
                             std::make_pair(E, INT64_MIN));
  if (It != Consts.end() && It->first == E)
    return It->second;
  return std::nullopt;
}

std::optional<Interval> FlowContext::typeRange(const Type *Ty) {
  if (Ty != RangeTy) {
    RangeTy = Ty;
    RangeOfTy = integerTypeRange(Ty, Ctx->Types);
  }
  return RangeOfTy;
}

void FlowContext::must(UbKind Kind, SourceLoc Loc, const char *Domain) {
  // Inside a conditionally evaluated subexpression (`c && e`, `c ? a
  // : b` in value position) nothing is certain: demote to a hint.
  if (CondDepth > 0) {
    may(Kind, Loc, Domain);
    return;
  }
  emit(Kind, Loc, Domain, FindingVerdict::Must);
}

void FlowContext::may(UbKind Kind, SourceLoc Loc, const char *Domain) {
  emit(Kind, Loc, Domain, FindingVerdict::May);
}

void FlowContext::emit(UbKind Kind, SourceLoc Loc, const char *Domain,
                       FindingVerdict Verdict) {
  if (Reporting)
    Findings.push_back({Loc, Domain, Kind, Verdict});
}

void FlowContext::flush(UbSink &Must, UbSink &Hints) {
  // Stable, so the first emission of a key survives the dedup; a code
  // belongs to one domain, so equal keys never differ in domain.
  auto Key = [](const Finding &F) {
    return std::make_tuple(F.Verdict, F.Loc.Line, F.Loc.Col, F.Kind);
  };
  std::stable_sort(
      Findings.begin(), Findings.end(),
      [&](const Finding &A, const Finding &B) { return Key(A) < Key(B); });
  for (size_t I = 0; I < Findings.size(); ++I) {
    const Finding &F = Findings[I];
    if (I > 0 && Key(Findings[I - 1]) == Key(F))
      continue;
    UbReport R(F.Kind, ubShortDescription(F.Kind), Ctx->Interner.str(Fn->Name),
               F.Loc, /*StaticFinding=*/true);
    R.Verdict = F.Verdict;
    R.Domain = F.Domain;
    (F.Verdict == FindingVerdict::Must ? Must : Hints).report(std::move(R));
  }
}

//===----------------------------------------------------------------------===//
// NullnessDomain
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *NullnessName = "nullness";

PtrVal joinPtrVal(PtrVal A, PtrVal B) {
  PtrVal R;
  if (A.Kind == B.Kind)
    R.Kind = A.Kind;
  else if (A.Kind == PtrVal::Null || B.Kind == PtrVal::Null ||
           A.Kind == PtrVal::MaybeNull || B.Kind == PtrVal::MaybeNull)
    R.Kind = PtrVal::MaybeNull;
  else
    R.Kind = PtrVal::Unknown; // NonNull vs Unknown
  R.Local = A.Local && B.Local;
  R.ConstTarget = A.ConstTarget && B.ConstTarget;
  return R;
}

/// Functions modeled as returning possibly-null pointers; an unchecked
/// dereference of their result becomes a may-hint.
bool returnsMaybeNull(const std::string &Name) {
  static const char *const Names[] = {"malloc", "calloc",  "realloc",
                                      "getenv", "fopen",   "strchr",
                                      "strrchr", "strstr", "memchr"};
  if (Name.size() < 5 || Name.size() > 7)
    return false;
  for (const char *N : Names)
    if (Name == N)
      return true;
  return false;
}

} // namespace

/// True when \p E is a constant null pointer expression — the purely
/// syntactic checker already owns those sites (codes 47/48), so the
/// flow domains stay silent on them.
bool NullnessDomain::isConstNull(const Expr *E) {
  while (true) {
    if (const auto *IC = dynCast<ImplicitCastExpr>(E)) {
      if (IC->CK == CastKind::LValueToRValue)
        return false;
      E = IC->Sub;
    } else if (const auto *C = dynCast<CastExpr>(E)) {
      E = C->Sub;
    } else {
      break;
    }
  }
  auto V = FC.constInt(E);
  return V && *V == 0;
}

void NullnessDomain::boundary(State St) { std::fill_n(St, width(), PtrVal{}); }

bool NullnessDomain::join(State Into, const Cell *In) {
  bool Changed = false;
  for (size_t I = 0, W = width(); I < W; ++I) {
    PtrVal J = joinPtrVal(Into[I], In[I]);
    if (!(J == Into[I])) {
      Into[I] = J;
      Changed = true;
    }
  }
  return Changed;
}

void NullnessDomain::transferStmt(const Stmt *S, State St) {
  if (const auto *D = dynCast<DeclStmt>(S)) {
    for (const VarDecl *V : D->Decls) {
      if (!V->Init)
        continue;
      PtrVal Init = evalPtr(V->Init, St);
      if (int32_t Slot = slot(V); Slot >= 0)
        St[Slot] = Init;
    }
    return;
  }
  const Expr *E = stmtExpr(S);
  PtrVal V = evalPtr(E, St);
  if (isa<ReturnStmt>(S) && E && isPointer(E) && V.Kind == PtrVal::NonNull &&
      V.Local)
    FC.must(UbKind::StackAddressEscape, E->Loc, NullnessName);
}


void NullnessDomain::checkDeref(const Expr *PtrOperand, State St,
                                bool IsWrite) {
  PtrVal V = evalPtr(PtrOperand, St);
  if (!FC.reporting())
    return;
  SourceLoc Loc = PtrOperand->Loc;
  if (V.Kind == PtrVal::Null) {
    if (!isConstNull(PtrOperand))
      FC.must(UbKind::DerefNullPointer, Loc, NullnessName);
  } else if (V.Kind == PtrVal::MaybeNull) {
    FC.may(UbKind::DerefNullPointer, Loc, NullnessName);
  }
  if (IsWrite && V.ConstTarget &&
      (V.Kind == PtrVal::NonNull || V.Kind == PtrVal::MaybeNull))
    FC.must(UbKind::ConstWriteStatic, Loc, NullnessName);
}

/// Write-side checks for a store destination that is not a tracked
/// variable: dereferencing stores check the pointer they go through.
void NullnessDomain::storeTo(const Expr *Lhs, State St) {
  switch (Lhs->Kind) {
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(Lhs);
    if (U->Op == UnaryOp::Deref) {
      checkDeref(U->Sub, St, /*IsWrite=*/true);
      return;
    }
    walk(U->Sub, St);
    return;
  }
  case ExprKind::Member: {
    const auto *M = cast<MemberExpr>(Lhs);
    if (M->IsArrow)
      checkDeref(M->Base, St, /*IsWrite=*/true);
    else
      storeTo(M->Base, St);
    return;
  }
  case ExprKind::Index: {
    const auto *IX = cast<IndexExpr>(Lhs);
    walk(IX->Index, St);
    if (const auto *IC = dynCast<ImplicitCastExpr>(IX->Base);
        IC && IC->CK == CastKind::ArrayDecay)
      storeTo(IC->Sub, St); // array element store — no pointer deref
    else
      checkDeref(IX->Base, St, /*IsWrite=*/true);
    return;
  }
  case ExprKind::ImplicitCast:
    storeTo(cast<ImplicitCastExpr>(Lhs)->Sub, St);
    return;
  case ExprKind::Cast:
    storeTo(cast<CastExpr>(Lhs)->Sub, St);
    return;
  case ExprKind::DeclRef:
    return; // plain variable store, no dereference involved
  default:
    walk(Lhs, St);
    return;
  }
}

PtrVal NullnessDomain::evalPtr(const Expr *E, State St) {
  if (!E)
    return {};
  switch (E->Kind) {
  case ExprKind::IntLit:
    return cast<IntLitExpr>(E)->Value == 0 ? PtrVal{PtrVal::Null} : PtrVal{};
  case ExprKind::StringLit:
    return PtrVal{PtrVal::NonNull};
  case ExprKind::DeclRef: {
    // A function designator (decays to a non-null function pointer);
    // bare object designators carry no pointer *value* themselves.
    const auto *DR = cast<DeclRefExpr>(E);
    return DR->Fn ? PtrVal{PtrVal::NonNull} : PtrVal{};
  }
  case ExprKind::ImplicitCast:
  case ExprKind::Cast: {
    auto [CK, Sub] = castParts(E);
    switch (CK) {
    case CastKind::NullToPointer:
      return PtrVal{PtrVal::Null};
    case CastKind::FunctionDecay:
      return PtrVal{PtrVal::NonNull};
    case CastKind::ArrayDecay: {
      PtrVal R{PtrVal::NonNull};
      if (const VarDecl *V = designatorBase(Sub))
        R.Local = isFrameLocal(V);
      // Walk subscript expressions inside the designator for their
      // side effects / checks.
      walk(Sub, St);
      const Type *ArrTy = Sub->Ty.Ty;
      R.ConstTarget = Sub->Ty.isConst() ||
                      (ArrTy && ArrTy->isArray() && ArrTy->Pointee.isConst());
      if (isa<StringLitExpr>(Sub))
        R.Local = false;
      return R;
    }
    case CastKind::LValueToRValue: {
      if (const VarDecl *V = varOf(Sub)) {
        if (int32_t Slot = slot(V); Slot >= 0)
          return St[Slot];
        return {};
      }
      walk(Sub, St); // loads through derefs check the pointer below
      return {};
    }
    case CastKind::PointerCast:
      return evalPtr(Sub, St); // value (and flags) survive the cast
    case CastKind::IntToPointer: {
      auto V = FC.constInt(Sub);
      if (V && *V == 0)
        return PtrVal{PtrVal::Null};
      walk(Sub, St);
      return {};
    }
    default:
      walk(Sub, St);
      return {};
    }
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->Op) {
    case UnaryOp::AddrOf: {
      // &*p is just p (C11 6.5.3.2p3, no access happens).
      if (const auto *Inner = dynCast<UnaryExpr>(U->Sub);
          Inner && Inner->Op == UnaryOp::Deref)
        return evalPtr(Inner->Sub, St);
      walk(U->Sub, St);
      PtrVal R{PtrVal::NonNull};
      if (const VarDecl *V = designatorBase(U->Sub))
        R.Local = isFrameLocal(V);
      R.ConstTarget = U->Sub->Ty.isConst();
      return R;
    }
    case UnaryOp::Deref:
      checkDeref(U->Sub, St, /*IsWrite=*/false);
      return {};
    case UnaryOp::PreInc:
    case UnaryOp::PostInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostDec: {
      if (int32_t Slot = slot(varOf(U->Sub)); Slot >= 0) {
        PtrVal Cur = St[Slot];
        PtrVal Next = Cur.Kind == PtrVal::NonNull ? Cur : PtrVal{};
        St[Slot] = Next;
        bool IsPre = U->Op == UnaryOp::PreInc || U->Op == UnaryOp::PreDec;
        return IsPre ? Next : Cur;
      }
      walk(U->Sub, St);
      return {};
    }
    default:
      walk(U->Sub, St);
      return {};
    }
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->Op == BinaryOp::Comma) {
      walk(B->Lhs, St);
      return evalPtr(B->Rhs, St);
    }
    if (B->Op == BinaryOp::LogAnd || B->Op == BinaryOp::LogOr) {
      walk(B->Lhs, St);
      FC.pushCond(); // the right operand may never evaluate
      walk(B->Rhs, St);
      FC.popCond();
      return {};
    }
    PtrVal L = evalPtr(B->Lhs, St), R = evalPtr(B->Rhs, St);
    if (B->Op != BinaryOp::Add && B->Op != BinaryOp::Sub)
      return {};
    // Arithmetic within an object keeps it non-null; anything else
    // (null + k is itself UB, but dynamically detected) goes to top.
    PtrVal P = isPointer(B->Lhs) ? L : isPointer(B->Rhs) ? R : PtrVal{};
    return P.Kind == PtrVal::NonNull ? P : PtrVal{};
  }
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    bool LhsPtr = isPointer(A->Lhs);
    PtrVal RV = evalPtr(A->Rhs, St);
    if (!LhsPtr)
      RV = {};
    if (int32_t Slot = slot(varOf(A->Lhs)); Slot >= 0) {
      if (A->Op == AssignOp::Assign) {
        St[Slot] = RV;
        return RV;
      }
      // p += i keeps a non-null pointer non-null.
      PtrVal Cur = St[Slot];
      PtrVal Next = Cur.Kind == PtrVal::NonNull ? Cur : PtrVal{};
      St[Slot] = Next;
      return Next;
    }
    storeTo(A->Lhs, St);
    return LhsPtr && A->Op == AssignOp::Assign ? RV : PtrVal{};
  }
  case ExprKind::Cond: {
    const auto *C = cast<CondExpr>(E);
    walk(C->Cond, St);
    FC.pushCond();
    PtrVal T = evalPtr(C->Then, St);
    PtrVal F = evalPtr(C->Else, St);
    FC.popCond();
    return joinPtrVal(T, F);
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    walk(C->Callee, St);
    for (const Expr *Arg : C->Args)
      walk(Arg, St);
    const Expr *Callee = C->Callee;
    while (const auto *IC = dynCast<ImplicitCastExpr>(Callee))
      Callee = IC->Sub;
    if (const auto *DR = dynCast<DeclRefExpr>(Callee);
        DR && DR->Fn && returnsMaybeNull(FC.interner().str(DR->Fn->Name)))
      return PtrVal{PtrVal::MaybeNull};
    return {};
  }
  case ExprKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    if (M->IsArrow)
      checkDeref(M->Base, St, /*IsWrite=*/false);
    else
      walk(M->Base, St);
    return {};
  }
  case ExprKind::Index: {
    const auto *IX = cast<IndexExpr>(E);
    walk(IX->Index, St);
    if (const auto *IC = dynCast<ImplicitCastExpr>(IX->Base);
        IC && IC->CK == CastKind::ArrayDecay)
      walk(IC->Sub, St); // direct array access, no pointer involved
    else
      checkDeref(IX->Base, St, /*IsWrite=*/false);
    return {};
  }
  case ExprKind::InitList:
    for (const Expr *I : cast<InitListExpr>(E)->Inits)
      walk(I, St);
    return {};
  default:
    return {}; // literals, sizeof (unevaluated)
  }
}

namespace {

/// Matches `(ToBool)? (LValueToRValue) declref-of-tracked-pointer`.
const VarDecl *loadedPtrVarImpl(const Expr *E) {
  while (const auto *IC = dynCast<ImplicitCastExpr>(E)) {
    if (IC->CK != CastKind::ToBool && IC->CK != CastKind::PointerCast)
      break;
    E = IC->Sub;
  }
  const auto *Load = dynCast<ImplicitCastExpr>(E);
  if (!Load || Load->CK != CastKind::LValueToRValue)
    return nullptr;
  const VarDecl *V = varOf(Load->Sub);
  return V && V->Ty.Ty && V->Ty.Ty->isPointer() ? V : nullptr;
}

} // namespace

bool NullnessDomain::refine(int32_t Slot, bool ToNonNull, State St) {
  PtrVal &Cur = St[Slot];
  if (ToNonNull) {
    if (Cur.Kind == PtrVal::Null)
      return false; // infeasible edge
    Cur.Kind = PtrVal::NonNull;
  } else {
    if (Cur.Kind == PtrVal::NonNull)
      return false;
    Cur = PtrVal{PtrVal::Null};
  }
  return true;
}

bool NullnessDomain::transferCond(const Expr *Cond, bool Taken, State St) {
  const Expr *E = Cond;
  while (const auto *IC = dynCast<ImplicitCastExpr>(E)) {
    if (IC->CK != CastKind::ToBool)
      break;
    E = IC->Sub;
  }
  // if (p) / while (p): p is non-null on the true edge, null otherwise.
  if (const VarDecl *V = loadedPtrVarImpl(E)) {
    if (int32_t Slot = slot(V); Slot >= 0)
      return refine(Slot, Taken, St);
    return true;
  }
  // if ((p = e)): refine the assigned variable (the side effect already
  // ran in transferCondEval).
  if (const auto *A = dynCast<AssignExpr>(E);
      A && A->Op == AssignOp::Assign) {
    if (int32_t Slot = slot(varOf(A->Lhs)); Slot >= 0)
      return refine(Slot, Taken, St);
    return true;
  }
  // p == 0 / p != 0 (either operand order).
  if (const auto *B = dynCast<BinaryExpr>(E);
      B && (B->Op == BinaryOp::Eq || B->Op == BinaryOp::Ne)) {
    const VarDecl *V = nullptr;
    if (isConstNull(B->Rhs))
      V = loadedPtrVarImpl(B->Lhs);
    else if (isConstNull(B->Lhs))
      V = loadedPtrVarImpl(B->Rhs);
    if (int32_t Slot = slot(V); Slot >= 0) {
      bool WantNull = (B->Op == BinaryOp::Eq) == Taken;
      return refine(Slot, !WantNull, St);
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// InitDomain
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *InitName = "init";
constexpr uint8_t IvInit = 0; // the unset cell
constexpr uint8_t IvUninit = 1;
constexpr uint8_t IvMaybe = 2;

} // namespace

void InitDomain::boundary(State St) { std::fill_n(St, width(), IvInit); }

bool InitDomain::join(State Into, const Cell *In) {
  bool Changed = false;
  for (size_t I = 0, W = width(); I < W; ++I)
    if (Into[I] != In[I] && Into[I] != IvMaybe) {
      Into[I] = IvMaybe;
      Changed = true;
    }
  return Changed;
}

void InitDomain::setAll(const VarDecl *V, Cell Value, State St) {
  const VarSlots &S = FC.slots(V);
  if (S.Init >= 0)
    std::fill_n(St + S.Init, S.InitCount, Value);
}

void InitDomain::transferStmt(const Stmt *S, State St) {
  const auto *D = dynCast<DeclStmt>(S);
  if (!D) {
    walk(stmtExpr(S), St);
    return;
  }
  for (const VarDecl *V : D->Decls) {
    walk(V->Init, St);
    // Any initializer fully initializes the object: remaining aggregate
    // members are implicitly zeroed (C11 6.7.9p19).
    setAll(V, V->Init ? IvInit : IvUninit, St);
  }
}

void InitDomain::checkRead(int32_t Slot, bool IsPointer, SourceLoc Loc,
                           State St) {
  if (St[Slot] == IvInit)
    return;
  UbKind Kind = IsPointer ? UbKind::UninitializedPointerUse
                          : UbKind::ReadIndeterminateValue;
  if (St[Slot] == IvUninit)
    FC.must(Kind, Loc, InitName);
  else
    FC.may(Kind, Loc, InitName);
}

void InitDomain::storeTo(const Expr *Lhs, bool Compound, State St) {
  switch (Lhs->Kind) {
  case ExprKind::DeclRef: {
    const VarDecl *V = varOf(Lhs);
    const VarSlots &S = FC.slots(V);
    if (S.Init < 0)
      return;
    if (Compound && !S.InitPerField)
      checkRead(S.Init, V->Ty.Ty->isPointer(), Lhs->Loc, St);
    setAll(V, IvInit, St);
    return;
  }
  case ExprKind::Member: {
    const auto *M = cast<MemberExpr>(Lhs);
    if (!M->IsArrow && M->FieldIdx >= 0) {
      const VarDecl *V = varOf(M->Base);
      if (const VarSlots &S = FC.slots(V); S.Init >= 0 && S.InitPerField) {
        int32_t Slot = S.Init + M->FieldIdx;
        if (Compound) {
          const Type *FTy =
              V->Ty.Ty->Record->Fields[M->FieldIdx].Ty.Ty;
          checkRead(Slot, FTy && FTy->isPointer(), M->Loc, St);
        }
        St[Slot] = IvInit;
        return;
      }
    }
    walk(M->Base, St); // p->f: reads the pointer
    return;
  }
  case ExprKind::Index: {
    const auto *IX = cast<IndexExpr>(Lhs);
    walk(IX->Index, St);
    if (const auto *IC = dynCast<ImplicitCastExpr>(IX->Base);
        IC && IC->CK == CastKind::ArrayDecay) {
      if (const VarSlots &S = FC.slots(varOf(IC->Sub));
          S.Init >= 0 && !S.InitPerField) {
        if (Compound)
          checkRead(S.Init, false, IX->Loc, St);
        // One element written; treat the array as initialized (sound
        // for false-positive avoidance, reads elsewhere stay dynamic).
        St[S.Init] = IvInit;
        return;
      }
    }
    walk(IX->Base, St);
    return;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(Lhs);
    walk(U->Sub, St); // *p = ...: reads p
    return;
  }
  case ExprKind::ImplicitCast:
    storeTo(cast<ImplicitCastExpr>(Lhs)->Sub, Compound, St);
    return;
  case ExprKind::Cast:
    storeTo(cast<CastExpr>(Lhs)->Sub, Compound, St);
    return;
  default:
    walk(Lhs, St);
    return;
  }
}

void InitDomain::walk(const Expr *E, State St) {
  if (!E)
    return;
  switch (E->Kind) {
  case ExprKind::ImplicitCast: {
    const auto *IC = cast<ImplicitCastExpr>(E);
    if (IC->CK != CastKind::LValueToRValue) {
      walk(IC->Sub, St);
      return;
    }
    const Expr *D = IC->Sub;
    if (const VarDecl *V = varOf(D)) {
      if (const VarSlots &S = FC.slots(V); S.Init >= 0 && !S.InitPerField)
        checkRead(S.Init, V->Ty.Ty->isPointer(), D->Loc, St);
      return;
    }
    if (const auto *M = dynCast<MemberExpr>(D);
        M && !M->IsArrow && M->FieldIdx >= 0) {
      const VarDecl *V = varOf(M->Base);
      if (const VarSlots &S = FC.slots(V); S.Init >= 0 && S.InitPerField) {
        const Type *FTy = V->Ty.Ty->Record->Fields[M->FieldIdx].Ty.Ty;
        checkRead(S.Init + M->FieldIdx, FTy && FTy->isPointer(), M->Loc, St);
        return;
      }
    }
    if (const auto *IX = dynCast<IndexExpr>(D)) {
      if (const auto *Decay = dynCast<ImplicitCastExpr>(IX->Base);
          Decay && Decay->CK == CastKind::ArrayDecay) {
        const VarDecl *V = varOf(Decay->Sub);
        if (const VarSlots &S = FC.slots(V); S.Init >= 0 && !S.InitPerField) {
          walk(IX->Index, St);
          const Type *ElemTy = V->Ty.Ty->Pointee.Ty;
          checkRead(S.Init, ElemTy && ElemTy->isPointer(), IX->Loc, St);
          return;
        }
      }
    }
    walk(D, St);
    return;
  }
  case ExprKind::Cast:
    walk(cast<CastExpr>(E)->Sub, St);
    return;
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    walk(A->Rhs, St);
    storeTo(A->Lhs, A->Op != AssignOp::Assign, St);
    return;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->Op) {
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec:
      storeTo(U->Sub, /*Compound=*/true, St);
      return;
    default:
      walk(U->Sub, St);
      return;
    }
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    bool ShortCircuit = B->Op == BinaryOp::LogAnd || B->Op == BinaryOp::LogOr;
    walk(B->Lhs, St);
    FC.pushCond(ShortCircuit); // the right operand may never evaluate
    walk(B->Rhs, St);
    FC.popCond(ShortCircuit);
    return;
  }
  case ExprKind::Cond: {
    const auto *C = cast<CondExpr>(E);
    walk(C->Cond, St);
    FC.pushCond();
    walk(C->Then, St);
    walk(C->Else, St);
    FC.popCond();
    return;
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    walk(C->Callee, St);
    for (const Expr *Arg : C->Args)
      walk(Arg, St);
    return;
  }
  case ExprKind::Member:
    walk(cast<MemberExpr>(E)->Base, St);
    return;
  case ExprKind::Index: {
    const auto *IX = cast<IndexExpr>(E);
    walk(IX->Base, St);
    walk(IX->Index, St);
    return;
  }
  case ExprKind::InitList:
    for (const Expr *I : cast<InitListExpr>(E)->Inits)
      walk(I, St);
    return;
  default:
    return; // literals, declrefs without load, sizeof (unevaluated)
  }
}

//===----------------------------------------------------------------------===//
// IntervalDomain
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *IntervalName = "interval";
using I128 = __int128;

std::optional<Interval> lookupItv(const Interval *St, int32_t Slot) {
  if (St[Slot].isTop())
    return std::nullopt;
  return St[Slot];
}


/// The interval of a value converted to _Bool.
Interval truthOf(const std::optional<Interval> &V) {
  if (V && !V->contains(0))
    return Interval{1, 1};
  if (V && V->Lo == 0 && V->Hi == 0)
    return Interval{0, 0};
  return Interval{0, 1};
}

std::optional<Interval> clampI128(I128 Lo, I128 Hi,
                                  const std::optional<Interval> &Range) {
  if (!Range)
    return std::nullopt;
  if (Lo < Range->Lo || Hi > Range->Hi)
    return std::nullopt;
  return Interval{static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

} // namespace

void IntervalDomain::boundary(State St) {
  std::fill_n(St, width(), Interval::top());
}

bool IntervalDomain::join(State Into, const Cell *In) {
  // Top absorbs: a slot that is top on either side goes to top.
  bool Changed = false;
  for (size_t I = 0, W = width(); I < W; ++I) {
    Interval &A = Into[I];
    if (A.isTop())
      continue;
    const Interval &B = In[I];
    if (B.isTop()) {
      A = Interval::top();
      Changed = true;
      continue;
    }
    Interval Hull{std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
    if (!(Hull == A)) {
      Changed = true;
      // Widening: a growing bound goes straight to top.
      A = Widening ? Interval::top() : Hull;
    }
  }
  return Changed;
}

void IntervalDomain::transferStmt(const Stmt *S, State St) {
  const auto *D = dynCast<DeclStmt>(S);
  if (!D) {
    eval(stmtExpr(S), St);
    return;
  }
  for (const VarDecl *V : D->Decls) {
    const VarSlots &VS = FC.slots(V);
    if (!V->Init) {
      if (VS.Itv >= 0)
        St[VS.Itv] = Interval::top(); // fresh indeterminate value
      continue;
    }
    auto Init = eval(V->Init, St);
    if (VS.Itv < 0 || isa<InitListExpr>(V->Init))
      continue;
    // The initializer converts to the variable's type.
    const Interval &TR = VS.Range;
    if (Init && Init->Lo >= TR.Lo && Init->Hi <= TR.Hi) {
      St[VS.Itv] = *Init;
    } else if (Init && Init->singleton()) {
      int64_t T = truncateToType(Init->Lo, V->Ty.Ty, FC.types());
      St[VS.Itv] = Interval{T, T};
    } else {
      St[VS.Itv] = Interval::top();
    }
  }
}

void IntervalDomain::checkIndex(const IndexExpr *IX, State St) {
  auto II = eval(IX->Index, St);
  const Expr *Base = IX->Base;
  uint64_t N = 0;
  bool Known = false;
  if (const auto *IC = dynCast<ImplicitCastExpr>(Base);
      IC && IC->CK == CastKind::ArrayDecay) {
    const Type *ArrTy = IC->Sub->Ty.Ty;
    if (ArrTy && ArrTy->isArray() && ArrTy->ArraySizeKnown) {
      Known = true;
      N = ArrTy->ArraySize;
    }
  } else {
    eval(Base, St); // pointer base: no static extent, still walk it
  }
  if (!Known || !II)
    return;
  // Mirror the machine's code assignment (C11 6.5.6p8): a[i] is
  // *(a + i), so an index outside [0, N] is UB at pointer *formation*
  // (13), and i == N forms legally but dereferences one-past-the-end
  // (29). The access-level read/write codes never fire here — the
  // arithmetic rule precedes them dynamically too.
  int64_t Size = static_cast<int64_t>(N);
  if (II->Hi < 0 || II->Lo > Size)
    FC.must(UbKind::PointerArithOutOfBounds, IX->Loc, IntervalName);
  else if (II->singleton() && II->Lo == Size)
    FC.must(UbKind::DerefOnePastEnd, IX->Loc, IntervalName);
  else if (II->Lo < 0 || II->Hi > Size)
    FC.may(UbKind::PointerArithOutOfBounds, IX->Loc, IntervalName);
  else if (II->Hi == Size)
    FC.may(UbKind::DerefOnePastEnd, IX->Loc, IntervalName);
}

void IntervalDomain::storeTo(const Expr *Lhs, const AssignExpr *A,
                             State St) {
  switch (Lhs->Kind) {
  case ExprKind::Index:
    checkIndex(cast<IndexExpr>(Lhs), St);
    return;
  case ExprKind::Member: {
    const auto *M = cast<MemberExpr>(Lhs);
    if (M->IsArrow)
      eval(M->Base, St);
    else
      storeTo(M->Base, A, St);
    return;
  }
  case ExprKind::Unary:
    eval(cast<UnaryExpr>(Lhs)->Sub, St);
    return;
  case ExprKind::ImplicitCast:
    storeTo(cast<ImplicitCastExpr>(Lhs)->Sub, A, St);
    return;
  case ExprKind::Cast:
    storeTo(cast<CastExpr>(Lhs)->Sub, A, St);
    return;
  default:
    eval(Lhs, St);
    return;
  }
}

std::optional<Interval>
IntervalDomain::applyIncDec(const VarSlots &V, bool IsInc, bool IsPre,
                            const Type *Ty, SourceLoc Loc, State St) {
  auto Cur = lookupItv(St, V.Itv);
  if (!Cur)
    return std::nullopt;
  I128 Lo = static_cast<I128>(Cur->Lo) + (IsInc ? 1 : -1);
  I128 Hi = static_cast<I128>(Cur->Hi) + (IsInc ? 1 : -1);
  auto Next = clampI128(Lo, Hi, V.Range);
  // c++ on a sub-int type computes in int (integer promotion), so
  // hitting the narrow type's bound converts implementation-defined,
  // never undefined — only int-or-wider increments can overflow.
  const TypeContext &Types = FC.types();
  if (!Next && Cur->singleton() && Ty && Ty->isSignedInteger(Types.config()) &&
      Types.bitWidthOf(Ty) >= Types.bitWidthOf(Types.intTy()))
    FC.must(UbKind::SignedOverflow, Loc, IntervalName);
  St[V.Itv] = Next.value_or(Interval::top());
  return IsPre ? Next : Cur;
}

std::optional<Interval>
IntervalDomain::evalBinary(BinaryOp Op, const std::optional<Interval> &L,
                           const std::optional<Interval> &R, const Type *Ty,
                           SourceLoc Loc, bool DivisorIsConst) {
  const TargetConfig &Config = FC.types().config();
  auto TR = FC.typeRange(Ty);
  switch (Op) {
  case BinaryOp::Div:
  case BinaryOp::Rem: {
    UbKind ZeroKind =
        Op == BinaryOp::Div ? UbKind::DivisionByZero : UbKind::ModuloByZero;
    if (R) {
      if (R->Lo == 0 && R->Hi == 0) {
        // A constant zero divisor belongs to the syntactic checker
        // (DivByZeroConstant); the flow layer owns the variable case.
        if (!DivisorIsConst)
          FC.must(ZeroKind, Loc, IntervalName);
        return std::nullopt;
      }
      if (R->contains(0))
        FC.may(ZeroKind, Loc, IntervalName);
    }
    if (L && R && L->singleton() && R->singleton() && R->Lo != 0) {
      if (Ty && Ty->isSignedInteger(Config) && TR && L->Lo == TR->Lo &&
          R->Lo == -1) {
        FC.must(UbKind::SignedOverflow, Loc, IntervalName);
        return std::nullopt;
      }
      int64_t V = Op == BinaryOp::Div ? L->Lo / R->Lo : L->Lo % R->Lo;
      return clampI128(V, V, TR);
    }
    return std::nullopt;
  }
  case BinaryOp::Shl:
  case BinaryOp::Shr: {
    unsigned W = Ty && Ty->isIntegral() ? FC.types().bitWidthOf(Ty) : 0;
    if (R && W) {
      if (R->Hi < 0) {
        FC.must(UbKind::NegativeShiftCount, Loc, IntervalName);
        return std::nullopt;
      }
      if (R->Lo < 0)
        FC.may(UbKind::NegativeShiftCount, Loc, IntervalName);
      if (R->Lo >= static_cast<int64_t>(W)) {
        FC.must(UbKind::ShiftExponentOutOfRange, Loc, IntervalName);
        return std::nullopt;
      }
      if (R->Hi >= static_cast<int64_t>(W))
        FC.may(UbKind::ShiftExponentOutOfRange, Loc, IntervalName);
    }
    if (Op == BinaryOp::Shl && Ty && Ty->isSignedInteger(Config) && L) {
      if (L->Hi < 0) {
        FC.must(UbKind::ShiftOfNegative, Loc, IntervalName);
        return std::nullopt;
      }
      if (L->Lo < 0)
        FC.may(UbKind::ShiftOfNegative, Loc, IntervalName);
    }
    if (L && R && L->singleton() && R->singleton() && L->Lo >= 0 &&
        R->Lo >= 0 && R->Lo < static_cast<int64_t>(W)) {
      I128 V = Op == BinaryOp::Shl ? static_cast<I128>(L->Lo) << R->Lo
                                   : static_cast<I128>(L->Lo) >> R->Lo;
      return clampI128(V, V, TR);
    }
    return std::nullopt;
  }
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul: {
    if (!L || !R || !Ty || !Ty->isIntegral() || !TR)
      return std::nullopt;
    I128 Lo, Hi;
    if (Op == BinaryOp::Add) {
      Lo = static_cast<I128>(L->Lo) + R->Lo;
      Hi = static_cast<I128>(L->Hi) + R->Hi;
    } else if (Op == BinaryOp::Sub) {
      Lo = static_cast<I128>(L->Lo) - R->Hi;
      Hi = static_cast<I128>(L->Hi) - R->Lo;
    } else {
      I128 P1 = static_cast<I128>(L->Lo) * R->Lo;
      I128 P2 = static_cast<I128>(L->Lo) * R->Hi;
      I128 P3 = static_cast<I128>(L->Hi) * R->Lo;
      I128 P4 = static_cast<I128>(L->Hi) * R->Hi;
      Lo = std::min({P1, P2, P3, P4});
      Hi = std::max({P1, P2, P3, P4});
    }
    auto Res = clampI128(Lo, Hi, TR);
    if (!Res && Ty->isSignedInteger(Config) && L->singleton() &&
        R->singleton())
      FC.must(UbKind::SignedOverflow, Loc, IntervalName);
    return Res;
  }
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    return Interval{0, 1};
  default:
    return std::nullopt;
  }
}

std::optional<Interval> IntervalDomain::eval(const Expr *E, State St) {
  if (!E)
    return std::nullopt;
  // Constant expressions fold directly — this also covers sizeof and
  // enum constants the structural walk below cannot see. A constant
  // expression has no side effects, so skipping the walk is safe.
  if (auto C = FC.constInt(E))
    return Interval{*C, *C};
  switch (E->Kind) {
  case ExprKind::ImplicitCast:
  case ExprKind::Cast: {
    auto [CK, Sub] = castParts(E);
    switch (CK) {
    case CastKind::LValueToRValue: {
      if (const VarDecl *V = varOf(Sub)) {
        if (int32_t Slot = FC.slots(V).Itv; Slot >= 0)
          return lookupItv(St, Slot);
        return std::nullopt;
      }
      eval(Sub, St);
      return std::nullopt;
    }
    case CastKind::ToBool:
      return truthOf(eval(Sub, St));
    case CastKind::IntegralCast: {
      auto SI = eval(Sub, St);
      if (!SI)
        return std::nullopt;
      auto TR = FC.typeRange(E->Ty.Ty);
      if (TR && SI->Lo >= TR->Lo && SI->Hi <= TR->Hi)
        return SI;
      if (SI->singleton()) {
        int64_t T = truncateToType(SI->Lo, E->Ty.Ty, FC.types());
        return Interval{T, T};
      }
      return std::nullopt;
    }
    default:
      eval(Sub, St);
      return std::nullopt;
    }
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->Op) {
    case UnaryOp::Plus:
      return eval(U->Sub, St);
    case UnaryOp::Minus: {
      auto SI = eval(U->Sub, St);
      if (!SI || SI->Lo == INT64_MIN)
        return std::nullopt;
      auto TR = FC.typeRange(E->Ty.Ty);
      auto Res = clampI128(-static_cast<I128>(SI->Hi),
                           -static_cast<I128>(SI->Lo), TR);
      if (!Res && SI->singleton() && E->Ty.Ty &&
          E->Ty.Ty->isSignedInteger(FC.types().config()))
        FC.must(UbKind::SignedOverflow, U->Loc, IntervalName);
      return Res;
    }
    case UnaryOp::LogNot: {
      Interval T = truthOf(eval(U->Sub, St));
      return Interval{1 - T.Hi, 1 - T.Lo};
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      bool IsInc = U->Op == UnaryOp::PreInc || U->Op == UnaryOp::PostInc;
      bool IsPre = U->Op == UnaryOp::PreInc || U->Op == UnaryOp::PreDec;
      if (const VarDecl *V = varOf(U->Sub); FC.slots(V).Itv >= 0)
        return applyIncDec(FC.slots(V), IsInc, IsPre, V->Ty.Ty, U->Loc, St);
      eval(U->Sub, St);
      return std::nullopt;
    }
    case UnaryOp::AddrOf: {
      // No access happens; subscripts under & may legally form
      // one-past-the-end, so evaluate indices without bounds checks.
      const Expr *D = U->Sub;
      while (true) {
        if (const auto *M = dynCast<MemberExpr>(D); M && !M->IsArrow) {
          D = M->Base;
        } else if (const auto *IX = dynCast<IndexExpr>(D)) {
          eval(IX->Index, St);
          D = IX->Base;
        } else if (const auto *IC = dynCast<ImplicitCastExpr>(D)) {
          D = IC->Sub;
        } else {
          break;
        }
      }
      if (const auto *M = dynCast<MemberExpr>(D)) // through ->
        eval(M->Base, St);
      else if (const auto *Inner = dynCast<UnaryExpr>(D);
               Inner && Inner->Op == UnaryOp::Deref)
        eval(Inner->Sub, St);
      return std::nullopt;
    }
    default:
      eval(U->Sub, St);
      return std::nullopt;
    }
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->Op == BinaryOp::Comma) {
      eval(B->Lhs, St);
      return eval(B->Rhs, St);
    }
    if (B->Op == BinaryOp::LogAnd || B->Op == BinaryOp::LogOr) {
      eval(B->Lhs, St);
      FC.pushCond();
      eval(B->Rhs, St);
      FC.popCond();
      return Interval{0, 1};
    }
    auto LI = eval(B->Lhs, St);
    auto RI = eval(B->Rhs, St);
    bool DivisorIsConst = (B->Op == BinaryOp::Div || B->Op == BinaryOp::Rem) &&
                          FC.constInt(B->Rhs).has_value();
    return evalBinary(B->Op, LI, RI, E->Ty.Ty, B->Loc, DivisorIsConst);
  }
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    auto RI = eval(A->Rhs, St);
    const VarDecl *V = varOf(A->Lhs);
    if (const VarSlots &VS = FC.slots(V); VS.Itv >= 0) {
      const Type *VT = V->Ty.Ty;
      const Interval &TR = VS.Range;
      std::optional<Interval> NewV;
      if (A->Op == AssignOp::Assign) {
        NewV = RI;
      } else {
        const Type *CT = A->ComputeTy.Ty ? A->ComputeTy.Ty : VT;
        bool DivisorIsConst =
            (A->Op == AssignOp::DivAssign || A->Op == AssignOp::RemAssign) &&
            FC.constInt(A->Rhs).has_value();
        NewV = evalBinary(compoundOpOf(A->Op), lookupItv(St, VS.Itv), RI,
                          CT, A->Loc, DivisorIsConst);
      }
      // Convert the stored value into the variable's type.
      if (NewV && !(NewV->Lo >= TR.Lo && NewV->Hi <= TR.Hi)) {
        if (NewV->singleton()) {
          int64_t T = truncateToType(NewV->Lo, VT, FC.types());
          NewV = Interval{T, T};
        } else {
          NewV = std::nullopt;
        }
      }
      St[VS.Itv] = NewV.value_or(Interval::top());
      return NewV;
    }
    storeTo(A->Lhs, A, St);
    return A->Op == AssignOp::Assign ? RI : std::nullopt;
  }
  case ExprKind::Cond: {
    const auto *C = cast<CondExpr>(E);
    eval(C->Cond, St);
    FC.pushCond();
    auto T = eval(C->Then, St);
    auto F = eval(C->Else, St);
    FC.popCond();
    if (T && F)
      return Interval{std::min(T->Lo, F->Lo), std::max(T->Hi, F->Hi)};
    return std::nullopt;
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    eval(C->Callee, St);
    for (const Expr *Arg : C->Args)
      eval(Arg, St);
    return std::nullopt;
  }
  case ExprKind::Index:
    checkIndex(cast<IndexExpr>(E), St);
    return std::nullopt;
  case ExprKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    if (M->IsArrow)
      eval(M->Base, St);
    return std::nullopt;
  }
  case ExprKind::InitList:
    for (const Expr *I : cast<InitListExpr>(E)->Inits)
      eval(I, St);
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

namespace {

/// Matches a plain load of a tracked variable under value-preserving
/// wrappers only: ToBool, or an *widening* integral promotion (value
/// identity holds, so refining through it is sound; a narrowing cast
/// is not peeled — `(char)x == 0` constrains x only modulo 2^8).
const Expr *peelValuePreserving(const Expr *E, const TypeContext &Types) {
  while (const auto *IC = dynCast<ImplicitCastExpr>(E)) {
    if (IC->CK == CastKind::ToBool) {
      E = IC->Sub;
      continue;
    }
    if (IC->CK == CastKind::IntegralCast) {
      const Type *From = IC->Sub->Ty.Ty;
      const Type *To = IC->Ty.Ty;
      if (From && To && From->isIntegral() && To->isIntegral()) {
        unsigned WF = Types.bitWidthOf(From), WT = Types.bitWidthOf(To);
        bool Preserving =
            WT > WF && (To->isSignedInteger(Types.config()) ||
                        From->isUnsignedInteger(Types.config()));
        if (Preserving) {
          E = IC->Sub;
          continue;
        }
      }
    }
    break;
  }
  return E;
}

} // namespace

namespace {

/// Refines a tracked variable's interval by its truth value: zero on
/// the false edge, nonzero on the true one. False when the edge is
/// infeasible.
bool refineTruth(Interval &Cell, bool Taken) {
  if (!Taken) {
    if (!Cell.isTop() && !Cell.contains(0))
      return false;
    Cell = Interval{0, 0};
  } else if (!Cell.isTop()) {
    if (Cell.Lo == 0 && Cell.Hi == 0)
      return false;
    if (Cell.Lo == 0)
      Cell.Lo = 1;
    else if (Cell.Hi == 0)
      Cell.Hi = -1;
  }
  return true;
}

/// The relation that holds when \p Op's operands swap sides (Flip) or
/// when the comparison is false (Negate).
BinaryOp flipRelation(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
    return BinaryOp::Gt;
  case BinaryOp::Gt:
    return BinaryOp::Lt;
  case BinaryOp::Le:
    return BinaryOp::Ge;
  case BinaryOp::Ge:
    return BinaryOp::Le;
  default:
    return Op;
  }
}

BinaryOp negateRelation(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
    return BinaryOp::Ge;
  case BinaryOp::Gt:
    return BinaryOp::Le;
  case BinaryOp::Le:
    return BinaryOp::Gt;
  case BinaryOp::Ge:
    return BinaryOp::Lt;
  case BinaryOp::Eq:
    return BinaryOp::Ne;
  case BinaryOp::Ne:
    return BinaryOp::Eq;
  default:
    return Op;
  }
}

} // namespace

bool IntervalDomain::transferCond(const Expr *Cond, bool Taken, State St) {
  const TypeContext &Types = FC.types();
  const Expr *E = peelValuePreserving(Cond, Types);

  // if ((n = e)): refine the assigned variable's truthiness.
  if (const auto *A = dynCast<AssignExpr>(E); A && A->Op == AssignOp::Assign)
    if (int32_t Slot = FC.slots(varOf(A->Lhs)).Itv; Slot >= 0)
      return refineTruth(St[Slot], Taken);

  // Truth test of a tracked variable.
  if (const auto *Load = dynCast<ImplicitCastExpr>(E);
      Load && Load->CK == CastKind::LValueToRValue) {
    if (int32_t Slot = FC.slots(varOf(Load->Sub)).Itv; Slot >= 0)
      return refineTruth(St[Slot], Taken);
    return true;
  }

  // var REL const (either operand order).
  const auto *B = dynCast<BinaryExpr>(E);
  if (!B)
    return true;
  BinaryOp Op = B->Op;
  if (Op != BinaryOp::Lt && Op != BinaryOp::Gt && Op != BinaryOp::Le &&
      Op != BinaryOp::Ge && Op != BinaryOp::Eq && Op != BinaryOp::Ne)
    return true;

  const VarDecl *V = nullptr;
  std::optional<int64_t> C;
  if (const auto *Load =
          dynCast<ImplicitCastExpr>(peelValuePreserving(B->Lhs, Types));
      Load && Load->CK == CastKind::LValueToRValue && varOf(Load->Sub)) {
    V = varOf(Load->Sub);
    C = FC.constInt(B->Rhs);
  }
  if (!V || !C) {
    if (const auto *Load =
            dynCast<ImplicitCastExpr>(peelValuePreserving(B->Rhs, Types));
        Load && Load->CK == CastKind::LValueToRValue && varOf(Load->Sub)) {
      V = varOf(Load->Sub);
      C = FC.constInt(B->Lhs);
      // Flip so the variable is on the left: C < v  ⇔  v > C, etc.
      Op = flipRelation(Op);
    }
  }
  const VarSlots &VS = FC.slots(V);
  if (!C || VS.Itv < 0)
    return true;

  // The false edge refines by the negated relation.
  if (!Taken)
    Op = negateRelation(Op);

  auto Cur = lookupItv(St, VS.Itv);
  if (Op == BinaryOp::Eq) {
    // Equality may seed from the full type range: it yields a
    // singleton, which is precise enough to be worth tracking even
    // for otherwise-unknown variables.
    Interval Base = Cur ? *Cur : VS.Range;
    if (!Base.contains(*C))
      return false;
    St[VS.Itv] = Interval{*C, *C};
    return true;
  }
  if (!Cur) {
    // Inequalities on unknown variables are deliberately not seeded
    // from the type range: half-open intervals like [INT_MIN, C-1]
    // mostly produce noise hints (every loop counter after widening).
    return true;
  }
  Interval R = *Cur;
  switch (Op) {
  case BinaryOp::Ne:
    if (R.Lo == *C && R.Hi == *C)
      return false;
    if (R.Lo == *C)
      ++R.Lo;
    else if (R.Hi == *C)
      --R.Hi;
    break;
  case BinaryOp::Lt:
    if (*C == INT64_MIN)
      return false;
    R.Hi = std::min(R.Hi, *C - 1);
    break;
  case BinaryOp::Le:
    R.Hi = std::min(R.Hi, *C);
    break;
  case BinaryOp::Gt:
    if (*C == INT64_MAX)
      return false;
    R.Lo = std::max(R.Lo, *C + 1);
    break;
  case BinaryOp::Ge:
    R.Lo = std::max(R.Lo, *C);
    break;
  default:
    break;
  }
  if (R.Lo > R.Hi)
    return false;
  St[VS.Itv] = R;
  return true;
}

bool IntervalDomain::transferSwitchEdge(const Expr *Cond, const CaseStmt *Case,
                                        State St) {
  if (!Case)
    return true; // default / fall-out edge: no single-value refinement
  const Expr *E = peelValuePreserving(Cond, FC.types());
  const auto *Load = dynCast<ImplicitCastExpr>(E);
  if (!Load || Load->CK != CastKind::LValueToRValue)
    return true;
  const VarSlots &VS = FC.slots(varOf(Load->Sub));
  if (VS.Itv < 0)
    return true;
  auto Cur = lookupItv(St, VS.Itv);
  Interval Base = Cur ? *Cur : VS.Range;
  if (!Base.contains(Case->Value))
    return false; // this case label can never be reached
  St[VS.Itv] = Interval{Case->Value, Case->Value};
  return true;
}
