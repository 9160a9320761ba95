//===- ast/Ast.h - C abstract syntax tree ---------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Slab-allocated AST. Nodes are created by the parser; Sema annotates
/// expressions with types, value categories, and implicit conversions.
/// The core machine interprets this AST directly (it is the "program
/// term" loaded into the k cell of the configuration).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_AST_AST_H
#define CUNDEF_AST_AST_H

#include "support/SourceLoc.h"
#include "support/StringInterner.h"
#include "types/Type.h"

#include <cassert>
#include <string>
#include <vector>

namespace cundef {

class Expr;
class Stmt;
class VarDecl;
class FunctionDecl;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLit,
  FloatLit,
  StringLit,
  DeclRef,
  Unary,
  Binary,
  Assign,
  Cond,
  Cast,         // explicit (T)e
  ImplicitCast, // inserted by Sema
  Call,
  Member,
  Index,
  Sizeof,
  InitList,
};

enum class UnaryOp : uint8_t {
  Plus,
  Minus,
  BitNot,
  LogNot,
  Deref,
  AddrOf,
  PreInc,
  PreDec,
  PostInc,
  PostDec,
};

enum class BinaryOp : uint8_t {
  Mul,
  Div,
  Rem,
  Add,
  Sub,
  Shl,
  Shr,
  Lt,
  Gt,
  Le,
  Ge,
  Eq,
  Ne,
  BitAnd,
  BitXor,
  BitOr,
  LogAnd,
  LogOr,
  Comma,
};

enum class AssignOp : uint8_t {
  Assign,
  MulAssign,
  DivAssign,
  RemAssign,
  AddAssign,
  SubAssign,
  ShlAssign,
  ShrAssign,
  AndAssign,
  XorAssign,
  OrAssign,
};

/// The underlying BinaryOp performed by a compound assignment.
BinaryOp compoundOpOf(AssignOp Op);

/// How an implicit conversion changes a value (a subset of Clang's cast
/// kinds sufficient for C).
enum class CastKind : uint8_t {
  LValueToRValue,
  ArrayDecay,
  FunctionDecay,
  IntegralCast,
  IntToFloat,
  FloatToInt,
  FloatCast,
  IntToPointer,
  PointerToInt,
  PointerCast,
  NullToPointer,
  ToBool,
  ToVoid,
};

enum class ValueCat : uint8_t { RValue, LValue };

/// Base of all expressions. Type and value category are null/RValue
/// until Sema runs.
class Expr {
public:
  const ExprKind Kind;
  SourceLoc Loc;
  QualType Ty;
  ValueCat Cat = ValueCat::RValue;
  /// Set by Sema on an operator with two or more operands when every
  /// evaluation order of them reaches the same state: no operand writes
  /// (assignment, ++/--, call, volatile access, initializer list or
  /// sequence point) and at most one creates a memory object on first
  /// use (a string literal or function designator). The machine takes
  /// one forced decision there instead of a choice point.
  bool OrderFree = false;

  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;

  bool isLValue() const { return Cat == ValueCat::LValue; }
};

/// LLVM-style dyn_cast support keyed on the Kind field.
template <typename To, typename From> const To *dynCast(const From *Node) {
  return Node && To::classof(Node) ? static_cast<const To *>(Node) : nullptr;
}
template <typename To, typename From> const To *cast(const From *Node) {
  assert(Node && To::classof(Node) && "bad AST cast");
  return static_cast<const To *>(Node);
}
template <typename To, typename From> bool isa(const From *Node) {
  return Node && To::classof(Node);
}

class IntLitExpr : public Expr {
public:
  uint64_t Value;

  IntLitExpr(SourceLoc Loc, uint64_t Value)
      : Expr(ExprKind::IntLit, Loc), Value(Value) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::IntLit; }
};

class FloatLitExpr : public Expr {
public:
  double Value;

  FloatLitExpr(SourceLoc Loc, double Value)
      : Expr(ExprKind::FloatLit, Loc), Value(Value) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::FloatLit; }
};

class StringLitExpr : public Expr {
public:
  std::string Bytes; ///< decoded content, without the terminating NUL

  StringLitExpr(SourceLoc Loc, std::string Bytes)
      : Expr(ExprKind::StringLit, Loc), Bytes(std::move(Bytes)) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::StringLit; }
};

class DeclRefExpr : public Expr {
public:
  Symbol Name;
  /// The referenced variable, or null when Fn is set.
  const VarDecl *Var = nullptr;
  /// The referenced function, for function designators.
  const FunctionDecl *Fn = nullptr;

  DeclRefExpr(SourceLoc Loc, Symbol Name)
      : Expr(ExprKind::DeclRef, Loc), Name(Name) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::DeclRef; }
};

class UnaryExpr : public Expr {
public:
  UnaryOp Op;
  Expr *Sub;

  UnaryExpr(SourceLoc Loc, UnaryOp Op, Expr *Sub)
      : Expr(ExprKind::Unary, Loc), Op(Op), Sub(Sub) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Unary; }
};

class BinaryExpr : public Expr {
public:
  BinaryOp Op;
  Expr *Lhs;
  Expr *Rhs;

  BinaryExpr(SourceLoc Loc, BinaryOp Op, Expr *Lhs, Expr *Rhs)
      : Expr(ExprKind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Binary; }
};

class AssignExpr : public Expr {
public:
  AssignOp Op;
  Expr *Lhs;
  Expr *Rhs;
  /// For compound assignment: the type in which the arithmetic happens
  /// (usual arithmetic conversions of the operand types); set by Sema.
  QualType ComputeTy;

  AssignExpr(SourceLoc Loc, AssignOp Op, Expr *Lhs, Expr *Rhs)
      : Expr(ExprKind::Assign, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Assign; }
};

class CondExpr : public Expr {
public:
  Expr *Cond;
  Expr *Then;
  Expr *Else;

  CondExpr(SourceLoc Loc, Expr *Cond, Expr *Then, Expr *Else)
      : Expr(ExprKind::Cond, Loc), Cond(Cond), Then(Then), Else(Else) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Cond; }
};

class CastExpr : public Expr {
public:
  QualType TargetTy;
  Expr *Sub;
  /// Semantic kind; set by Sema (explicit casts get one too).
  CastKind CK = CastKind::IntegralCast;

  CastExpr(SourceLoc Loc, QualType TargetTy, Expr *Sub)
      : Expr(ExprKind::Cast, Loc), TargetTy(TargetTy), Sub(Sub) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Cast; }
};

class ImplicitCastExpr : public Expr {
public:
  CastKind CK;
  Expr *Sub;

  ImplicitCastExpr(SourceLoc Loc, CastKind CK, QualType Ty, Expr *Sub)
      : Expr(ExprKind::ImplicitCast, Loc), CK(CK), Sub(Sub) {
    this->Ty = Ty;
  }
  static bool classof(const Expr *E) {
    return E->Kind == ExprKind::ImplicitCast;
  }
};

class CallExpr : public Expr {
public:
  Expr *Callee;
  std::vector<Expr *> Args;

  CallExpr(SourceLoc Loc, Expr *Callee, std::vector<Expr *> Args)
      : Expr(ExprKind::Call, Loc), Callee(Callee), Args(std::move(Args)) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Call; }
};

class MemberExpr : public Expr {
public:
  Expr *Base;
  Symbol Member;
  bool IsArrow;
  /// Field index within the record; set by Sema.
  int FieldIdx = -1;

  MemberExpr(SourceLoc Loc, Expr *Base, Symbol Member, bool IsArrow)
      : Expr(ExprKind::Member, Loc), Base(Base), Member(Member),
        IsArrow(IsArrow) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Member; }
};

class IndexExpr : public Expr {
public:
  Expr *Base;
  Expr *Index;

  IndexExpr(SourceLoc Loc, Expr *Base, Expr *Index)
      : Expr(ExprKind::Index, Loc), Base(Base), Index(Index) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Index; }
};

class SizeofExpr : public Expr {
public:
  /// Exactly one of ArgTy / ArgExpr is set.
  QualType ArgTy;
  Expr *ArgExpr = nullptr;

  SizeofExpr(SourceLoc Loc, QualType ArgTy)
      : Expr(ExprKind::Sizeof, Loc), ArgTy(ArgTy) {}
  SizeofExpr(SourceLoc Loc, Expr *ArgExpr)
      : Expr(ExprKind::Sizeof, Loc), ArgExpr(ArgExpr) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::Sizeof; }
};

class InitListExpr : public Expr {
public:
  std::vector<Expr *> Inits;

  InitListExpr(SourceLoc Loc, std::vector<Expr *> Inits)
      : Expr(ExprKind::InitList, Loc), Inits(std::move(Inits)) {}
  static bool classof(const Expr *E) { return E->Kind == ExprKind::InitList; }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Compound,
  Decl,
  Expr,
  If,
  While,
  Do,
  For,
  Switch,
  Case,
  Default,
  Break,
  Continue,
  Goto,
  Label,
  Return,
};

class Stmt {
public:
  const StmtKind Kind;
  SourceLoc Loc;

  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
  Stmt(const Stmt &) = delete;
  Stmt &operator=(const Stmt &) = delete;
};

class CompoundStmt : public Stmt {
public:
  std::vector<Stmt *> Body;

  CompoundStmt(SourceLoc Loc, std::vector<Stmt *> Body)
      : Stmt(StmtKind::Compound, Loc), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Compound; }
};

class DeclStmt : public Stmt {
public:
  std::vector<VarDecl *> Decls;

  DeclStmt(SourceLoc Loc, std::vector<VarDecl *> Decls)
      : Stmt(StmtKind::Decl, Loc), Decls(std::move(Decls)) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Decl; }
};

class ExprStmt : public Stmt {
public:
  Expr *E; ///< null for the empty statement ';'

  ExprStmt(SourceLoc Loc, Expr *E) : Stmt(StmtKind::Expr, Loc), E(E) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Expr; }
};

class IfStmt : public Stmt {
public:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else; ///< may be null

  IfStmt(SourceLoc Loc, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::If; }
};

class WhileStmt : public Stmt {
public:
  Expr *Cond;
  Stmt *Body;

  WhileStmt(SourceLoc Loc, Expr *Cond, Stmt *Body)
      : Stmt(StmtKind::While, Loc), Cond(Cond), Body(Body) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::While; }
};

class DoStmt : public Stmt {
public:
  Stmt *Body;
  Expr *Cond;

  DoStmt(SourceLoc Loc, Stmt *Body, Expr *Cond)
      : Stmt(StmtKind::Do, Loc), Body(Body), Cond(Cond) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Do; }
};

class ForStmt : public Stmt {
public:
  Stmt *Init; ///< DeclStmt or ExprStmt; may be null
  Expr *Cond; ///< may be null (infinite loop)
  Expr *Inc;  ///< may be null
  Stmt *Body;

  ForStmt(SourceLoc Loc, Stmt *Init, Expr *Cond, Expr *Inc, Stmt *Body)
      : Stmt(StmtKind::For, Loc), Init(Init), Cond(Cond), Inc(Inc),
        Body(Body) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::For; }
};

class CaseStmt;
class DefaultStmt;

class SwitchStmt : public Stmt {
public:
  Expr *Cond;
  Stmt *Body;
  /// All case labels lexically within Body; collected by Sema.
  std::vector<const CaseStmt *> Cases;
  const DefaultStmt *Default = nullptr;

  SwitchStmt(SourceLoc Loc, Expr *Cond, Stmt *Body)
      : Stmt(StmtKind::Switch, Loc), Cond(Cond), Body(Body) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Switch; }
};

class CaseStmt : public Stmt {
public:
  Expr *ValueExpr;
  Stmt *Sub;
  /// Constant value of ValueExpr; computed by Sema.
  int64_t Value = 0;

  CaseStmt(SourceLoc Loc, Expr *ValueExpr, Stmt *Sub)
      : Stmt(StmtKind::Case, Loc), ValueExpr(ValueExpr), Sub(Sub) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Case; }
};

class DefaultStmt : public Stmt {
public:
  Stmt *Sub;

  DefaultStmt(SourceLoc Loc, Stmt *Sub)
      : Stmt(StmtKind::Default, Loc), Sub(Sub) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Default; }
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(StmtKind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(StmtKind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Continue; }
};

class LabelStmt : public Stmt {
public:
  Symbol Name;
  Stmt *Sub;

  LabelStmt(SourceLoc Loc, Symbol Name, Stmt *Sub)
      : Stmt(StmtKind::Label, Loc), Name(Name), Sub(Sub) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Label; }
};

class GotoStmt : public Stmt {
public:
  Symbol Label;
  /// Resolved by Sema.
  const LabelStmt *Target = nullptr;

  GotoStmt(SourceLoc Loc, Symbol Label)
      : Stmt(StmtKind::Goto, Loc), Label(Label) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Goto; }
};

class ReturnStmt : public Stmt {
public:
  Expr *Value; ///< may be null

  ReturnStmt(SourceLoc Loc, Expr *Value)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}
  static bool classof(const Stmt *S) { return S->Kind == StmtKind::Return; }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

enum class StorageClass : uint8_t { None, Static, Extern };

class VarDecl {
public:
  Symbol Name = NoSymbol;
  QualType Ty;
  StorageClass Storage = StorageClass::None;
  Expr *Init = nullptr; ///< scalar Expr or InitListExpr; may be null
  bool IsGlobal = false;
  bool IsParam = false;
  SourceLoc Loc;
  /// Unique id within the translation unit; the interpreter keys
  /// environments and static storage by it.
  uint32_t DeclId = 0;

  VarDecl(const VarDecl &) = delete;
  VarDecl &operator=(const VarDecl &) = delete;
  VarDecl() = default;
};

class FunctionDecl {
public:
  Symbol Name = NoSymbol;
  const Type *FnTy = nullptr; ///< always a Function type
  std::vector<VarDecl *> Params;
  CompoundStmt *Body = nullptr; ///< null for prototypes
  SourceLoc Loc;
  /// Non-zero when this is a libc builtin (see libc/Builtins.h).
  uint16_t BuiltinId = 0;
  /// Every type this function was declared with, in source order; the
  /// static checker flags incompatible redeclarations (C11 6.2.7p2).
  std::vector<const Type *> AllDeclTypes;
  /// Qualifier bits any declaration attached to the *function type*
  /// (only possible through a typedef); undefined per C11 6.7.3p9.
  uint8_t DeclQuals = QualNone;

  FunctionDecl(const FunctionDecl &) = delete;
  FunctionDecl &operator=(const FunctionDecl &) = delete;
  FunctionDecl() = default;

  bool isDefined() const { return Body != nullptr || BuiltinId != 0; }
};

/// A parsed and analyzed translation unit.
class TranslationUnit {
public:
  std::vector<FunctionDecl *> Functions;
  std::vector<VarDecl *> Globals;

  const FunctionDecl *findFunction(Symbol Name) const {
    for (const FunctionDecl *F : Functions)
      if (F->Name == Name)
        return F;
    return nullptr;
  }
};

/// Owns all AST nodes plus the per-TU type context. Nodes and types
/// share the type context's slab arena (support/SlabArena.h), so a
/// unit's whole tree takes a few allocations.
class AstContext {
public:
  /// \p Base, when given, is a frozen prelude's context (interned in
  /// \p Interner's base) to continue from: its types and function
  /// declarations are shared, never written, and declaration ids
  /// continue after its own. It must outlive this context.
  AstContext(const TargetConfig &Config, StringInterner &Interner,
             const AstContext *Base = nullptr)
      : Types(Config, Base ? &Base->Types : nullptr), Interner(Interner),
        Base(Base) {
    if (Base) {
      TU.Functions = Base->TU.Functions;
      NextDeclId = Base->NextDeclId;
    }
  }

  /// Whether TU.Functions[Index] is still the base's declaration (a
  /// clone takes the same index).
  bool isShared(size_t Index) const {
    return Base && Index < Base->TU.Functions.size() &&
           TU.Functions[Index] == Base->TU.Functions[Index];
  }

  /// Allocates an AST node in the unit's slabs.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    return Types.slabs().create<T>(std::forward<ArgTs>(Args)...);
  }

  TypeContext Types;
  StringInterner &Interner;
  TranslationUnit TU;
  uint32_t NextDeclId = 1;

private:
  const AstContext *Base;
};

} // namespace cundef

#endif // CUNDEF_AST_AST_H
