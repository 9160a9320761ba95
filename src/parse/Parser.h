//===- parse/Parser.h - C parser -------------------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the supported C subset. Consumes the
/// preprocessor's token stream and produces an AST. The parser owns the
/// scope stack (needed anyway for the typedef lexer-hack), so names are
/// resolved here: DeclRefExpr nodes point at their VarDecl/FunctionDecl,
/// and enumeration constants are folded to integer literals.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_PARSE_PARSER_H
#define CUNDEF_PARSE_PARSER_H

#include "ast/Ast.h"
#include "support/Diagnostics.h"
#include "text/Token.h"

#include <map>
#include <vector>

namespace cundef {

class Parser {
public:
  Parser(std::vector<Token> Toks, AstContext &Ctx, DiagnosticEngine &Diags);

  /// Parses the whole token stream into Ctx.TU. Returns false if any
  /// syntax error was reported.
  bool parseTranslationUnit();

private:
  //===--- Token stream -------------------------------------------------===//
  const Token &peek(int Ahead = 0) const;
  /// Returns the current token and advances. The reference stays valid
  /// for the parser's lifetime: the token vector never changes.
  const Token &take();
  bool at(TokenKind Kind) const { return peek().Kind == Kind; }
  bool consume(TokenKind Kind);
  /// Consumes \p Kind or reports "expected X in CONTEXT" and returns
  /// false (without consuming).
  bool expect(TokenKind Kind, const char *Context);
  SourceLoc loc() const { return peek().Loc; }
  /// Skips tokens until a likely statement/declaration boundary.
  void synchronize();

  //===--- Nesting depth -------------------------------------------------===//
  /// Bound on nested entries into the self-recursive productions
  /// (assignment and conditional expressions, cast and unary operands,
  /// statements, declarators, initializers, struct bodies), so deep
  /// input is a compile error instead of a stack overflow. A
  /// parenthesis level costs four entries and a nested block one, so
  /// about 255 parentheses or 1023 blocks nest: well above the 63 and
  /// 127 levels C11 5.2.4.1 requires.
  static constexpr unsigned kMaxNestingDepth = 1024;
  unsigned NestingDepth = 0;
  /// Thrown past the limit (after reporting it) and caught by
  /// parseTranslationUnit, which abandons the unit.
  struct NestingLimitExceeded {};
  /// Counts one nesting entry for its lifetime.
  class NestingScope {
  public:
    explicit NestingScope(Parser &P);
    ~NestingScope() { --P.NestingDepth; }
    NestingScope(const NestingScope &) = delete;
    NestingScope &operator=(const NestingScope &) = delete;

  private:
    Parser &P;
  };

  //===--- Scopes --------------------------------------------------------===//
  struct Scope {
    std::map<Symbol, VarDecl *> Vars;
    std::map<Symbol, QualType> Typedefs;
    std::map<Symbol, int64_t> EnumConsts;
    std::map<Symbol, Type *> Tags;
  };
  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  VarDecl *lookupVar(Symbol Name) const;
  const QualType *lookupTypedef(Symbol Name) const;
  const int64_t *lookupEnumConst(Symbol Name) const;
  Type *lookupTag(Symbol Name) const;

  //===--- Declarations (ParseDecl.cpp) ----------------------------------===//
  struct DeclSpec {
    QualType Base;
    StorageClass Storage = StorageClass::None;
    bool IsTypedef = false;
    SourceLoc Loc;
    bool Valid = false;
  };
  struct Declarator {
    Symbol Name = NoSymbol;
    QualType Ty;
    /// Parameter decls of the outermost function declarator, when the
    /// form is suitable for a function definition (name directly
    /// followed by a parameter list).
    std::vector<VarDecl *> Params;
    bool IsFunctionForm = false;
    SourceLoc Loc;
  };

  bool startsTypeName(const Token &Tok) const;
  bool startsDeclSpec(const Token &Tok) const;
  DeclSpec parseDeclSpecifiers();
  Declarator parseDeclarator(QualType Base, bool AllowAbstract);
  QualType parseTypeName(); ///< for casts, sizeof, and param decls
  const Type *parseRecordSpecifier(bool IsUnion);
  const Type *parseEnumSpecifier();
  Expr *parseInitializer();
  void parseExternalDeclaration();
  /// Parses a local declaration statement (after startsDeclSpec).
  Stmt *parseLocalDeclaration();
  /// Evaluates an integer constant expression; reports and returns
  /// \p Default on failure.
  int64_t parseConstIntExpr(const char *Context, int64_t Default);

  //===--- Expressions (ParseExpr.cpp) -----------------------------------===//
  Expr *parseExpr();
  Expr *parseAssign();
  Expr *parseCond();
  Expr *parseBinary(int MinPrec);
  Expr *parseCastExpr();
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();
  IntLitExpr *makeIntLit(SourceLoc Loc, uint64_t Value, const Type *Ty);

  //===--- Statements (ParseStmt.cpp) ------------------------------------===//
  Stmt *parseStmt();
  CompoundStmt *parseCompound();

  std::vector<Token> Toks;
  size_t Pos = 0;
  AstContext &Ctx;
  DiagnosticEngine &Diags;
  std::vector<Scope> Scopes;
  std::map<Symbol, FunctionDecl *> Functions;
};

} // namespace cundef

#endif // CUNDEF_PARSE_PARSER_H
