//===- tests/AstPrinter.h - AST dumping for tests --------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders AST nodes as indented S-expressions; used by parser tests and
/// debugging. The format is stable: tests match against it.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TESTS_ASTPRINTER_H
#define CUNDEF_TESTS_ASTPRINTER_H

#include "ast/Ast.h"
#include "static/Cfg.h"

#include <string>

namespace cundef {

/// Pretty-prints AST subtrees.
class AstPrinter {
public:
  explicit AstPrinter(const AstContext &Ctx) : Ctx(Ctx) {}

  std::string print(const Expr *E) const;
  std::string print(const FunctionDecl *F) const;

private:
  void printExpr(const Expr *E, std::string &Out, int Indent) const;
  void printStmt(const Stmt *S, std::string &Out, int Indent) const;

  const AstContext &Ctx;
};

/// Renders a control-flow graph's shape for golden tests:
///   B0: stmts=2 if -> B2 B3
///   B1: exit
///   B2: stmts=1 -> B1
/// Switch terminators print their labeled edges
/// (`switch -> B2(case 1) B3(default)`).
std::string dumpCfg(const Cfg &G, const StringInterner &Interner);

class CompiledProgram;

/// Renders everything a compile produced, by name (never by symbol
/// number): rendered diagnostics, static findings and may-hints, and,
/// when there is an AST, every function (AST dump, type, builtin id,
/// parameter and declaration-type lists) and global with their
/// declaration ids, and the next declaration id. Two compiles of one
/// unit that agree here produced the same artifact.
std::string dumpArtifact(const CompiledProgram &P);

} // namespace cundef

#endif // CUNDEF_TESTS_ASTPRINTER_H
