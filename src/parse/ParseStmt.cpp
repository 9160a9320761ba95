//===- parse/ParseStmt.cpp - Statement parsing -----------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"

#include "support/Strings.h"

using namespace cundef;

CompoundStmt *Parser::parseCompound() {
  SourceLoc Loc = loc();
  expect(TokenKind::LBrace, "compound statement");
  pushScope();
  std::vector<Stmt *> Body;
  while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
    if (startsDeclSpec(peek())) {
      // Disambiguate "T * x;" declarations from expressions beginning
      // with an identifier: startsDeclSpec already consults the typedef
      // table, so an identifier here is a type name.
      Body.push_back(parseLocalDeclaration());
      continue;
    }
    Body.push_back(parseStmt());
  }
  popScope();
  expect(TokenKind::RBrace, "compound statement");
  return Ctx.create<CompoundStmt>(Loc, std::move(Body));
}

Stmt *Parser::parseStmt() {
  NestingScope Nest(*this);
  SourceLoc Loc = loc();
  switch (peek().Kind) {
  case TokenKind::LBrace:
    return parseCompound();
  case TokenKind::Semi:
    take();
    return Ctx.create<ExprStmt>(Loc, nullptr);
  case TokenKind::KwIf: {
    take();
    expect(TokenKind::LParen, "if statement");
    Expr *Cond = parseExpr();
    expect(TokenKind::RParen, "if statement");
    Stmt *Then = parseStmt();
    Stmt *Else = nullptr;
    if (consume(TokenKind::KwElse))
      Else = parseStmt();
    return Ctx.create<IfStmt>(Loc, Cond, Then, Else);
  }
  case TokenKind::KwWhile: {
    take();
    expect(TokenKind::LParen, "while statement");
    Expr *Cond = parseExpr();
    expect(TokenKind::RParen, "while statement");
    Stmt *Body = parseStmt();
    return Ctx.create<WhileStmt>(Loc, Cond, Body);
  }
  case TokenKind::KwDo: {
    take();
    Stmt *Body = parseStmt();
    expect(TokenKind::KwWhile, "do statement");
    expect(TokenKind::LParen, "do statement");
    Expr *Cond = parseExpr();
    expect(TokenKind::RParen, "do statement");
    expect(TokenKind::Semi, "do statement");
    return Ctx.create<DoStmt>(Loc, Body, Cond);
  }
  case TokenKind::KwFor: {
    take();
    expect(TokenKind::LParen, "for statement");
    pushScope(); // C99 for-init declarations get their own scope
    Stmt *Init = nullptr;
    if (at(TokenKind::Semi)) {
      take();
    } else if (startsDeclSpec(peek())) {
      Init = parseLocalDeclaration();
    } else {
      Expr *E = parseExpr();
      Init = Ctx.create<ExprStmt>(E->Loc, E);
      expect(TokenKind::Semi, "for statement");
    }
    Expr *Cond = nullptr;
    if (!at(TokenKind::Semi))
      Cond = parseExpr();
    expect(TokenKind::Semi, "for statement");
    Expr *Inc = nullptr;
    if (!at(TokenKind::RParen))
      Inc = parseExpr();
    expect(TokenKind::RParen, "for statement");
    Stmt *Body = parseStmt();
    popScope();
    return Ctx.create<ForStmt>(Loc, Init, Cond, Inc, Body);
  }
  case TokenKind::KwSwitch: {
    take();
    expect(TokenKind::LParen, "switch statement");
    Expr *Cond = parseExpr();
    expect(TokenKind::RParen, "switch statement");
    Stmt *Body = parseStmt();
    return Ctx.create<SwitchStmt>(Loc, Cond, Body);
  }
  case TokenKind::KwCase: {
    take();
    Expr *Value = parseCond();
    expect(TokenKind::Colon, "case label");
    Stmt *Sub = parseStmt();
    return Ctx.create<CaseStmt>(Loc, Value, Sub);
  }
  case TokenKind::KwDefault: {
    take();
    expect(TokenKind::Colon, "default label");
    Stmt *Sub = parseStmt();
    return Ctx.create<DefaultStmt>(Loc, Sub);
  }
  case TokenKind::KwBreak:
    take();
    expect(TokenKind::Semi, "break statement");
    return Ctx.create<BreakStmt>(Loc);
  case TokenKind::KwContinue:
    take();
    expect(TokenKind::Semi, "continue statement");
    return Ctx.create<ContinueStmt>(Loc);
  case TokenKind::KwGoto: {
    take();
    if (!at(TokenKind::Identifier)) {
      Diags.error(loc(), "expected label name after 'goto'");
      synchronize();
      return Ctx.create<ExprStmt>(Loc, nullptr);
    }
    Symbol Label = take().Sym;
    expect(TokenKind::Semi, "goto statement");
    return Ctx.create<GotoStmt>(Loc, Label);
  }
  case TokenKind::KwReturn: {
    take();
    Expr *Value = nullptr;
    if (!at(TokenKind::Semi))
      Value = parseExpr();
    expect(TokenKind::Semi, "return statement");
    return Ctx.create<ReturnStmt>(Loc, Value);
  }
  case TokenKind::Identifier:
    // Label: "name: statement".
    if (peek(1).is(TokenKind::Colon)) {
      Symbol Name = take().Sym;
      take(); // :
      Stmt *Sub = parseStmt();
      return Ctx.create<LabelStmt>(Loc, Name, Sub);
    }
    [[fallthrough]];
  default: {
    Expr *E = parseExpr();
    expect(TokenKind::Semi, "expression statement");
    return Ctx.create<ExprStmt>(Loc, E);
  }
  }
}
