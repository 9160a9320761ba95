//===- parse/Parser.cpp - C parser core ------------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"

#include "support/Strings.h"

#include <algorithm>
#include <iterator>

using namespace cundef;

Parser::Parser(std::vector<Token> Toks, AstContext &Ctx,
               DiagnosticEngine &Diags, const ParserState *Base)
    : Toks(std::move(Toks)), Ctx(Ctx), Diags(Diags), Base(Base) {
  assert(!this->Toks.empty() && this->Toks.back().is(TokenKind::Eof) &&
         "token stream must be Eof-terminated");
  pushScope(); // file scope
}

const Token &Parser::peek(int Ahead) const {
  size_t Idx = Pos + static_cast<size_t>(Ahead);
  if (Idx >= Toks.size())
    Idx = Toks.size() - 1; // Eof
  return Toks[Idx];
}

const Token &Parser::take() {
  const Token &T = peek();
  if (Pos + 1 < Toks.size())
    ++Pos;
  return T;
}

bool Parser::consume(TokenKind Kind) {
  if (!at(Kind))
    return false;
  take();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (consume(Kind))
    return true;
  Diags.error(loc(), strFormat("expected %s in %s, found %s",
                               tokenKindName(Kind), Context,
                               tokenKindName(peek().Kind)));
  return false;
}

void Parser::synchronize() {
  int Depth = 0;
  while (!at(TokenKind::Eof)) {
    if (at(TokenKind::LBrace)) {
      ++Depth;
    } else if (at(TokenKind::RBrace)) {
      if (Depth == 0) {
        return; // let the caller consume it
      }
      --Depth;
    } else if (at(TokenKind::Semi) && Depth == 0) {
      take();
      return;
    }
    take();
  }
}

Parser::NestingScope::NestingScope(Parser &P) : P(P) {
  if (P.NestingDepth == kMaxNestingDepth) {
    P.Diags.error(P.loc(), strFormat("nesting exceeds the parser's depth "
                                     "limit of %u",
                                     kMaxNestingDepth));
    throw NestingLimitExceeded{};
  }
  ++P.NestingDepth;
}

VarDecl *Parser::lookupVar(Symbol Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->Vars.find(Name);
    if (Found != It->Vars.end())
      return Found->second;
  }
  return nullptr;
}

const QualType *Parser::lookupTypedef(Symbol Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->Typedefs.find(Name);
    if (Found != It->Typedefs.end())
      return &Found->second;
    if (Base && std::next(It) == Scopes.rend()) {
      auto InBase = Base->Typedefs.find(Name);
      if (InBase != Base->Typedefs.end())
        return &InBase->second;
    }
    // A variable shadowing the name hides the typedef.
    if (It->Vars.count(Name) || It->EnumConsts.count(Name))
      return nullptr;
  }
  return nullptr;
}

const int64_t *Parser::lookupEnumConst(Symbol Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->EnumConsts.find(Name);
    if (Found != It->EnumConsts.end())
      return &Found->second;
    if (It->Vars.count(Name))
      return nullptr;
  }
  return nullptr;
}

Type *Parser::lookupTag(Symbol Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->Tags.find(Name);
    if (Found != It->Tags.end())
      return Found->second;
  }
  return nullptr;
}

FunctionDecl *Parser::lookupFunction(Symbol Name) const {
  auto It = Functions.find(Name);
  if (It != Functions.end())
    return It->second;
  if (Base) {
    auto InBase = Base->Functions.find(Name);
    if (InBase != Base->Functions.end())
      return InBase->second;
  }
  return nullptr;
}

FunctionDecl *&Parser::functionSlot(Symbol Name) {
  FunctionDecl *&Slot = Functions[Name];
  if (Slot || !Base)
    return Slot;
  auto InBase = Base->Functions.find(Name);
  if (InBase == Base->Functions.end())
    return Slot;
  // Copy on write: the clone takes the shared declaration's place, and
  // assignBuiltinIds decides its builtin id again.
  FunctionDecl *Shared = InBase->second;
  FunctionDecl *Clone = Ctx.create<FunctionDecl>();
  Clone->Name = Shared->Name;
  Clone->FnTy = Shared->FnTy;
  Clone->Params = Shared->Params;
  Clone->Body = Shared->Body;
  Clone->Loc = Shared->Loc;
  Clone->AllDeclTypes = Shared->AllDeclTypes;
  Clone->DeclQuals = Shared->DeclQuals;
  std::replace(Ctx.TU.Functions.begin(), Ctx.TU.Functions.end(), Shared,
               Clone);
  ClonedBase = true;
  return Slot = Clone;
}

bool Parser::parseTranslationUnit() {
  try {
    while (!at(TokenKind::Eof))
      parseExternalDeclaration();
  } catch (const NestingLimitExceeded &) {
    // Reported where it was detected; the unit is abandoned.
  }
  if (ClonedBase)
    for (DeclRefExpr *Ref : BaseRefs)
      Ref->Fn = lookupFunction(Ref->Fn->Name);
  return !Diags.hasErrors();
}

ParserState Parser::takeState() {
  ParserState State;
  State.Typedefs = std::move(Scopes.front().Typedefs);
  State.Functions = std::move(Functions);
  return State;
}
