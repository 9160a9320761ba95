//===- parse/ParseExpr.cpp - Expression parsing ----------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"

#include "support/Strings.h"
#include "text/Numbers.h"

using namespace cundef;

IntLitExpr *Parser::makeIntLit(SourceLoc Loc, uint64_t Value,
                               const Type *Ty) {
  IntLitExpr *E = Ctx.create<IntLitExpr>(Loc, Value);
  E->Ty = QualType(Ty);
  return E;
}

Expr *Parser::parseExpr() {
  Expr *Lhs = parseAssign();
  while (at(TokenKind::Comma)) {
    SourceLoc Loc = take().Loc;
    Expr *Rhs = parseAssign();
    Lhs = Ctx.create<BinaryExpr>(Loc, BinaryOp::Comma, Lhs, Rhs);
  }
  return Lhs;
}

Expr *Parser::parseAssign() {
  NestingScope Nest(*this);
  Expr *Lhs = parseCond();
  AssignOp Op;
  switch (peek().Kind) {
  case TokenKind::Equal:               Op = AssignOp::Assign; break;
  case TokenKind::StarEqual:           Op = AssignOp::MulAssign; break;
  case TokenKind::SlashEqual:          Op = AssignOp::DivAssign; break;
  case TokenKind::PercentEqual:        Op = AssignOp::RemAssign; break;
  case TokenKind::PlusEqual:           Op = AssignOp::AddAssign; break;
  case TokenKind::MinusEqual:          Op = AssignOp::SubAssign; break;
  case TokenKind::LessLessEqual:       Op = AssignOp::ShlAssign; break;
  case TokenKind::GreaterGreaterEqual: Op = AssignOp::ShrAssign; break;
  case TokenKind::AmpEqual:            Op = AssignOp::AndAssign; break;
  case TokenKind::CaretEqual:          Op = AssignOp::XorAssign; break;
  case TokenKind::PipeEqual:           Op = AssignOp::OrAssign; break;
  default:
    return Lhs;
  }
  SourceLoc Loc = take().Loc;
  Expr *Rhs = parseAssign(); // right-associative
  return Ctx.create<AssignExpr>(Loc, Op, Lhs, Rhs);
}

Expr *Parser::parseCond() {
  NestingScope Nest(*this);
  Expr *Cond = parseBinary(0);
  if (!at(TokenKind::Question))
    return Cond;
  SourceLoc Loc = take().Loc;
  Expr *Then = parseExpr();
  expect(TokenKind::Colon, "conditional expression");
  Expr *Else = parseCond();
  return Ctx.create<CondExpr>(Loc, Cond, Then, Else);
}

namespace {
struct BinOpInfo {
  BinaryOp Op;
  int Prec;
};
} // namespace

static bool binOpInfoFor(TokenKind Kind, BinOpInfo &Info) {
  switch (Kind) {
  case TokenKind::PipePipe:       Info = {BinaryOp::LogOr, 1}; return true;
  case TokenKind::AmpAmp:         Info = {BinaryOp::LogAnd, 2}; return true;
  case TokenKind::Pipe:           Info = {BinaryOp::BitOr, 3}; return true;
  case TokenKind::Caret:          Info = {BinaryOp::BitXor, 4}; return true;
  case TokenKind::Amp:            Info = {BinaryOp::BitAnd, 5}; return true;
  case TokenKind::EqualEqual:     Info = {BinaryOp::Eq, 6}; return true;
  case TokenKind::BangEqual:      Info = {BinaryOp::Ne, 6}; return true;
  case TokenKind::Less:           Info = {BinaryOp::Lt, 7}; return true;
  case TokenKind::Greater:        Info = {BinaryOp::Gt, 7}; return true;
  case TokenKind::LessEqual:      Info = {BinaryOp::Le, 7}; return true;
  case TokenKind::GreaterEqual:   Info = {BinaryOp::Ge, 7}; return true;
  case TokenKind::LessLess:       Info = {BinaryOp::Shl, 8}; return true;
  case TokenKind::GreaterGreater: Info = {BinaryOp::Shr, 8}; return true;
  case TokenKind::Plus:           Info = {BinaryOp::Add, 9}; return true;
  case TokenKind::Minus:          Info = {BinaryOp::Sub, 9}; return true;
  case TokenKind::Star:           Info = {BinaryOp::Mul, 10}; return true;
  case TokenKind::Slash:          Info = {BinaryOp::Div, 10}; return true;
  case TokenKind::Percent:        Info = {BinaryOp::Rem, 10}; return true;
  default:
    return false;
  }
}

Expr *Parser::parseBinary(int MinPrec) {
  Expr *Lhs = parseCastExpr();
  while (true) {
    BinOpInfo Info;
    if (!binOpInfoFor(peek().Kind, Info) || Info.Prec < MinPrec)
      return Lhs;
    SourceLoc Loc = take().Loc;
    Expr *Rhs = parseBinary(Info.Prec + 1);
    Lhs = Ctx.create<BinaryExpr>(Loc, Info.Op, Lhs, Rhs);
  }
}

Expr *Parser::parseCastExpr() {
  NestingScope Nest(*this);
  // "( type-name )" followed by a cast-expression.
  if (at(TokenKind::LParen) && startsTypeName(peek(1))) {
    SourceLoc Loc = take().Loc; // (
    QualType Ty = parseTypeName();
    expect(TokenKind::RParen, "cast");
    Expr *Sub = parseCastExpr();
    return Ctx.create<CastExpr>(Loc, Ty, Sub);
  }
  return parseUnary();
}

Expr *Parser::parseUnary() {
  NestingScope Nest(*this);
  SourceLoc Loc = loc();
  switch (peek().Kind) {
  case TokenKind::PlusPlus: {
    take();
    Expr *Sub = parseUnary();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::PreInc, Sub);
  }
  case TokenKind::MinusMinus: {
    take();
    Expr *Sub = parseUnary();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::PreDec, Sub);
  }
  case TokenKind::Amp: {
    take();
    Expr *Sub = parseCastExpr();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::AddrOf, Sub);
  }
  case TokenKind::Star: {
    take();
    Expr *Sub = parseCastExpr();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Deref, Sub);
  }
  case TokenKind::Plus: {
    take();
    Expr *Sub = parseCastExpr();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Plus, Sub);
  }
  case TokenKind::Minus: {
    take();
    Expr *Sub = parseCastExpr();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Minus, Sub);
  }
  case TokenKind::Tilde: {
    take();
    Expr *Sub = parseCastExpr();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::BitNot, Sub);
  }
  case TokenKind::Bang: {
    take();
    Expr *Sub = parseCastExpr();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::LogNot, Sub);
  }
  case TokenKind::KwSizeof: {
    take();
    if (at(TokenKind::LParen) && startsTypeName(peek(1))) {
      take(); // (
      QualType Ty = parseTypeName();
      expect(TokenKind::RParen, "sizeof");
      return Ctx.create<SizeofExpr>(Loc, Ty);
    }
    Expr *Sub = parseUnary();
    return Ctx.create<SizeofExpr>(Loc, Sub);
  }
  default:
    return parsePostfix();
  }
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  while (true) {
    SourceLoc Loc = loc();
    switch (peek().Kind) {
    case TokenKind::LBracket: {
      take();
      Expr *Index = parseExpr();
      expect(TokenKind::RBracket, "array subscript");
      E = Ctx.create<IndexExpr>(Loc, E, Index);
      break;
    }
    case TokenKind::LParen: {
      take();
      std::vector<Expr *> Args;
      if (!at(TokenKind::RParen)) {
        do {
          Args.push_back(parseAssign());
        } while (consume(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "function call");
      E = Ctx.create<CallExpr>(Loc, E, std::move(Args));
      break;
    }
    case TokenKind::Period: {
      take();
      if (!at(TokenKind::Identifier)) {
        Diags.error(loc(), "expected member name after '.'");
        return E;
      }
      Symbol Member = take().Sym;
      E = Ctx.create<MemberExpr>(Loc, E, Member, /*IsArrow=*/false);
      break;
    }
    case TokenKind::Arrow: {
      take();
      if (!at(TokenKind::Identifier)) {
        Diags.error(loc(), "expected member name after '->'");
        return E;
      }
      Symbol Member = take().Sym;
      E = Ctx.create<MemberExpr>(Loc, E, Member, /*IsArrow=*/true);
      break;
    }
    case TokenKind::PlusPlus:
      take();
      E = Ctx.create<UnaryExpr>(Loc, UnaryOp::PostInc, E);
      break;
    case TokenKind::MinusMinus:
      take();
      E = Ctx.create<UnaryExpr>(Loc, UnaryOp::PostDec, E);
      break;
    default:
      return E;
    }
  }
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = loc();
  switch (peek().Kind) {
  case TokenKind::IntLiteral: {
    const Token &Tok = take();
    DecodedInt D = decodeIntLiteral(Tok.Text);
    if (!D.Valid || D.Overflowed)
      Diags.error(Loc, strFormat("invalid integer constant '%s'",
                                 Tok.Text.c_str()));
    // Type per C11 6.4.4.1p5: smallest fitting type from the list
    // determined by suffix and radix.
    const TypeContext &Types = Ctx.Types;
    bool AllowUnsigned = D.Unsigned || D.Radix != 10;
    const Type *Candidates[6];
    size_t N = 0;
    if (!D.Unsigned && D.LongCount == 0)
      Candidates[N++] = Types.intTy();
    if (AllowUnsigned && D.LongCount == 0)
      Candidates[N++] = Types.uintTy();
    if (!D.Unsigned && D.LongCount <= 1)
      Candidates[N++] = Types.longTy();
    if (AllowUnsigned && D.LongCount <= 1)
      Candidates[N++] = Types.ulongTy();
    if (!D.Unsigned)
      Candidates[N++] = Types.longLongTy();
    Candidates[N++] = Types.ulongLongTy();
    const Type *Ty = Candidates[N - 1];
    for (size_t I = 0; I < N; ++I) {
      const Type *Candidate = Candidates[I];
      if (Candidate->isUnsignedInteger(Types.config())
              ? D.Value <= Types.maxValueOf(Candidate)
              : D.Value <= static_cast<uint64_t>(
                               Types.maxValueOf(Candidate))) {
        Ty = Candidate;
        break;
      }
    }
    return makeIntLit(Loc, D.Value, Ty);
  }
  case TokenKind::CharLiteral: {
    const Token &Tok = take();
    DecodedInt D = decodeIntLiteral(Tok.Text);
    // Character constants have type int (C11 6.4.4.4p10).
    return makeIntLit(Loc, D.Value, Ctx.Types.intTy());
  }
  case TokenKind::FloatLiteral: {
    const Token &Tok = take();
    DecodedFloat D = decodeFloatLiteral(Tok.Text);
    if (!D.Valid)
      Diags.error(Loc, strFormat("invalid floating constant '%s'",
                                 Tok.Text.c_str()));
    FloatLitExpr *E = Ctx.create<FloatLitExpr>(Loc, D.Value);
    E->Ty = QualType(D.IsFloat ? Ctx.Types.floatTy() : Ctx.Types.doubleTy());
    return E;
  }
  case TokenKind::StringLiteral: {
    const Token &Tok = take();
    std::string Bytes = Tok.Text;
    // Adjacent string literals concatenate (C11 6.4.5p5).
    while (at(TokenKind::StringLiteral))
      Bytes += take().Text;
    StringLitExpr *E = Ctx.create<StringLitExpr>(Loc, std::move(Bytes));
    // Type: char[N+1] (the array-ness matters for sizeof and decay).
    E->Ty = QualType(Ctx.Types.getArray(QualType(Ctx.Types.charTy()),
                                        E->Bytes.size() + 1,
                                        /*SizeKnown=*/true));
    E->Cat = ValueCat::LValue;
    return E;
  }
  case TokenKind::Identifier: {
    const Token &Tok = take();
    if (const int64_t *EnumVal = lookupEnumConst(Tok.Sym))
      return makeIntLit(Loc, static_cast<uint64_t>(*EnumVal),
                        Ctx.Types.intTy());
    DeclRefExpr *Ref = Ctx.create<DeclRefExpr>(Loc, Tok.Sym);
    if (VarDecl *Var = lookupVar(Tok.Sym)) {
      Ref->Var = Var;
    } else if (FunctionDecl *Fn = lookupFunction(Tok.Sym)) {
      Ref->Fn = Fn;
      if (Base && !Functions.count(Tok.Sym))
        BaseRefs.push_back(Ref);
    } else {
      Diags.error(Loc, strFormat("use of undeclared identifier '%s'",
                                 Ctx.Interner.str(Tok.Sym).c_str()));
    }
    return Ref;
  }
  case TokenKind::LParen: {
    take();
    Expr *E = parseExpr();
    expect(TokenKind::RParen, "parenthesized expression");
    return E;
  }
  default:
    Diags.error(Loc, strFormat("expected expression, found %s",
                               tokenKindName(peek().Kind)));
    take();
    return makeIntLit(Loc, 0, Ctx.Types.intTy());
  }
}
