//===- parse/ParseDecl.cpp - Declaration parsing ---------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"

#include "sema/ConstEval.h"
#include "support/Strings.h"

using namespace cundef;

bool Parser::startsTypeName(const Token &Tok) const {
  switch (Tok.Kind) {
  case TokenKind::KwVoid:
  case TokenKind::KwBool:
  case TokenKind::KwChar:
  case TokenKind::KwShort:
  case TokenKind::KwInt:
  case TokenKind::KwLong:
  case TokenKind::KwFloat:
  case TokenKind::KwDouble:
  case TokenKind::KwSigned:
  case TokenKind::KwUnsigned:
  case TokenKind::KwStruct:
  case TokenKind::KwUnion:
  case TokenKind::KwEnum:
  case TokenKind::KwConst:
  case TokenKind::KwVolatile:
  case TokenKind::KwRestrict:
    return true;
  case TokenKind::Identifier:
    return lookupTypedef(Tok.Sym) != nullptr;
  default:
    return false;
  }
}

bool Parser::startsDeclSpec(const Token &Tok) const {
  switch (Tok.Kind) {
  case TokenKind::KwTypedef:
  case TokenKind::KwExtern:
  case TokenKind::KwStatic:
  case TokenKind::KwRegister:
  case TokenKind::KwInline:
    return true;
  default:
    return startsTypeName(Tok);
  }
}

Parser::DeclSpec Parser::parseDeclSpecifiers() {
  DeclSpec Spec;
  Spec.Loc = loc();

  // Accumulated base-type words.
  enum BaseKind { None, Void, Bool, Char, Int, Float, Double, Tagged };
  BaseKind Base = None;
  int LongCount = 0;
  int Signedness = 0; // -1 signed, +1 unsigned
  bool SawShort = false;
  uint8_t Quals = QualNone;
  const Type *TaggedTy = nullptr;
  bool Progress = true;

  while (Progress) {
    Progress = true;
    switch (peek().Kind) {
    case TokenKind::KwTypedef:
      Spec.IsTypedef = true;
      take();
      break;
    case TokenKind::KwExtern:
      Spec.Storage = StorageClass::Extern;
      take();
      break;
    case TokenKind::KwStatic:
      Spec.Storage = StorageClass::Static;
      take();
      break;
    case TokenKind::KwRegister:
    case TokenKind::KwInline:
      take(); // accepted, no semantic effect in our subset
      break;
    case TokenKind::KwConst:
      Quals |= QualConst;
      take();
      break;
    case TokenKind::KwVolatile:
      Quals |= QualVolatile;
      take();
      break;
    case TokenKind::KwRestrict:
      Quals |= QualRestrict;
      take();
      break;
    case TokenKind::KwVoid:
      Base = Void;
      take();
      break;
    case TokenKind::KwBool:
      Base = Bool;
      take();
      break;
    case TokenKind::KwChar:
      Base = Char;
      take();
      break;
    case TokenKind::KwShort:
      SawShort = true;
      if (Base == None)
        Base = Int;
      take();
      break;
    case TokenKind::KwInt:
      if (Base == None || Base == Int)
        Base = Int;
      take();
      break;
    case TokenKind::KwLong:
      ++LongCount;
      if (Base == None)
        Base = Int;
      take();
      break;
    case TokenKind::KwFloat:
      Base = Float;
      take();
      break;
    case TokenKind::KwDouble:
      Base = Double;
      take();
      break;
    case TokenKind::KwSigned:
      Signedness = -1;
      if (Base == None)
        Base = Int;
      take();
      break;
    case TokenKind::KwUnsigned:
      Signedness = 1;
      if (Base == None)
        Base = Int;
      take();
      break;
    case TokenKind::KwStruct:
    case TokenKind::KwUnion: {
      bool IsUnion = take().Kind == TokenKind::KwUnion;
      TaggedTy = parseRecordSpecifier(IsUnion);
      Base = Tagged;
      break;
    }
    case TokenKind::KwEnum:
      take();
      TaggedTy = parseEnumSpecifier();
      Base = Tagged;
      break;
    case TokenKind::Identifier: {
      // A typedef name is a type specifier only if no base was seen yet.
      if (Base != None || SawShort || LongCount || Signedness) {
        Progress = false;
        break;
      }
      const QualType *Ty = lookupTypedef(peek().Sym);
      if (!Ty) {
        Progress = false;
        break;
      }
      take();
      Spec.Base = Ty->withQuals(Quals);
      Spec.Valid = true;
      // Trailing qualifiers may still follow (e.g. "mytype const x").
      while (true) {
        if (consume(TokenKind::KwConst))
          Spec.Base = Spec.Base.withConst();
        else if (consume(TokenKind::KwVolatile))
          Spec.Base = Spec.Base.withQuals(QualVolatile);
        else if (consume(TokenKind::KwRestrict))
          Spec.Base = Spec.Base.withQuals(QualRestrict);
        else
          break;
      }
      return Spec;
    }
    default:
      Progress = false;
      break;
    }
  }

  TypeContext &Types = Ctx.Types;
  const Type *Ty = nullptr;
  switch (Base) {
  case None:
    Diags.error(Spec.Loc, "expected type specifier");
    Spec.Valid = false;
    Spec.Base = QualType(Types.intTy(), Quals);
    return Spec;
  case Void:
    Ty = Types.voidTy();
    break;
  case Bool:
    Ty = Types.boolTy();
    break;
  case Char:
    Ty = Signedness == 0   ? Types.charTy()
         : Signedness == 1 ? Types.ucharTy()
                           : Types.scharTy();
    break;
  case Int:
    if (SawShort)
      Ty = Signedness == 1 ? Types.ushortTy() : Types.shortTy();
    else if (LongCount >= 2)
      Ty = Signedness == 1 ? Types.ulongLongTy() : Types.longLongTy();
    else if (LongCount == 1)
      Ty = Signedness == 1 ? Types.ulongTy() : Types.longTy();
    else
      Ty = Signedness == 1 ? Types.uintTy() : Types.intTy();
    break;
  case Float:
    Ty = Types.floatTy();
    break;
  case Double:
    Ty = Types.doubleTy(); // "long double" treated as double
    break;
  case Tagged:
    Ty = TaggedTy;
    break;
  }
  Spec.Base = QualType(Ty, Quals);
  Spec.Valid = Ty != nullptr;
  return Spec;
}

const Type *Parser::parseRecordSpecifier(bool IsUnion) {
  NestingScope Nest(*this);
  SourceLoc Loc = loc();
  Symbol Tag = NoSymbol;
  if (at(TokenKind::Identifier))
    Tag = take().Sym;

  Type *RecordTy = nullptr;
  if (Tag != NoSymbol) {
    if (Type *Existing = lookupTag(Tag)) {
      bool KindMatches = Existing->isRecord() &&
                         (Existing->Kind == TypeKind::Union) == IsUnion;
      if (!KindMatches)
        Diags.error(Loc, "tag redeclared as a different kind of type");
      else
        RecordTy = Existing;
    }
  }
  bool DefinedHere = at(TokenKind::LBrace);
  if (!RecordTy || (DefinedHere && RecordTy->Record->Complete)) {
    RecordTy = Ctx.Types.createRecord(IsUnion, Tag);
    if (Tag != NoSymbol)
      Scopes.back().Tags[Tag] = RecordTy;
  }
  if (!DefinedHere)
    return RecordTy;

  take(); // {
  std::vector<FieldInfo> Fields;
  while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
    DeclSpec Spec = parseDeclSpecifiers();
    if (!Spec.Valid) {
      synchronize();
      continue;
    }
    do {
      Declarator D = parseDeclarator(Spec.Base, /*AllowAbstract=*/false);
      if (D.Name == NoSymbol) {
        Diags.error(D.Loc, "expected member name");
        break;
      }
      if (!D.Ty.Ty->isCompleteObjectType())
        Diags.error(D.Loc, "member has incomplete type");
      FieldInfo Field;
      Field.Name = D.Name;
      Field.Ty = D.Ty;
      Fields.push_back(Field);
    } while (consume(TokenKind::Comma));
    expect(TokenKind::Semi, "member declaration");
  }
  expect(TokenKind::RBrace, "struct/union body");
  Ctx.Types.completeRecord(RecordTy, std::move(Fields));
  return RecordTy;
}

const Type *Parser::parseEnumSpecifier() {
  SourceLoc Loc = loc();
  Symbol Tag = NoSymbol;
  if (at(TokenKind::Identifier))
    Tag = take().Sym;

  Type *EnumTy = nullptr;
  if (Tag != NoSymbol) {
    if (Type *Existing = lookupTag(Tag)) {
      if (!Existing->isEnum())
        Diags.error(Loc, "tag redeclared as a different kind of type");
      else
        EnumTy = Existing;
    }
  }
  if (!EnumTy) {
    EnumTy = Ctx.Types.createEnum(Tag);
    if (Tag != NoSymbol)
      Scopes.back().Tags[Tag] = EnumTy;
  }
  if (!at(TokenKind::LBrace))
    return EnumTy;

  take(); // {
  int64_t NextValue = 0;
  while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
    if (!at(TokenKind::Identifier)) {
      Diags.error(loc(), "expected enumerator name");
      synchronize();
      break;
    }
    const Token &Name = take();
    int64_t Value = NextValue;
    if (consume(TokenKind::Equal))
      Value = parseConstIntExpr("enumerator value", NextValue);
    Scopes.back().EnumConsts[Name.Sym] = Value;
    NextValue = Value + 1;
    if (!consume(TokenKind::Comma))
      break;
  }
  expect(TokenKind::RBrace, "enum body");
  EnumTy->Enum->Complete = true;
  return EnumTy;
}

int64_t Parser::parseConstIntExpr(const char *Context, int64_t Default) {
  SourceLoc Loc = loc();
  Expr *E = parseCond();
  auto Value = constEvalInt(E, Ctx.Types);
  if (!Value) {
    Diags.error(Loc, strFormat("expected integer constant expression in %s",
                               Context));
    return Default;
  }
  return *Value;
}

namespace {
/// One parsed declarator suffix: either an array extent or a function
/// parameter list.
struct DeclSuffix {
  bool IsFunction = false;
  // Array.
  uint64_t ArraySize = 0;
  bool ArraySizeKnown = false;
  // Function.
  std::vector<QualType> ParamTypes;
  std::vector<cundef::VarDecl *> Params;
  bool Variadic = false;
  bool NoProto = false;
};
} // namespace

Parser::Declarator Parser::parseDeclarator(QualType Base,
                                           bool AllowAbstract) {
  NestingScope Nest(*this);
  Declarator Result;
  Result.Loc = loc();

  // Pointer prefix: each '*' (with optional qualifiers) wraps the base.
  QualType Ty = Base;
  while (at(TokenKind::Star)) {
    take();
    uint8_t Quals = QualNone;
    while (true) {
      if (consume(TokenKind::KwConst))
        Quals |= QualConst;
      else if (consume(TokenKind::KwVolatile))
        Quals |= QualVolatile;
      else if (consume(TokenKind::KwRestrict))
        Quals |= QualRestrict;
      else
        break;
    }
    Ty = QualType(Ctx.Types.getPointer(Ty), Quals);
  }

  // Direct declarator: name, parenthesized declarator, or omitted
  // (abstract). A '(' is a nested declarator only if it cannot start a
  // parameter list.
  size_t NestedStart = 0;
  bool HasNested = false;
  if (at(TokenKind::LParen) &&
      !(startsTypeName(peek(1)) || peek(1).is(TokenKind::RParen))) {
    // Defer: remember position, skip balanced parens, parse suffixes,
    // then re-parse the nested declarator with the composed base type.
    HasNested = true;
    NestedStart = Pos;
    int Depth = 0;
    while (!at(TokenKind::Eof)) {
      if (at(TokenKind::LParen))
        ++Depth;
      else if (at(TokenKind::RParen)) {
        --Depth;
        if (Depth == 0) {
          take();
          break;
        }
      }
      take();
    }
  } else if (at(TokenKind::Identifier)) {
    Result.Name = take().Sym;
  } else if (!AllowAbstract) {
    Diags.error(loc(), "expected declarator name");
  }

  // Suffixes (left to right in source; applied right to left to type).
  std::vector<DeclSuffix> Suffixes;
  while (at(TokenKind::LBracket) || at(TokenKind::LParen)) {
    DeclSuffix Suffix;
    if (consume(TokenKind::LBracket)) {
      if (at(TokenKind::RBracket)) {
        Suffix.ArraySizeKnown = false;
      } else {
        int64_t Size = parseConstIntExpr("array size", 1);
        // Zero or negative array sizes are constraint violations the
        // static checker reports (paper section 3.2 uses exactly this
        // example); the type is recorded as written so the checker can
        // see it.
        Suffix.ArraySize = static_cast<uint64_t>(Size);
        Suffix.ArraySizeKnown = true;
      }
      expect(TokenKind::RBracket, "array declarator");
    } else {
      take(); // (
      Suffix.IsFunction = true;
      if (at(TokenKind::RParen)) {
        Suffix.NoProto = true; // f() — unspecified parameters
      } else if (at(TokenKind::KwVoid) && peek(1).is(TokenKind::RParen)) {
        take(); // void — prototype with no parameters
      } else {
        while (true) {
          if (consume(TokenKind::Ellipsis)) {
            Suffix.Variadic = true;
            break;
          }
          DeclSpec ParamSpec = parseDeclSpecifiers();
          if (!ParamSpec.Valid) {
            synchronize();
            break;
          }
          Declarator ParamD =
              parseDeclarator(ParamSpec.Base, /*AllowAbstract=*/true);
          // Parameter type adjustment (C11 6.7.6.3p7-8).
          QualType PTy = ParamD.Ty;
          if (PTy.Ty->isArray())
            PTy = QualType(Ctx.Types.getPointer(PTy.Ty->Pointee));
          else if (PTy.Ty->isFunction())
            PTy = QualType(Ctx.Types.getPointer(PTy));
          Suffix.ParamTypes.push_back(PTy);
          VarDecl *Param = Ctx.create<VarDecl>();
          Param->Name = ParamD.Name;
          Param->Ty = PTy;
          Param->IsParam = true;
          Param->Loc = ParamD.Loc;
          Param->DeclId = Ctx.NextDeclId++;
          Suffix.Params.push_back(Param);
          if (!consume(TokenKind::Comma))
            break;
        }
      }
      expect(TokenKind::RParen, "parameter list");
    }
    Suffixes.push_back(std::move(Suffix));
  }

  // The declarator is function-form when a name is directly followed by
  // a parameter list (candidate for a function definition).
  if (!HasNested && Result.Name != NoSymbol && !Suffixes.empty() &&
      Suffixes.front().IsFunction) {
    Result.IsFunctionForm = true;
    Result.Params = Suffixes.front().Params;
  }

  // Apply suffixes right-to-left around the pointered base.
  for (size_t I = Suffixes.size(); I-- > 0;) {
    DeclSuffix &Suffix = Suffixes[I];
    if (Suffix.IsFunction) {
      Ty = QualType(Ctx.Types.getFunction(Ty, std::move(Suffix.ParamTypes),
                                          Suffix.Variadic, Suffix.NoProto));
    } else {
      Ty = QualType(
          Ctx.Types.getArray(Ty, Suffix.ArraySize, Suffix.ArraySizeKnown),
          Ty.Quals);
    }
  }

  if (HasNested) {
    // Re-parse the nested declarator against the composed type.
    size_t SavedPos = Pos;
    Pos = NestedStart;
    take(); // (
    Declarator Nested = parseDeclarator(Ty, AllowAbstract);
    expect(TokenKind::RParen, "parenthesized declarator");
    Pos = SavedPos;
    Result.Name = Nested.Name;
    Result.Ty = Nested.Ty;
    if (Nested.IsFunctionForm && Result.Params.empty()) {
      Result.IsFunctionForm = true;
      Result.Params = Nested.Params;
    }
    return Result;
  }

  Result.Ty = Ty;
  return Result;
}

QualType Parser::parseTypeName() {
  DeclSpec Spec = parseDeclSpecifiers();
  Declarator D = parseDeclarator(Spec.Base, /*AllowAbstract=*/true);
  if (D.Name != NoSymbol)
    Diags.error(D.Loc, "type name must not declare an identifier");
  return D.Ty;
}

Expr *Parser::parseInitializer() {
  NestingScope Nest(*this);
  if (!at(TokenKind::LBrace))
    return parseAssign();
  SourceLoc Loc = take().Loc; // {
  std::vector<Expr *> Inits;
  if (!at(TokenKind::RBrace)) {
    do {
      if (at(TokenKind::RBrace))
        break; // trailing comma
      Inits.push_back(parseInitializer());
    } while (consume(TokenKind::Comma));
  }
  expect(TokenKind::RBrace, "initializer list");
  return Ctx.create<InitListExpr>(Loc, std::move(Inits));
}

void Parser::parseExternalDeclaration() {
  if (consume(TokenKind::Semi))
    return; // stray semicolon at file scope
  DeclSpec Spec = parseDeclSpecifiers();
  if (!Spec.Valid) {
    synchronize();
    return;
  }
  // Tag-only declaration: "struct S { ... };"
  if (at(TokenKind::Semi)) {
    take();
    return;
  }

  bool First = true;
  do {
    Declarator D = parseDeclarator(Spec.Base, /*AllowAbstract=*/false);
    if (D.Name == NoSymbol) {
      synchronize();
      return;
    }
    if (Spec.IsTypedef) {
      Scopes.back().Typedefs[D.Name] = D.Ty;
      First = false;
      continue;
    }
    if (D.Ty.Ty->isFunction()) {
      // Function declaration or definition.
      FunctionDecl *&Fn = Functions[D.Name];
      if (!Fn) {
        Fn = Ctx.create<FunctionDecl>();
        Fn->Name = D.Name;
        Fn->FnTy = D.Ty.Ty;
        Fn->Loc = D.Loc;
        Ctx.TU.Functions.push_back(Fn);
      }
      Fn->AllDeclTypes.push_back(D.Ty.Ty);
      Fn->DeclQuals |= D.Ty.Quals;
      if (First && at(TokenKind::LBrace)) {
        if (Fn->Body)
          Diags.error(D.Loc, "function redefined");
        Fn->FnTy = D.Ty.Ty; // definition's signature wins
        Fn->Params = D.Params;
        pushScope();
        for (VarDecl *Param : Fn->Params)
          if (Param->Name != NoSymbol)
            Scopes.back().Vars[Param->Name] = Param;
        Fn->Body = parseCompound();
        popScope();
        return;
      }
      First = false;
      continue;
    }
    // Global variable.
    VarDecl *Var = Ctx.create<VarDecl>();
    Var->Name = D.Name;
    Var->Ty = D.Ty;
    Var->Storage = Spec.Storage;
    Var->IsGlobal = true;
    Var->Loc = D.Loc;
    Var->DeclId = Ctx.NextDeclId++;
    // The name is in scope within its own initializer (C11 6.2.1p7).
    Scopes.back().Vars[D.Name] = Var;
    if (consume(TokenKind::Equal))
      Var->Init = parseInitializer();
    Ctx.TU.Globals.push_back(Var);
    First = false;
  } while (consume(TokenKind::Comma));
  expect(TokenKind::Semi, "declaration");
}

Stmt *Parser::parseLocalDeclaration() {
  SourceLoc Loc = loc();
  DeclSpec Spec = parseDeclSpecifiers();
  if (!Spec.Valid) {
    synchronize();
    return Ctx.create<ExprStmt>(Loc, nullptr);
  }
  std::vector<VarDecl *> Decls;
  if (!at(TokenKind::Semi)) {
    do {
      Declarator D = parseDeclarator(Spec.Base, /*AllowAbstract=*/false);
      if (D.Name == NoSymbol) {
        synchronize();
        break;
      }
      if (Spec.IsTypedef) {
        Scopes.back().Typedefs[D.Name] = D.Ty;
        continue;
      }
      if (D.Ty.Ty->isFunction()) {
        // Local function declaration ("extern" implied).
        FunctionDecl *&Fn = Functions[D.Name];
        if (!Fn) {
          Fn = Ctx.create<FunctionDecl>();
          Fn->Name = D.Name;
          Fn->FnTy = D.Ty.Ty;
          Fn->Loc = D.Loc;
          Ctx.TU.Functions.push_back(Fn);
        }
        Fn->AllDeclTypes.push_back(D.Ty.Ty);
        Fn->DeclQuals |= D.Ty.Quals;
        continue;
      }
      VarDecl *Var = Ctx.create<VarDecl>();
      Var->Name = D.Name;
      Var->Ty = D.Ty;
      Var->Storage = Spec.Storage;
      Var->Loc = D.Loc;
      Var->DeclId = Ctx.NextDeclId++;
      // The name is in scope within its own initializer (C11 6.2.1p7).
      Scopes.back().Vars[D.Name] = Var;
      if (consume(TokenKind::Equal))
        Var->Init = parseInitializer();
      Decls.push_back(Var);
    } while (consume(TokenKind::Comma));
  }
  expect(TokenKind::Semi, "declaration");
  return Ctx.create<DeclStmt>(Loc, std::move(Decls));
}
