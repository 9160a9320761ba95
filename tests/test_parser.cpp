//===- tests/test_parser.cpp - Parser unit tests -----------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "AstPrinter.h"
#include "libc/Headers.h"
#include "parse/Parser.h"
#include "text/Preprocessor.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

struct ParseFixture {
  StringInterner Interner;
  DiagnosticEngine Diags;
  HeaderRegistry Headers;
  std::unique_ptr<AstContext> Ctx;

  ParseFixture() { registerStandardHeaders(Headers); }

  bool parse(const std::string &Source) {
    Preprocessor PP(Interner, Diags, Headers);
    std::vector<Token> Toks = PP.run(Source, "t.c");
    Ctx = std::make_unique<AstContext>(TargetConfig::lp64(), Interner);
    Parser P(std::move(Toks), *Ctx, Diags);
    return P.parseTranslationUnit();
  }

  const FunctionDecl *fn(const char *Name) {
    return Ctx->TU.findFunction(Interner.lookup(Name));
  }
  std::string typeOfGlobal(const char *Name) {
    for (const VarDecl *G : Ctx->TU.Globals)
      if (Interner.str(G->Name) == Name)
        return Ctx->Types.typeName(G->Ty, Interner);
    return "<not found>";
  }
};

TEST(Parser, SimpleFunction) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int main(void) { return 0; }"));
  const FunctionDecl *Main = F.fn("main");
  ASSERT_NE(Main, nullptr);
  ASSERT_NE(Main->Body, nullptr);
  EXPECT_EQ(Main->Params.size(), 0u);
  EXPECT_FALSE(Main->FnTy->NoProto);
}

TEST(Parser, DeclaratorShapes) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int *a;\n"
                      "int b[3];\n"
                      "int *c[4];\n"
                      "int (*d)[5];\n"
                      "int (*e)(int, char);\n"
                      "int (*f(void))(int);\n"
                      "const char *g;\n"
                      "char * const h = 0;\n"));
  EXPECT_EQ(F.typeOfGlobal("a"), "int *");
  EXPECT_EQ(F.typeOfGlobal("b"), "int [3]");
  EXPECT_EQ(F.typeOfGlobal("c"), "int * [4]");
  EXPECT_EQ(F.typeOfGlobal("d"), "int [5] *");
  EXPECT_EQ(F.typeOfGlobal("e"), "int (int, char) *");
  EXPECT_EQ(F.typeOfGlobal("g"), "const char *");
  EXPECT_EQ(F.typeOfGlobal("h"), "char * const ");
  const FunctionDecl *Fn = F.fn("f");
  ASSERT_NE(Fn, nullptr);
  EXPECT_EQ(F.Ctx->Types.typeName(QualType(Fn->FnTy), F.Interner),
            "int (int) * ()");
}

TEST(Parser, TypedefResolves) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("typedef unsigned long word;\n"
                      "word w;\n"
                      "typedef word *wptr;\n"
                      "wptr p;\n"));
  EXPECT_EQ(F.typeOfGlobal("w"), "unsigned long");
  EXPECT_EQ(F.typeOfGlobal("p"), "unsigned long *");
}

TEST(Parser, StructLayoutAndMembers) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("struct point { int x; int y; };\n"
                      "struct point origin;\n"));
  EXPECT_EQ(F.typeOfGlobal("origin"), "struct point");
  // Find the tag type through the global.
  for (const VarDecl *G : F.Ctx->TU.Globals) {
    if (F.Interner.str(G->Name) != "origin")
      continue;
    const RecordInfo *Rec = G->Ty.Ty->Record;
    ASSERT_NE(Rec, nullptr);
    ASSERT_EQ(Rec->Fields.size(), 2u);
    EXPECT_EQ(Rec->Fields[0].Offset, 0u);
    EXPECT_EQ(Rec->Fields[1].Offset, 4u);
    EXPECT_EQ(Rec->Size, 8u);
  }
}

TEST(Parser, StructPadding) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("struct padded { char c; int i; } p;"));
  for (const VarDecl *G : F.Ctx->TU.Globals) {
    const RecordInfo *Rec = G->Ty.Ty->Record;
    ASSERT_NE(Rec, nullptr);
    EXPECT_EQ(Rec->Fields[1].Offset, 4u) << "int aligned to 4";
    EXPECT_EQ(Rec->Size, 8u);
  }
}

TEST(Parser, UnionSharesOffsets) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("union u { char c; int i; double d; } v;"));
  for (const VarDecl *G : F.Ctx->TU.Globals) {
    const RecordInfo *Rec = G->Ty.Ty->Record;
    ASSERT_NE(Rec, nullptr);
    for (const FieldInfo &Field : Rec->Fields)
      EXPECT_EQ(Field.Offset, 0u);
    EXPECT_EQ(Rec->Size, 8u);
  }
}

TEST(Parser, EnumConstantsFold) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("enum color { RED, GREEN = 5, BLUE };\n"
                      "int x = BLUE;\n"));
  // BLUE folds to 6 in the initializer.
  for (const VarDecl *G : F.Ctx->TU.Globals) {
    if (F.Interner.str(G->Name) != "x")
      continue;
    const auto *Lit = dynCast<IntLitExpr>(G->Init);
    ASSERT_NE(Lit, nullptr);
    EXPECT_EQ(Lit->Value, 6u);
  }
}

TEST(Parser, PrecedenceInAst) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int x = 1 + 2 * 3;"));
  for (const VarDecl *G : F.Ctx->TU.Globals) {
    AstPrinter Printer(*F.Ctx);
    std::string Dump = Printer.print(G->Init);
    // Multiplication binds tighter: (+ 1 (* 2 3)).
    size_t PlusPos = Dump.find("(binary +");
    size_t MulPos = Dump.find("(binary *");
    ASSERT_NE(PlusPos, std::string::npos);
    ASSERT_NE(MulPos, std::string::npos);
    EXPECT_LT(PlusPos, MulPos);
  }
}

TEST(Parser, AssignmentRightAssociative) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int f(void) { int a; int b; a = b = 1; return a; }"));
}

TEST(Parser, TernaryAndComma) {
  ParseFixture F;
  ASSERT_TRUE(
      F.parse("int f(int c) { int a = c ? 1 : 2; return (a, c, a + 1); }"));
}

TEST(Parser, SizeofForms) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int a = sizeof(int);\n"
                      "int b = sizeof(int*);\n"
                      "int f(void) { int x; return sizeof x + sizeof(x); }"));
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Parser, CastVsParenExpr) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int f(int y) { int x = (int)y; return (y) + 1; }"));
}

TEST(Parser, ControlFlowStatements) {
  ParseFixture F;
  ASSERT_TRUE(F.parse(
      "int f(int n) {\n"
      "  int acc = 0; int i;\n"
      "  for (i = 0; i < n; i++) { acc += i; }\n"
      "  while (acc > 100) { acc -= 10; }\n"
      "  do { acc++; } while (acc < 0);\n"
      "  switch (acc) { case 0: acc = 1; break; default: break; }\n"
      "  if (acc) { return acc; } else { return -1; }\n"
      "}\n"));
}

TEST(Parser, GotoAndLabels) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int f(void) {\n"
                      "  int x = 0;\n"
                      "top: x++;\n"
                      "  if (x < 3) { goto top; }\n"
                      "  return x;\n}\n"));
}

TEST(Parser, InitializerLists) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int a[3] = {1, 2, 3};\n"
                      "struct p { int x; int y; };\n"
                      "struct p q = {4, 5};\n"
                      "int m[2][2] = {{1, 2}, {3, 4}};\n"
                      "char s[] = \"hi\";\n"));
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Parser, ErrorOnMissingSemicolon) {
  ParseFixture F;
  EXPECT_FALSE(F.parse("int main(void) { return 0 }"));
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(Parser, ErrorOnUndeclaredIdentifier) {
  ParseFixture F;
  EXPECT_FALSE(F.parse("int main(void) { return nope; }"));
}

TEST(Parser, ShadowingInNestedScopes) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int f(void) {\n"
                      "  int x = 1;\n"
                      "  { int x = 2; (void)x; }\n"
                      "  return x;\n}\n"));
}

TEST(Parser, FunctionPointerCall) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("static int g(int a) { return a; }\n"
                      "int main(void) {\n"
                      "  int (*fp)(int) = g;\n"
                      "  return fp(1) + (*fp)(2);\n}\n"));
}

TEST(Parser, NoProtoDeclaration) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int old();\n"
                      "int main(void) { return 0; }\n"));
  const FunctionDecl *Old = F.fn("old");
  ASSERT_NE(Old, nullptr);
  EXPECT_TRUE(Old->FnTy->NoProto);
}

TEST(Parser, VariadicPrototype) {
  ParseFixture F;
  ASSERT_TRUE(F.parse("int logf2(const char *fmt, ...);\n"
                      "int main(void) { return 0; }\n"));
  const FunctionDecl *Fn = F.fn("logf2");
  ASSERT_NE(Fn, nullptr);
  EXPECT_TRUE(Fn->FnTy->Variadic);
}

} // namespace
