//===- tests/test_sema.cpp - Semantic analysis tests ---------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace cundef;

namespace {

/// Compiles only; returns whether type checking succeeded.
bool compiles(const std::string &Source, std::string *Errors = nullptr) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(Source, "t.c");
  if (Errors)
    *Errors = C->errors();
  return C->ok();
}

/// Types \p Expr as an expression statement and returns whether Sema
/// marked the operator at its top order-free.
bool orderFree(const std::string &Expr) {
  Driver Drv;
  Driver::Compiled C = Drv.compile(
      "#include <stdio.h>\n"
      "int i, j, n, x, y, b; int *a; struct S { int m; } s;\n"
      "volatile int v;\n"
      "int f(int p, int q); int g(void); int h(void);\n"
      "void t(void) { " + Expr + "; }\n",
      "order.c");
  EXPECT_TRUE(C->ok()) << C->errors();
  const AstContext &Ast = C->ast();
  const FunctionDecl *T = Ast.TU.findFunction(Ast.Interner.lookup("t"));
  if (!T || !T->Body || T->Body->Body.empty()) {
    ADD_FAILURE() << "no body for t() around " << Expr;
    return false;
  }
  return cast<ExprStmt>(T->Body->Body[0])->E->OrderFree;
}

TEST(Sema, OrderFreeOperandLists) {
  // Forced: no operand writes, at most one creates an object lazily.
  for (const char *Forced :
       {"i < n", "a[i]", "x + 1", "f(i, j)", "s.m + 1", "x = y"})
    EXPECT_TRUE(orderFree(Forced)) << Forced;
  // Choice points: a call, a write, a sequence point, a volatile
  // access, or two lazy creators (printf's designator and the literal).
  for (const char *Branches :
       {"g() + h()", "x++ + y", "(0, x) + y", "(a && b) + y",
        "(i ? j : n) + y", "v + x", "printf(\"%d\", x)", "x = y++"})
    EXPECT_FALSE(orderFree(Branches)) << Branches;
}

TEST(Sema, RejectsPointerArithOnNonPointers) {
  EXPECT_FALSE(compiles("struct s { int v; };\n"
                        "int main(void) { struct s a; struct s b;"
                        " a + b; return 0; }"));
}

TEST(Sema, RejectsCallOfNonFunction) {
  EXPECT_FALSE(compiles("int main(void) { int x = 1; return x(); }"));
}

TEST(Sema, RejectsMemberOfNonStruct) {
  EXPECT_FALSE(compiles("int main(void) { int x = 1; return x.field; }"));
}

TEST(Sema, RejectsUnknownMember) {
  EXPECT_FALSE(compiles("struct s { int a; };\n"
                        "int main(void) { struct s v; return v.b; }"));
}

TEST(Sema, RejectsAssignToRValue) {
  EXPECT_FALSE(compiles("int main(void) { int x; (x + 1) = 2; return 0; }"));
}

TEST(Sema, RejectsAddressOfRValue) {
  EXPECT_FALSE(compiles("int main(void) { int x = 1; return &(x + 1) != 0; }"));
}

TEST(Sema, RejectsArrayAssignment) {
  EXPECT_FALSE(compiles("int main(void) { int a[2]; int b[2]; a = b;"
                        " return 0; }"));
}

TEST(Sema, RejectsDerefOfInt) {
  EXPECT_FALSE(compiles("int main(void) { int x = 1; return *x; }"));
}

TEST(Sema, RejectsDuplicateCaseLabels) {
  EXPECT_FALSE(compiles("int main(void) {\n"
                        "  switch (1) { case 1: return 0; case 1:"
                        " return 1; }\n  return 2;\n}"));
}

TEST(Sema, RejectsBreakOutsideLoop) {
  EXPECT_FALSE(compiles("int main(void) { break; return 0; }"));
}

TEST(Sema, RejectsContinueOutsideLoop) {
  EXPECT_FALSE(compiles("int main(void) { continue; return 0; }"));
}

TEST(Sema, RejectsUndeclaredLabel) {
  EXPECT_FALSE(compiles("int main(void) { goto nowhere; return 0; }"));
}

TEST(Sema, RejectsDuplicateLabel) {
  EXPECT_FALSE(compiles("int main(void) { l: ; l: ; return 0; }"));
}

TEST(Sema, RejectsNonConstantCase) {
  EXPECT_FALSE(compiles("int main(void) {\n"
                        "  int v = 1;\n"
                        "  switch (1) { case 0: return 0; case 1 + 0:"
                        " return 1; }\n"
                        "  switch (v) { case 2: return v; }\n"
                        "  return 2;\n}")
                   ? false
                   : !compiles("int main(void) { int v = 1;"
                               " switch (1) { case v: return 0; }"
                               " return 1; }"));
}

TEST(Sema, RejectsWrongArityCall) {
  EXPECT_FALSE(compiles("static int f(int a, int b) { return a + b; }\n"
                        "int main(void) { return f(1); }"));
}

TEST(Sema, AcceptsVariadicExtraArgs) {
  EXPECT_TRUE(compiles("#include <stdio.h>\n"
                       "int main(void) { printf(\"%d %d\\n\", 1, 2);"
                       " return 0; }"));
}

TEST(Sema, WarnsButAcceptsIncompatiblePointerAssign) {
  std::string Errors;
  EXPECT_TRUE(compiles("int main(void) { int x = 1; long *p = &x;"
                       " return p != 0; }",
                       &Errors));
  EXPECT_NE(Errors.find("warning"), std::string::npos);
}

TEST(Sema, ImplicitConversionsInserted) {
  // double -> int in initialization, int -> double in call, char
  // promotion in arithmetic: all must type-check and run.
  expectClean("static double half(double d) { return d / 2.0; }\n"
              "int main(void) {\n"
              "  int truncated = 7.9;\n"
              "  double widened = half(7);\n"
              "  char c = 'a';\n"
              "  int sum = c + 1;\n"
              "  return truncated - 7 + (widened == 3.5 ? 0 : 1)"
              " + sum - 'b';\n}\n");
}

TEST(Sema, NullPointerConstantForms) {
  expectClean("#include <stddef.h>\n"
              "int main(void) {\n"
              "  int *a = 0;\n"
              "  int *b = NULL;\n"
              "  int *c = (void*)0;\n"
              "  return (a == b && b == c) ? 0 : 1;\n}\n");
}

TEST(Sema, ConditionalPointerMix) {
  expectClean("int main(void) {\n"
              "  int x = 1;\n"
              "  int *p = x ? &x : 0;\n"
              "  void *v = x ? (void*)&x : (void*)0;\n"
              "  return (p && v) ? 0 : 1;\n}\n");
}

TEST(Sema, StaticFindingsDoNotBlockExecution) {
  Driver Drv;
  DriverOutcome O =
      Drv.runSource("int main(void) {\n"
                    "  if (0) { 1 / 0; }\n"
                    "  return 0;\n}\n",
                    "t.c");
  EXPECT_TRUE(O.CompileOk);
  EXPECT_FALSE(O.StaticUb.empty());
  EXPECT_EQ(O.Status, RunStatus::Completed);
  EXPECT_EQ(O.ExitCode, 0);
}

TEST(Sema, VoidFunctionValueUseRejected) {
  std::string Errors;
  EXPECT_FALSE(compiles("static void v(void) {}\n"
                        "int main(void) { return v() + 1; }",
                        &Errors));
}

TEST(Sema, SizeofNonEvaluatedOperand) {
  // sizeof's operand is not evaluated: no uninitialized-read report.
  expectClean("int main(void) { int x;"
              " return (int)sizeof(x) - 4; }");
}

} // namespace
