//===- tests/test_libc.cpp - Library builtin semantics -------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

using namespace cundef;

namespace {

TEST(Libc, StrlenStrcpy) {
  expectClean("#include <string.h>\n"
              "int main(void) {\n"
              "  char buf[16];\n"
              "  strcpy(buf, \"hello\");\n"
              "  return (int)strlen(buf) - 5;\n}\n");
}

TEST(Libc, StrcmpOrdering) {
  expectClean("#include <string.h>\n"
              "int main(void) {\n"
              "  return (strcmp(\"abc\", \"abc\") == 0 &&\n"
              "          strcmp(\"abc\", \"abd\") < 0 &&\n"
              "          strcmp(\"b\", \"a\") > 0 &&\n"
              "          strncmp(\"abcx\", \"abcy\", 3) == 0) ? 0 : 1;\n}\n");
}

TEST(Libc, StrchrFindsAndMisses) {
  expectClean("#include <string.h>\n"
              "int main(void) {\n"
              "  char s[] = \"hello\";\n"
              "  char *l = strchr(s, 'l');\n"
              "  char *z = strchr(s, 'z');\n"
              "  return (l == s + 2 && z == 0) ? 0 : 1;\n}\n");
}

TEST(Libc, StrchrFindsTerminator) {
  expectClean("#include <string.h>\n"
              "int main(void) {\n"
              "  char s[] = \"hi\";\n"
              "  return strchr(s, 0) == s + 2 ? 0 : 1;\n}\n");
}

TEST(Libc, StrcatAppends) {
  expectClean("#include <string.h>\n"
              "int main(void) {\n"
              "  char buf[16];\n"
              "  strcpy(buf, \"ab\");\n"
              "  strcat(buf, \"cd\");\n"
              "  return strcmp(buf, \"abcd\");\n}\n");
}

TEST(Libc, MemcpyAndMemcmp) {
  expectClean("#include <string.h>\n"
              "int main(void) {\n"
              "  int src[3]; int dst[3]; int i;\n"
              "  for (i = 0; i < 3; i++) { src[i] = i + 1; }\n"
              "  memcpy(dst, src, sizeof src);\n"
              "  return memcmp(dst, src, sizeof src);\n}\n");
}

TEST(Libc, MemcpyCopiesStructPadding) {
  // The paper's 4.3.3 motivation: byte-wise copies must move padding
  // and uninitialized fields without error.
  expectClean("#include <string.h>\n"
              "struct padded { char c; int i; };\n"
              "int main(void) {\n"
              "  struct padded a; struct padded b;\n"
              "  a.c = 'x'; a.i = 3;\n"
              "  memcpy(&b, &a, sizeof a);\n"
              "  return b.i - 3;\n}\n");
}

TEST(Libc, MemcpyOverlapUb) {
  expectUb("#include <string.h>\n"
           "int main(void) {\n"
           "  char buf[8] = \"abcdefg\";\n"
           "  memcpy(buf + 1, buf, 3);\n"
           "  return 0;\n}\n",
           UbKind::MemcpyOverlap);
}

TEST(Libc, MemmoveOverlapOk) {
  expectClean("#include <string.h>\n"
              "int main(void) {\n"
              "  char buf[8] = \"abcdefg\";\n"
              "  memmove(buf + 1, buf, 3);\n"
              "  return (buf[1] == 'a' && buf[3] == 'c') ? 0 : 1;\n}\n");
}

TEST(Libc, MemsetFills) {
  expectClean("#include <string.h>\n"
              "int main(void) {\n"
              "  unsigned char b[4];\n"
              "  memset(b, 0x5A, sizeof b);\n"
              "  return (b[0] == 0x5A && b[3] == 0x5A) ? 0 : 1;\n}\n");
}

TEST(Libc, MemsetOutOfBounds) {
  expectUb("#include <string.h>\n"
           "int main(void) { char b[4]; memset(b, 0, 5); return 0; }\n",
           UbKind::WriteOutOfBounds);
}

TEST(Libc, StrlenOfNonString) {
  expectUb("#include <string.h>\n"
           "int main(void) {\n"
           "  char b[3]; b[0] = 'a'; b[1] = 'b'; b[2] = 'c';\n"
           "  return (int)strlen(b);\n}\n",
           UbKind::DerefOnePastEnd);
}

TEST(Libc, StrlenOfUninitBuffer) {
  expectUb("#include <string.h>\n"
           "int main(void) { char b[8]; return (int)strlen(b); }\n",
           UbKind::ReadIndeterminateValue);
}

TEST(Libc, PrintfBasics) {
  std::string Out = outputOf("#include <stdio.h>\n"
                             "int main(void) {\n"
                             "  printf(\"n=%d s=%s c=%c\\n\", 5, \"ok\","
                             " 'y');\n"
                             "  putchar('z');\n  putchar('\\n');\n"
                             "  puts(\"end\");\n"
                             "  return 0;\n}\n");
  EXPECT_EQ(Out, "n=5 s=ok c=y\nz\nend\n");
}

TEST(Libc, PrintfReturnsCount) {
  expectClean("#include <stdio.h>\n"
              "int main(void) { return printf(\"abc\\n\") - 4; }\n");
}

TEST(Libc, PrintfMissingArgument) {
  DriverOutcome O = runKcc("#include <stdio.h>\n"
                           "int main(void) { printf(\"%d %d\\n\", 1);"
                           " return 0; }\n");
  ASSERT_TRUE(O.anyUb());
  EXPECT_EQ(ubCode(O.DynamicUb.front().Kind), 72u);
}

TEST(Libc, PrintfWrongType) {
  expectUb("#include <stdio.h>\n"
           "int main(void) { printf(\"%s\\n\", 7); return 0; }\n",
           UbKind::VaArgTypeMismatch);
}

TEST(Libc, PrintfStarWidthMustBeInt) {
  // C11 7.21.6.1:5: a '*' width or precision takes an int argument
  // (a promoted char is one).
  std::string Out = outputOf("#include <stdio.h>\n"
                             "int main(void) {\n"
                             "  printf(\"[%*d|%.*d]\\n\", (char)3, 7, 2, 5);\n"
                             "  return 0;\n}\n");
  EXPECT_EQ(Out, "[  7|05]\n");
  for (const char *Arg : {"1.5", "3L"}) {
    DriverOutcome O = runKcc(std::string("#include <stdio.h>\n"
                                         "int main(void) { printf(\"%*d\\n\", ") +
                             Arg + ", 7); return 0; }\n");
    ASSERT_TRUE(O.anyUb()) << Arg;
    EXPECT_EQ(ubCode(O.DynamicUb.front().Kind), 74u) << Arg;
  }
}

TEST(Libc, AtoiParses) {
  expectClean("#include <stdlib.h>\n"
              "int main(void) { return atoi(\"42\") - 42; }\n");
}

TEST(Libc, RandIsDeterministicAndSeeded) {
  expectClean("#include <stdlib.h>\n"
              "int main(void) {\n"
              "  srand(7);\n"
              "  int a = rand();\n"
              "  srand(7);\n"
              "  int b = rand();\n"
              "  return a == b ? 0 : 1;\n}\n");
}

TEST(Libc, AbortStopsExecution) {
  DriverOutcome O = runKcc("#include <stdlib.h>\n"
                           "#include <stdio.h>\n"
                           "int main(void) {\n"
                           "  printf(\"before\\n\");\n"
                           "  abort();\n"
                           "  printf(\"after\\n\");\n"
                           "  return 0;\n}\n");
  EXPECT_EQ(O.Status, RunStatus::Completed);
  EXPECT_EQ(O.ExitCode, 134);
  EXPECT_EQ(O.Output, "before\n");
}

TEST(Libc, MallocZeroUsable) {
  // Zero-size allocation: the pointer exists, any dereference is UB
  // under the catalog's dedicated code (38), not one-past-the-end —
  // a zero-size object has no "end" to be one past.
  expectUb("#include <stdlib.h>\n"
           "int main(void) {\n"
           "  char *p = (char*)malloc(0);\n"
           "  if (!p) { return 0; }\n"
           "  return p[0];\n}\n",
           UbKind::ZeroSizeAllocationUse);
}

TEST(Libc, MallocHugeReturnsNull) {
  expectClean("#include <stdlib.h>\n"
              "int main(void) {\n"
              "  void *p = malloc(1024ul * 1024ul * 1024ul);\n"
              "  return p == 0 ? 0 : 1;\n}\n");
}

TEST(Libc, CallocOverflowReturnsNull) {
  expectClean("#include <stdlib.h>\n"
              "int main(void) {\n"
              "  void *p = calloc(0xffffffffffffffffUL, 16);\n"
              "  return p == 0 ? 0 : 1;\n}\n");
}

TEST(Libc, QsortSortsWithUserComparator) {
  expectClean("#include <stdlib.h>\n"
              "static int cmp(const void *a, const void *b) {\n"
              "  const int *x = (const int*)a;\n"
              "  const int *y = (const int*)b;\n"
              "  return (*x > *y) - (*x < *y);\n}\n"
              "int main(void) {\n"
              "  int d[6] = {4, 1, 5, 2, 6, 3};\n"
              "  int i;\n"
              "  qsort(d, 6, sizeof(int), cmp);\n"
              "  for (i = 0; i < 6; i++) {\n"
              "    if (d[i] != i + 1) { return 1; }\n"
              "  }\n"
              "  return 0;\n}\n");
}

TEST(Libc, QsortIsStableAgainstDescendingComparator) {
  expectClean("#include <stdlib.h>\n"
              "static int desc(const void *a, const void *b) {\n"
              "  return *(const int*)b - *(const int*)a;\n}\n"
              "int main(void) {\n"
              "  int d[4] = {1, 3, 2, 4};\n"
              "  qsort(d, 4, sizeof(int), desc);\n"
              "  return (d[0] == 4 && d[3] == 1) ? 0 : 1;\n}\n");
}

TEST(Libc, BsearchFindsAndMisses) {
  expectClean("#include <stdlib.h>\n"
              "static int cmp(const void *a, const void *b) {\n"
              "  return *(const int*)a - *(const int*)b;\n}\n"
              "int main(void) {\n"
              "  int d[5] = {2, 4, 6, 8, 10};\n"
              "  int six = 6; int seven = 7;\n"
              "  int *hit = (int*)bsearch(&six, d, 5, sizeof(int), cmp);\n"
              "  void *miss = bsearch(&seven, d, 5, sizeof(int), cmp);\n"
              "  return (hit == &d[2] && miss == 0) ? 0 : 1;\n}\n");
}

TEST(Libc, QsortComparatorUbSurfaces) {
  // Undefinedness inside the callback propagates out of the library
  // call: the comparator divides by zero.
  expectUb("#include <stdlib.h>\n"
           "static int bad(const void *a, const void *b) {\n"
           "  int zero = *(const int*)a - *(const int*)a;\n"
           "  return *(const int*)b / zero;\n}\n"
           "int main(void) {\n"
           "  int d[3] = {3, 1, 2};\n"
           "  qsort(d, 3, sizeof(int), bad);\n"
           "  return d[0];\n}\n",
           UbKind::DivisionByZero);
}

TEST(Libc, QsortOfUninitializedElementsUb) {
  expectUb("#include <stdlib.h>\n"
           "static int cmp(const void *a, const void *b) {\n"
           "  return *(const int*)a - *(const int*)b;\n}\n"
           "int main(void) {\n"
           "  int d[3];\n"
           "  d[0] = 1;\n"
           "  qsort(d, 3, sizeof(int), cmp);\n"
           "  return d[0];\n}\n",
           UbKind::ReadIndeterminateValue);
}

TEST(Libc, VarargsSum) {
  expectClean("#include <stdarg.h>\n"
              "static int sumOf(int count, ...) {\n"
              "  va_list ap;\n"
              "  va_start(ap, count);\n"
              "  int total = 0; int i;\n"
              "  for (i = 0; i < count; i++) { total += va_arg(ap, int); }\n"
              "  va_end(ap);\n"
              "  return total;\n}\n"
              "int main(void) { return sumOf(4, 10, 20, 30, 40) - 100; }\n");
}

TEST(Libc, VarargsMixedTypes) {
  // float arguments arrive default-promoted to double (C11 6.5.2.2p6).
  expectClean("#include <stdarg.h>\n"
              "static double total(int count, ...) {\n"
              "  va_list ap;\n"
              "  va_start(ap, count);\n"
              "  double acc = 0.0; int i;\n"
              "  for (i = 0; i < count; i++) {"
              " acc += va_arg(ap, double); }\n"
              "  va_end(ap);\n"
              "  return acc;\n}\n"
              "int main(void) { return total(2, 1.5, 2.5) == 4.0 ? 0 : 1;"
              " }\n");
}

TEST(Libc, VaArgPastEndUb) {
  DriverOutcome O = runKcc("#include <stdarg.h>\n"
                           "static int first(int count, ...) {\n"
                           "  va_list ap;\n"
                           "  va_start(ap, count);\n"
                           "  int a = va_arg(ap, int);\n"
                           "  int b = va_arg(ap, int);\n"
                           "  va_end(ap);\n"
                           "  return a + b;\n}\n"
                           "int main(void) { return first(1, 7); }\n");
  ASSERT_TRUE(O.anyUb());
  EXPECT_EQ(ubCode(O.DynamicUb.front().Kind), 98u)
      << "va_arg with no next argument";
}

TEST(Libc, VaArgWrongTypeUb) {
  // An int argument read as double: undefined (C11 7.16.1.1p2);
  // surfaces through the typed-cell model as an invalid read.
  DriverOutcome O = runKcc("#include <stdarg.h>\n"
                           "static double asDouble(int count, ...) {\n"
                           "  va_list ap;\n"
                           "  va_start(ap, count);\n"
                           "  double d = va_arg(ap, double);\n"
                           "  va_end(ap);\n"
                           "  return d;\n}\n"
                           "int main(void) { return asDouble(1, 42) > 0.0;"
                           " }\n");
  EXPECT_TRUE(O.anyUb());
}

TEST(Libc, VaArgAliasMismatchUb) {
  // Same-size mismatch (double argument read as long): caught by the
  // effective-type rule on the materialized cell.
  DriverOutcome O = runKcc("#include <stdarg.h>\n"
                           "static long asLong(int count, ...) {\n"
                           "  va_list ap;\n"
                           "  va_start(ap, count);\n"
                           "  long v = va_arg(ap, long);\n"
                           "  va_end(ap);\n"
                           "  return v;\n}\n"
                           "int main(void) { return asLong(1, 1.25) != 0;"
                           " }\n");
  ASSERT_TRUE(O.anyUb());
  EXPECT_EQ(O.DynamicUb.front().Kind, UbKind::StrictAliasingViolation);
}

TEST(Libc, SprintfFormatsIntoBuffer) {
  expectClean("#include <stdio.h>\n"
              "#include <string.h>\n"
              "int main(void) {\n"
              "  char buf[32];\n"
              "  int n = sprintf(buf, \"<%d|%s>\", 42, \"ok\");\n"
              "  return strcmp(buf, \"<42|ok>\") + (n - 7);\n}\n");
}

TEST(Libc, SprintfOverflowIsUb) {
  DriverOutcome O = runKcc("#include <stdio.h>\n"
                           "int main(void) {\n"
                           "  char tiny[4];\n"
                           "  sprintf(tiny, \"%d\", 123456);\n"
                           "  return 0;\n}\n");
  EXPECT_TRUE(O.anyUb()) << "writing past the destination buffer";
}

TEST(Libc, SnprintfTruncatesAndReportsFullLength) {
  expectClean("#include <stdio.h>\n"
              "#include <string.h>\n"
              "int main(void) {\n"
              "  char tiny[8];\n"
              "  int full = snprintf(tiny, sizeof tiny, \"123456789\");\n"
              "  return strcmp(tiny, \"1234567\") + (full - 9);\n}\n");
}

TEST(Libc, AssertPassesAndFails) {
  expectClean("#include <assert.h>\n"
              "int main(void) { assert(1 + 1 == 2); return 0; }\n");
  DriverOutcome O = runKcc("#include <assert.h>\n"
                           "int main(void) { assert(1 == 2); return 0; }\n");
  EXPECT_EQ(O.Status, RunStatus::Completed);
  EXPECT_EQ(O.ExitCode, 134) << "failed assert aborts";
}

TEST(Libc, CtypeClassifiers) {
  expectClean("#include <ctype.h>\n"
              "int main(void) {\n"
              "  return (isdigit('5') && !isdigit('a') &&\n"
              "          isalpha('z') && !isalpha('1') &&\n"
              "          isspace(' ') && !isspace('x') &&\n"
              "          toupper('b') == 'B' && tolower('C') == 'c')\n"
              "             ? 0 : 1;\n}\n");
}

TEST(Libc, UserDefinitionShadowsBuiltin) {
  // A program-local strlen is an ordinary function, not the builtin.
  expectClean("static unsigned long strlen(const char *s) {\n"
              "  (void)s;\n  return 99;\n}\n"
              "int main(void) { return strlen(\"ab\") == 99 ? 0 : 1; }\n");
}

} // namespace
