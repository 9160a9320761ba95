//===- tests/test_prelude.cpp - Shared header preludes --------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// Edge cases of continuing a compile from its include block's shared,
// frozen prelude (frontend/Prelude.h): a unit that redefines,
// redeclares or #undefs what the headers declared must see the same
// result as translating the includes in place, while a unit compiled
// at the same time from the same prelude keeps seeing the headers'
// meaning; ineligible headers, header edits and the prelude bound fall
// back to in-place translation or a fresh prelude.
//
//===----------------------------------------------------------------------===//

#include "AstPrinter.h"
#include "TestUtil.h"

#include "core/Machine.h"
#include "frontend/Frontend.h"
#include "frontend/Prelude.h"
#include "libc/Builtins.h"
#include "libc/Headers.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace cundef;

namespace {

struct Fixture {
  HeaderRegistry Headers;
  FrontendOptions Opts;

  Fixture() { registerStandardHeaders(Headers); }

  CompiledProgramRef viaPrelude(const std::string &Source) {
    return compileTranslationUnit(Opts, Source, "unit.c", Headers);
  }
  CompiledProgramRef inPlace(const std::string &Source) {
    return compileWithPrelude(Opts, Source, "unit.c", Headers, nullptr);
  }
  /// The prelude that compiles of \p Source continue from once its
  /// include block was seen before.
  std::shared_ptr<const Prelude> preludeOf(const std::string &Source) {
    IncludePrefix Prefix = scanIncludePrefix(Source);
    preludeFor(Opts, Prefix, Headers);
    return preludeFor(Opts, Prefix, Headers);
  }
  /// Compiles \p Source both ways and expects identical artifacts.
  CompiledProgramRef expectSame(const std::string &Source) {
    CompiledProgramRef Shared = viaPrelude(Source);
    EXPECT_EQ(dumpArtifact(*Shared), dumpArtifact(*inPlace(Source)))
        << Source;
    return Shared;
  }
};

/// Exit code of a strict root run (-1 if it did not complete).
int exitOf(const CompiledProgram &P) {
  if (!P.ok())
    return -1;
  UbSink Sink;
  Machine M(P.ast(), MachineOptions(), Sink);
  if (M.run() != RunStatus::Completed || !Sink.all().empty())
    return -1;
  return M.config().ExitCode;
}

/// Everything a prelude holds, rendered, to show nothing wrote to it.
std::string dumpPrelude(const Prelude &P) {
  std::string Out = strFormat("symbols=%zu macros=%zu files=%zu next=%u\n",
                              P.Interner.size(), P.Text.Macros.size(),
                              P.Text.Files.size(), P.Text.NextFileId);
  AstPrinter Printer(*P.Ast);
  for (const FunctionDecl *F : P.Ast->TU.Functions)
    Out += Printer.print(F) +
           strFormat("  builtin=%u decls=%zu params=%zu\n", F->BuiltinId,
                     F->AllDeclTypes.size(), F->Params.size());
  for (const auto &[Sym, Ty] : P.FileScope.Typedefs)
    Out += P.Interner.str(Sym) + "=" +
           P.Ast->Types.typeName(Ty, P.Interner) + "\n";
  return Out + strFormat("next-decl-id=%u\n", P.Ast->NextDeclId);
}

const char OwnAbs[] = "#include <stdlib.h>\n"
                      "int twice(int x) { return abs(x) * 2; }\n"
                      "int abs(int x) { return x + 1; }\n"
                      "int main(void) { return twice(4); }\n";
const char LibAbs[] = "#include <stdlib.h>\n"
                      "int main(void) { return abs(-7); }\n";

} // namespace

TEST(IncludePrefix, ScanIsConservative) {
  IncludePrefix P = scanIncludePrefix("/* head */\n#include <stdio.h>\n"
                                      "  # include<stdlib.h> // c\n\n"
                                      "int x;\n#include <string.h>\n");
  EXPECT_EQ(P.Headers, (std::vector<std::string>{"stdio.h", "stdlib.h"}));
  EXPECT_EQ(P.Lines, 4u);
  // Quoted includes, splices, other directives, trailing tokens, a
  // comment left open, a name the lexer would not spell back or any
  // other token end the block.
  for (const char *Source :
       {"#include \"a.h\"\n", "#include <stdio.h> \\\n", "#define X 1\n",
        "#include <stdio.h> x\n", "#include <stdio.h> /* open\n*/\n",
        "#include <a.1h>\n", "#include <a//b.h>\n", "#include <a.h.>\n",
        "# /**/ include <a.h>\n", "#include <stdio.h> #include <a.h>\n",
        "int main(void);\n"})
    EXPECT_TRUE(scanIncludePrefix(Source).Headers.empty()) << Source;
  P = scanIncludePrefix("#include <sys/types.h>\n#include <h2.h>");
  EXPECT_EQ(P.Headers, (std::vector<std::string>{"sys/types.h", "h2.h"}));
  EXPECT_EQ(P.End, 38u);
}

TEST(IncludePrefix, BlockCommentsSpanningLines) {
  // A license comment above the includes, and one between them: the
  // block reaches past both (lines and offset count the comments).
  const std::string Source = "/*\n * license\n */\n#include <stdio.h>\n"
                             "/* a\n b */ #include <stdlib.h>\n"
                             "int main(void) { printf(\"%d\", abs(-2)); "
                             "return 0; }\n";
  IncludePrefix P = scanIncludePrefix(Source);
  EXPECT_EQ(P.Headers, (std::vector<std::string>{"stdio.h", "stdlib.h"}));
  EXPECT_EQ(P.Lines, 6u);
  EXPECT_EQ(P.End, Source.find("int main"));
  Fixture F;
  ASSERT_TRUE(F.preludeOf(Source));
  CompiledProgramRef C = F.expectSame(Source);
  EXPECT_EQ(exitOf(*C), 0);
  EXPECT_EQ(C->errors(), "");
  // The block ends before a comment that closes on a line with code,
  // or that never closes, or that opens after a directive.
  for (const char *Tail : {"/* a\n */ int x;\n", "/* open\n",
                           "#include <string.h> /* a\n*/\n"}) {
    P = scanIncludePrefix(std::string("#include <stdio.h>\n") + Tail);
    EXPECT_EQ(P.Headers, std::vector<std::string>{"stdio.h"}) << Tail;
    EXPECT_EQ(P.Lines, 1u) << Tail;
  }
}

TEST(Prelude, OwnAbsShadowsTheBuiltinOnlyInItsUnit) {
  Fixture F;
  // A block's first compile translates it in place.
  EXPECT_EQ(preludeFor(F.Opts, scanIncludePrefix(OwnAbs), F.Headers),
            nullptr);
  std::shared_ptr<const Prelude> P = F.preludeOf(OwnAbs);
  ASSERT_TRUE(P);
  EXPECT_EQ(P, F.preludeOf(LibAbs));
  std::string Before = dumpPrelude(*P);
  // The user definition wins, also for the call parsed before it.
  EXPECT_EQ(exitOf(*F.expectSame(OwnAbs)), 10);
  EXPECT_EQ(exitOf(*F.expectSame(LibAbs)), 7);
  // Concurrent compiles from the one prelude keep their own meaning.
  std::vector<std::thread> Threads;
  std::atomic<int> Wrong{0};
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < 25; ++I) {
        bool Own = (I + T) % 2 == 0;
        if (exitOf(*F.viaPrelude(Own ? OwnAbs : LibAbs)) != (Own ? 10 : 7))
          ++Wrong;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Wrong.load(), 0);
  EXPECT_EQ(F.Headers.preludeCount(), 1u);
  EXPECT_EQ(dumpPrelude(*P), Before) << "a compile wrote to its prelude";
  const FunctionDecl *Abs = P->FileScope.Functions.at(P->Interner.lookup("abs"));
  EXPECT_EQ(Abs->BuiltinId, BuiltinAbs);
  EXPECT_EQ(Abs->Body, nullptr);
}

TEST(Prelude, PrintfRedeclarationsReportAsInPlace) {
  Fixture F;
  CompiledProgramRef Same =
      F.expectSame("#include <stdio.h>\n"
                   "int printf(const char *format, ...);\n"
                   "int main(void) { printf(\"x\"); return 0; }\n");
  EXPECT_TRUE(Same->staticUb().empty());
  CompiledProgramRef Clash =
      F.expectSame("#include <stdio.h>\n"
                   "int printf(const char *s);\n"
                   "int main(void) { return 0; }\n");
  ASSERT_EQ(Clash->staticUb().size(), 1u);
  EXPECT_EQ(Clash->staticUb()[0].Kind, UbKind::IncompatibleRedeclaration);
  // A local redeclaration clones the prelude's printf too.
  F.expectSame("#include <stdio.h>\n"
               "int main(void) { int printf(const char *s); return 0; }\n");
}

TEST(Prelude, UndefAndRedefineAfterTheIncludes) {
  Fixture F;
  CompiledProgramRef Undef =
      F.expectSame("#include <stdio.h>\n#undef NULL\n"
                   "#ifdef NULL\nint broken;\n#endif\n"
                   "int main(void) { return NULL == 0; }\n");
  EXPECT_FALSE(Undef->ok());
  EXPECT_NE(Undef->errors().find("NULL"), std::string::npos);
  CompiledProgramRef Eof = F.expectSame(
      "#include <stdio.h>\n#define EOF 7\nint main(void) { return EOF; }\n");
  EXPECT_EQ(exitOf(*Eof), 7);
  // The next unit from the same prelude still sees the headers' macros.
  CompiledProgramRef Plain = F.expectSame(
      "#include <stdio.h>\nint main(void) { return EOF + (NULL == 0); }\n");
  EXPECT_EQ(exitOf(*Plain), 0);
}

TEST(Prelude, IncludeAgainInTheMiddle) {
  Fixture F;
  CompiledProgramRef P = F.expectSame(
      "#include <stdio.h>\n"
      "int f(void) { return 1; }\n"
      "#include <stdio.h>\n#include <string.h>\n"
      "int main(void) { printf(\"%d\", (int)strlen(\"abc\")); return f(); }\n");
  EXPECT_EQ(exitOf(*P), 1);
}

TEST(Prelude, HeadersDeclaringObjectsOrTagsAreIneligible) {
  Fixture F;
  F.Headers.add("point.h", "struct point { int x; int y; };\n"
                           "int norm(struct point p);\n");
  F.Headers.add("counter.h", "int counter;\n");
  F.Headers.add("body.h", "int one(void) { return 1; }\n");
  for (const char *Source :
       {"#include <point.h>\n"
        "int norm(struct point p) { return p.x + p.y; }\n"
        "int main(void) { struct point p = {1, 2}; return norm(p); }\n",
        "#include <counter.h>\nint main(void) { return counter; }\n",
        "#include <stdio.h>\n#include <body.h>\n"
        "int main(void) { return one(); }\n"}) {
    EXPECT_EQ(F.preludeOf(Source), nullptr) << Source;
    EXPECT_TRUE(F.expectSame(Source)->ok()) << Source;
  }
  EXPECT_EQ(F.Headers.preludeCount(), 3u);
}

TEST(Prelude, HeaderEditsBetweenBatchesAreSeen) {
  AnalysisEngine Eng{EngineConfig()};
  Eng.headers().add("cfg.h", "#define DIVISOR 1\n");
  AnalysisRequest Req = AnalysisRequest::Builder().buildOrDie();
  // Two units per batch, so the second continues from a prelude.
  const std::string Source =
      "#include <cfg.h>\nint main(void) { return 10 / DIVISOR; }\n";
  const std::vector<BatchInput> Batch = {{Source, "a.c"}, {Source, "b.c"}};
  for (const DriverOutcome &O : analyzeBatch(Eng, Req, Batch)) {
    EXPECT_FALSE(O.anyUb());
    EXPECT_EQ(O.ExitCode, 10);
  }
  EXPECT_EQ(Eng.headers().preludeCount(), 1u);
  Eng.drain();
  Eng.headers().add("cfg.h", "#define DIVISOR 0\n");
  for (const DriverOutcome &O : analyzeBatch(Eng, Req, Batch))
    EXPECT_TRUE(O.anyUb()) << O.renderReport();
}

TEST(Prelude, TheBoundCapsThePreludesKept) {
  Fixture F;
  const size_t N = HeaderRegistry::kMaxPreludes + 5;
  for (size_t I = 0; I < N; ++I)
    F.Headers.add(strFormat("h%zu.h", I), strFormat("#define H %zu\n", I));
  for (size_t I = 0; I < N; ++I) {
    std::string Source = strFormat(
        "#include <h%zu.h>\nint main(void) { return H; }\n", I);
    EXPECT_EQ(F.preludeOf(Source) != nullptr,
              I < HeaderRegistry::kMaxPreludes);
    EXPECT_EQ(exitOf(*F.expectSame(Source)), static_cast<int>(I));
  }
  EXPECT_EQ(F.Headers.preludeCount(), HeaderRegistry::kMaxPreludes);
}

TEST(BuiltinTypes, QsortSiblingRunsOnlyReadTheArtifact) {
  // Only orders other than the root's call qsort, so two sibling runs
  // on different workers reach the builtin at once; the pointer types
  // it returns must already exist in the shared, frozen type context
  // (ThreadSanitizer reported the lazy insert racing a lookup).
  const std::string Source =
      "void qsort(void *base, unsigned long n, unsigned long size,\n"
      "           int (*cmp)(const int *, const int *));\n"
      "int s = 0;\n"
      "int fa(void) { s = s * 10 + 1; return 0; }\n"
      "int fb(void) { s = s * 10 + 2; return 0; }\n"
      "int cmp(const int *x, const int *y) { return *x - *y; }\n"
      "int main(void) {\n"
      "  int a[3] = {3, 1, 2};\n"
      "  int t = 0;\n"
      "  t += fa() + fb();\n"
      "  t += fa() + fb();\n"
      "  t += fa() + fb();\n"
      "  if (s != 121212) qsort(a, 3, sizeof(int), cmp);\n"
      "  return a[0] + t;\n"
      "}\n";
  AnalysisRequest Req = AnalysisRequest::Builder().searchRuns(64).buildOrDie();
  std::vector<DriverOutcome> Outcomes;
  // Fresh engines, so every round compiles a fresh type context and
  // its first qsort call can meet a sibling's.
  for (unsigned Workers : {1u, 4u, 4u, 4u, 4u, 4u, 4u, 4u, 4u}) {
    EngineConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.ClampWorkersToHardware = false;
    AnalysisEngine Eng(Cfg);
    Outcomes.push_back(analyzeBatch(Eng, Req, {{Source, "qsort.c"}})[0]);
  }
  ASSERT_TRUE(Outcomes[0].CompileOk) << Outcomes[0].CompileErrors;
  EXPECT_GT(Outcomes[0].OrdersExplored, 1u);
  for (const DriverOutcome &O : Outcomes) {
    EXPECT_EQ(O.renderReport(), Outcomes[0].renderReport());
    EXPECT_EQ(O.OrdersExplored, Outcomes[0].OrdersExplored);
    EXPECT_EQ(O.SearchWitness, Outcomes[0].SearchWitness);
  }
}
