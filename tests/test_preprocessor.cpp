//===- tests/test_preprocessor.cpp - Preprocessor unit tests -----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "libc/Headers.h"
#include "text/Lexer.h"
#include "text/Preprocessor.h"

#include <gtest/gtest.h>

#include <thread>

using namespace cundef;

namespace {

struct PpFixture {
  StringInterner Interner;
  DiagnosticEngine Diags;
  HeaderRegistry Headers;

  PpFixture() { registerStandardHeaders(Headers); }

  /// Preprocesses and renders the surviving tokens as spellings.
  std::string expand(const std::string &Source) {
    Preprocessor PP(Interner, Diags, Headers);
    std::vector<Token> Toks = PP.run(Source, "t.c");
    std::string Out;
    for (const Token &T : Toks) {
      if (T.is(TokenKind::Eof))
        break;
      if (!Out.empty())
        Out += ' ';
      switch (T.Kind) {
      case TokenKind::Identifier:
        Out += Interner.str(T.Sym);
        break;
      case TokenKind::IntLiteral:
      case TokenKind::FloatLiteral:
      case TokenKind::CharLiteral:
        Out += T.Text;
        break;
      case TokenKind::StringLiteral:
        Out += '"' + T.Text + '"';
        break;
      default: {
        std::string Name = tokenKindName(T.Kind);
        if (Name.size() >= 2 && Name.front() == '\'')
          Out += Name.substr(1, Name.size() - 2);
        else
          Out += Name;
      }
      }
    }
    return Out;
  }
};

TEST(Preprocessor, ObjectMacro) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define N 42\nint x = N;"), "int x = 42 ;");
}

TEST(Preprocessor, FunctionMacro) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define SQ(x) ((x)*(x))\nSQ(3)"),
            "( ( 3 ) * ( 3 ) )");
}

TEST(Preprocessor, NestedExpansion) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define A B\n#define B 7\nA"), "7");
}

TEST(Preprocessor, RecursionIsPainted) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define X X\nX"), "X");
}

TEST(Preprocessor, Stringize) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define STR(x) #x\nSTR(a + b)"), "\"a + b\"");
}

TEST(Preprocessor, Paste) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define GLUE(a, b) a##b\nGLUE(foo, bar)"), "foobar");
}

TEST(Preprocessor, ConditionalTaken) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define ON 1\n#if ON\nyes\n#else\nno\n#endif"),
            "yes");
}

TEST(Preprocessor, ConditionalElse) {
  PpFixture F;
  EXPECT_EQ(F.expand("#if 0\nyes\n#else\nno\n#endif"), "no");
}

TEST(Preprocessor, ElifChain) {
  PpFixture F;
  EXPECT_EQ(
      F.expand("#define V 2\n#if V == 1\na\n#elif V == 2\nb\n#elif V == 3\n"
               "c\n#else\nd\n#endif"),
      "b");
}

TEST(Preprocessor, NestedConditionalsSkippedCorrectly) {
  PpFixture F;
  EXPECT_EQ(F.expand("#if 0\n#if 1\nx\n#endif\ny\n#endif\nz"), "z");
}

TEST(Preprocessor, DefinedOperator) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define P\n#if defined(P) && !defined(Q)\nok\n#endif"),
            "ok");
}

TEST(Preprocessor, Undef) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define N 1\n#undef N\nN"), "N");
}

TEST(Preprocessor, IncludeStandardHeader) {
  PpFixture F;
  std::string Out = F.expand("#include <stddef.h>\nsize_t n = NULL;");
  EXPECT_NE(Out.find("unsigned long"), std::string::npos);
  EXPECT_NE(Out.find("( ( void * ) 0 )"), std::string::npos);
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Preprocessor, IncludeGuardsWork) {
  PpFixture F;
  std::string Once = F.expand("#include <stddef.h>\n");
  std::string Twice = F.expand("#include <stddef.h>\n#include <stddef.h>\n");
  EXPECT_EQ(Once, Twice);
}

TEST(Preprocessor, MissingHeaderIsAnError) {
  PpFixture F;
  F.expand("#include <no_such_header.h>\n");
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(Preprocessor, ErrorDirective) {
  PpFixture F;
  F.expand("#error custom message\n");
  ASSERT_TRUE(F.Diags.hasErrors());
  EXPECT_NE(F.Diags.render().find("custom message"), std::string::npos);
}

TEST(Preprocessor, ErrorInsideFalseBranchIgnored) {
  PpFixture F;
  F.expand("#if 0\n#error never\n#endif\nok");
  EXPECT_FALSE(F.Diags.hasErrors());
}

TEST(Preprocessor, KeywordsPromoted) {
  PpFixture F;
  Preprocessor PP(F.Interner, F.Diags, F.Headers);
  std::vector<Token> Toks = PP.run("int while_2 while", "t.c");
  ASSERT_GE(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwInt);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[2].Kind, TokenKind::KwWhile);
}

TEST(Preprocessor, MacroShadowingKeyword) {
  PpFixture F;
  // A macro may expand to a keyword; promotion happens afterwards.
  Preprocessor PP(F.Interner, F.Diags, F.Headers);
  std::vector<Token> Toks = PP.run("#define LOOP while\nLOOP", "t.c");
  ASSERT_GE(Toks.size(), 1u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwWhile);
}

TEST(Preprocessor, VariadicMacro) {
  PpFixture F;
  EXPECT_EQ(F.expand("#define CALL(f, ...) f(__VA_ARGS__)\nCALL(g, 1, 2)"),
            "g ( 1 , 2 )");
}

TEST(Preprocessor, LineMacro) {
  PpFixture F;
  EXPECT_EQ(F.expand("\n\n__LINE__"), "3");
}

TEST(Preprocessor, PredefinedMacros) {
  PpFixture F;
  Preprocessor PP(F.Interner, F.Diags, F.Headers);
  EXPECT_TRUE(PP.isDefined("__STDC__"));
  EXPECT_TRUE(PP.isDefined("__CUNDEF__"));
}

TEST(Preprocessor, DefineFromApi) {
  PpFixture F;
  Preprocessor PP(F.Interner, F.Diags, F.Headers);
  PP.define("MODE", "3");
  std::vector<Token> Toks = PP.run("#if MODE == 3\nok\n#endif\n", "t.c");
  ASSERT_GE(Toks.size(), 1u);
  EXPECT_EQ(F.Interner.str(Toks[0].Sym), "ok");
}

//===----------------------------------------------------------------------===//
// Registered headers are lexed once per registry.
//===----------------------------------------------------------------------===//

/// Every token field the parser and the diagnostics see, plus the
/// interner and the rendered diagnostics.
std::string dumpRun(const HeaderRegistry &Headers, const std::string &Source) {
  StringInterner Interner;
  DiagnosticEngine Diags;
  Preprocessor PP(Interner, Diags, Headers);
  std::string Out;
  for (const Token &T : PP.run(Source, "t.c"))
    Out += std::to_string(static_cast<int>(T.Kind)) + ' ' +
           std::to_string(T.Sym) + ' ' + std::to_string(T.Loc.File) + ':' +
           std::to_string(T.Loc.Line) + ':' + std::to_string(T.Loc.Col) +
           ' ' + T.Text + '\n';
  for (size_t S = 0; S < Interner.size(); ++S)
    Out += Interner.str(static_cast<Symbol>(S)) + ',';
  return Out + '\n' + Diags.render();
}

TEST(PreprocessorHeaders, EachIncludeGetsItsOwnFileIdInInclusionOrder) {
  PpFixture F;
  F.Headers.add("a.h", "int a_tok;\n");
  F.Headers.add("b.h", "#include <a.h>\nint b_tok;\n");
  Preprocessor PP(F.Interner, F.Diags, F.Headers);
  std::vector<Token> Toks =
      PP.run("#include <a.h>\n#include <b.h>\nint main_tok;\n", "t.c");
  ASSERT_FALSE(F.Diags.hasErrors()) << F.Diags.render();
  std::vector<std::pair<std::string, uint32_t>> Seen;
  for (const Token &T : Toks)
    if (T.is(TokenKind::Identifier))
      Seen.push_back({F.Interner.str(T.Sym), T.Loc.File});
  // t.c is file 1; a.h (direct) 2, b.h 3, a.h (nested in b.h) 4.
  const std::vector<std::pair<std::string, uint32_t>> Expected = {
      {"a_tok", 2}, {"a_tok", 4}, {"b_tok", 3}, {"main_tok", 1}};
  EXPECT_EQ(Seen, Expected);
}

TEST(PreprocessorHeaders, InternerNumberingFollowsFirstAppearance) {
  // Preprocessing must number symbols exactly as lexing the unit and
  // then the header into the compile's own interner would.
  const std::string Header = "int beta, zeta, gamma;\nint beta2;\n";
  const std::string Source = "int zeta;\n#include <h.h>\nint alpha;\n";
  HeaderRegistry Headers;
  Headers.add("h.h", Header);
  StringInterner Expected;
  {
    DiagnosticEngine Diags;
    Preprocessor PP(Expected, Diags, Headers); // interns the builtins
    for (const std::string *Text : {&Source, &Header}) {
      Lexer Lex(*Text, 0, Expected, Diags);
      while (Lex.next().isNot(TokenKind::Eof)) {
      }
    }
  }
  for (int Compile = 0; Compile < 2; ++Compile) {
    SCOPED_TRACE(Compile == 0 ? "first include" : "cached form");
    StringInterner Interner;
    DiagnosticEngine Diags;
    Preprocessor PP(Interner, Diags, Headers);
    PP.run(Source, "t.c");
    ASSERT_EQ(Interner.size(), Expected.size());
    for (Symbol S = 0; S < Expected.size(); ++S)
      EXPECT_EQ(Interner.str(S), Expected.str(S)) << "symbol " << S;
  }
  EXPECT_LT(Expected.lookup("alpha"), Expected.lookup("beta"));
  EXPECT_LT(Expected.lookup("beta"), Expected.lookup("gamma"));
}

TEST(PreprocessorHeaders, HeaderLexErrorIsReportedOnEachInclude) {
  PpFixture F;
  F.Headers.add("bad.h", "int x = '';\n");
  F.expand("#include <bad.h>\n#include <bad.h>\n");
  const std::string Line = "bad.h:1:9: error: empty character constant\n";
  EXPECT_EQ(F.Diags.render(), Line + Line);
}

TEST(PreprocessorHeaders, DefineBeforeIncludeExpandsHeaderTokens) {
  PpFixture F;
  F.Headers.add("w.h", "int arr[WIDTH];\n");
  EXPECT_EQ(F.expand("#define WIDTH 8\n#include <w.h>\n"), "int arr [ 8 ] ;");
  EXPECT_EQ(F.expand("#include <w.h>\n"), "int arr [ WIDTH ] ;");
}

TEST(PreprocessorHeaders, AddAfterLexingServesTheNewText) {
  PpFixture F;
  F.Headers.add("v.h", "#define V 1\n");
  const uint64_t Before = F.Headers.fingerprint();
  EXPECT_EQ(F.expand("#include <v.h>\nV"), "1");
  F.Headers.add("v.h", "#define V 2\n");
  EXPECT_EQ(F.expand("#include <v.h>\nV"), "2");
  EXPECT_NE(F.Headers.fingerprint(), Before);
}

TEST(PreprocessorHeaders, ConcurrentCompilesShareOneRegistry) {
  // Eight threads include the standard headers through one registry
  // whose lexed forms none has built yet; each must see exactly what a
  // single-threaded run over a separate registry sees.
  const std::vector<std::string> Sources = {
      "#include <stdio.h>\n#include <stdlib.h>\nint main(void) "
      "{ printf(\"%d\\n\", INT_MAX); return 0; }\n",
      "#include <string.h>\n#include <limits.h>\nint main(void) "
      "{ char b[8]; memset(b, 0, sizeof b); return CHAR_BIT; }\n",
      "#include <stddef.h>\n#include <stdbool.h>\n#include <stdio.h>\n"
      "bool f(size_t n) { return n != 0 && NULL == 0; }\n"};
  HeaderRegistry Reference;
  registerStandardHeaders(Reference);
  std::vector<std::string> Expected;
  for (const std::string &S : Sources)
    Expected.push_back(dumpRun(Reference, S));

  HeaderRegistry Shared;
  registerStandardHeaders(Shared);
  constexpr int Threads = 8;
  std::vector<std::vector<std::string>> Got(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (size_t I = 0; I < Sources.size(); ++I) {
        const std::string &S = Sources[(I + T) % Sources.size()];
        Got[T].push_back(dumpRun(Shared, S));
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 0; T < Threads; ++T)
    for (size_t I = 0; I < Sources.size(); ++I)
      EXPECT_EQ(Got[T][I], Expected[(I + T) % Sources.size()])
          << "thread " << T << " source " << (I + T) % Sources.size();
}

//===----------------------------------------------------------------------===//
// Macro expansion depth.
//===----------------------------------------------------------------------===//

/// "#define A0 A1" ... "#define A<N-1> 7" and a use of A0.
std::string macroChain(unsigned N) {
  std::string S;
  for (unsigned I = 0; I + 1 < N; ++I)
    S += "#define A" + std::to_string(I) + " A" + std::to_string(I + 1) + "\n";
  return S + "#define A" + std::to_string(N - 1) + " 7\nA0\n";
}

/// N nested invocations of an identity macro around 7.
std::string nestedCalls(unsigned N) {
  std::string S = "#define F(x) x\n";
  for (unsigned I = 0; I < N; ++I)
    S += "F(";
  S += "7";
  return S + std::string(N, ')') + "\n";
}

TEST(PreprocessorLimits, ExpansionWithinTheDepthLimitWorks) {
  PpFixture F;
  EXPECT_EQ(F.expand(macroChain(200)), "7");
  EXPECT_EQ(F.expand(nestedCalls(200)), "7");
  EXPECT_FALSE(F.Diags.hasErrors()) << F.Diags.render();
}

TEST(PreprocessorLimits, ExpansionPastTheDepthLimitIsOneError) {
  for (const std::string &Source : {macroChain(4000), nestedCalls(4000)}) {
    PpFixture F;
    F.expand(Source);
    ASSERT_EQ(F.Diags.errorCount(), 1u) << F.Diags.render();
    EXPECT_NE(F.Diags.render().find("depth limit of 256"), std::string::npos)
        << F.Diags.render();
  }
}

} // namespace
