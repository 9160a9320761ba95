//===- frontend/Frontend.cpp - The frontend pipeline ---------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"

#include "frontend/Prelude.h"

#include "libc/Builtins.h"
#include "parse/Parser.h"
#include "sema/Sema.h"
#include "support/Hash.h"
#include "static/FlowChecker.h"
#include "text/Preprocessor.h"
#include "ub/StaticChecks.h"

#include <chrono>

using namespace cundef;

uint64_t cundef::targetConfigFingerprint(const TargetConfig &T) {
  WordHasher H;
  H.u32(T.ShortSize);
  H.u32(T.IntSize);
  H.u32(T.LongSize);
  H.u32(T.LongLongSize);
  H.u32(T.PointerSize);
  H.u32(T.FloatSize);
  H.u32(T.DoubleSize);
  H.u32(T.BoolSize);
  H.u32(T.MaxAlign);
  H.u8(T.CharIsSigned ? 1 : 0);
  H.u8(T.ArithmeticRightShift ? 1 : 0);
  return H.digest();
}

TranslationKey cundef::translationKeyFor(const FrontendOptions &Opts,
                                         const std::string &Source,
                                         const std::string &Name,
                                         uint64_t HeadersFingerprint) {
  TranslationKey Key;
  // Length-prefixed fields (WordHasher::str) so ("ab", "c") never collides
  // with ("a", "bc").
  WordHasher Src;
  Src.str(Name);
  Src.str(Source);
  Key.SourceHash = Src.digest();

  WordHasher Ctx;
  Ctx.u64(targetConfigFingerprint(Opts.Target));
  Ctx.u8(Opts.StaticChecks ? 1 : 0);
  Ctx.u8(Opts.StaticChecks && Opts.FlowChecks ? 1 : 0);
  Ctx.u64(HeadersFingerprint);
  Key.ContextHash = Ctx.digest();
  return Key;
}

std::shared_ptr<const Prelude>
cundef::preludeFor(const FrontendOptions &Opts, const IncludePrefix &Prefix,
                   const HeaderRegistry &Headers) {
  if (Prefix.Headers.empty())
    return nullptr;
  // Only the target reaches a prelude: the static-checks flags act on
  // the whole unit after parsing.
  uint64_t Target = targetConfigFingerprint(Opts.Target);
  std::string Key(reinterpret_cast<const char *>(&Target), sizeof Target);
  for (const std::string &Name : Prefix.Headers) {
    Key += Name;
    Key += '\n';
  }
  return Headers.prelude(Key, [&]() -> std::shared_ptr<const Prelude> {
    std::string Source;
    for (const std::string &Name : Prefix.Headers)
      Source += "#include <" + Name + ">\n";
    auto P = std::make_shared<Prelude>();
    DiagnosticEngine Diags;
    Preprocessor PP(P->Interner, Diags, Headers);
    std::vector<Token> Toks = PP.run(Source, "<prelude>");
    if (!Diags.all().empty())
      return nullptr;
    P->Ast = std::make_unique<AstContext>(Opts.Target, P->Interner);
    Parser Parse(std::move(Toks), *P->Ast, Diags);
    Parse.parseTranslationUnit();
    // Only macros, typedefs and prototypes: a unit's sema and static
    // checks then only read what it shares.
    bool Eligible = Diags.all().empty() && P->Ast->TU.Globals.empty() &&
                    !P->Ast->Types.hasTagTypes();
    for (const FunctionDecl *F : P->Ast->TU.Functions)
      Eligible = Eligible && !F->Body;
    if (!Eligible)
      return nullptr;
    assignBuiltinIds(*P->Ast);
    P->Text = PP.takeState();
    P->FileScope = Parse.takeState();
    return P;
  });
}

namespace cundef {

/// The one producer of CompiledProgram (its friend): assembles the
/// artifact mutably, then releases it as shared-const.
class FrontendPipeline {
public:
  /// \p Pre is null or the prelude of \p Prefix, the source's include
  /// block; the compile continues from it.
  static CompiledProgramRef run(const FrontendOptions &Opts,
                                const std::string &Source,
                                const std::string &Name,
                                const HeaderRegistry &Headers,
                                std::shared_ptr<const Prelude> Pre,
                                const IncludePrefix &Prefix,
                                const TranslationKey *PrecomputedKey) {
    auto Start = std::chrono::steady_clock::now();
    auto Result = std::shared_ptr<CompiledProgram>(new CompiledProgram());
    // Only cache-addressed compiles carry a content address; deriving
    // one here for uncached compiles would hash the source plus the
    // whole header registry for a field nobody reads on that path.
    if (PrecomputedKey)
      Result->Key = *PrecomputedKey;
    Result->Base = std::move(Pre);
    const Prelude *Base = Result->Base.get();
    Result->Interner =
        std::make_unique<StringInterner>(Base ? &Base->Interner : nullptr);
    DiagnosticEngine Diags;
    Preprocessor PP(*Result->Interner, Diags, Headers,
                    Base ? &Base->Text : nullptr);
    TokenBuffer Buffer;
    PP.run(Source, Name, Base ? &Prefix : nullptr, Buffer.Toks);
    if (Diags.hasErrors()) {
      Result->Errors = Diags.render();
      finish(*Result, Start);
      return Result;
    }
    Result->Ast = std::make_unique<AstContext>(
        Opts.Target, *Result->Interner, Base ? Base->Ast.get() : nullptr);
    Parser P(std::move(Buffer.Toks), *Result->Ast, Diags,
             Base ? &Base->FileScope : nullptr);
    bool ParseOk = P.parseTranslationUnit();
    Buffer.Toks = P.takeTokens();
    // Builtin ids come before the syntactic checker: its va_start/
    // va_arg checks recognize __cundef_va_arg by builtin id. They are
    // assigned also when parsing failed, as a prelude's already are.
    assignBuiltinIds(*Result->Ast);
    UbSink StaticSink;
    UbSink HintSink;
    if (ParseOk) {
      Sema S(*Result->Ast, Diags, StaticSink);
      S.run();
      if (Opts.StaticChecks) {
        StaticChecker Checker(*Result->Ast, StaticSink);
        Checker.run();
      }
      // The flow layer reads Sema-computed facts (cast kinds, field
      // indices, case values), so it only runs on clean units.
      if (Opts.StaticChecks && Opts.FlowChecks && !Diags.hasErrors()) {
        FlowChecker Flow(*Result->Ast, StaticSink, HintSink);
        Flow.run();
      }
    }
    Result->StaticUb = StaticSink.all();
    Result->StaticHints = HintSink.all();
    // Syntactic findings are definite by construction (constant
    // expressions evaluated at compile time); stamp the ones the flow
    // layer didn't already annotate.
    for (UbReport &R : Result->StaticUb)
      if (R.Verdict == FindingVerdict::None) {
        R.Verdict = FindingVerdict::Must;
        R.Domain = "syntactic";
      }
    Result->Errors = Diags.render();
    Result->Ok = !Diags.hasErrors();
    finish(*Result, Start);
    return Result;
  }

private:
  static void finish(CompiledProgram &P,
                     std::chrono::steady_clock::time_point Start) {
    P.FrontendMicros = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
  }
};

} // namespace cundef

CompiledProgramRef
cundef::compileTranslationUnit(const FrontendOptions &Opts,
                               const std::string &Source,
                               const std::string &Name,
                               const HeaderRegistry &Headers,
                               const TranslationKey *PrecomputedKey) {
  IncludePrefix Prefix = scanIncludePrefix(Source);
  return FrontendPipeline::run(Opts, Source, Name, Headers,
                               preludeFor(Opts, Prefix, Headers), Prefix,
                               PrecomputedKey);
}

CompiledProgramRef
cundef::compileWithPrelude(const FrontendOptions &Opts,
                           const std::string &Source, const std::string &Name,
                           const HeaderRegistry &Headers,
                           std::shared_ptr<const Prelude> P) {
  IncludePrefix Prefix = P ? scanIncludePrefix(Source) : IncludePrefix();
  return FrontendPipeline::run(Opts, Source, Name, Headers, std::move(P),
                               Prefix, nullptr);
}
