//===- text/Preprocessor.h - C preprocessor -------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained C preprocessor: object- and function-like macros
/// (with # stringize and ## paste), #include resolved against a virtual
/// header registry (the libc module registers <stdio.h> etc.; tests can
/// register their own headers), #if/#ifdef/#elif/#else/#endif with full
/// integer constant expressions, #undef, #error, and the __LINE__ /
/// __FILE__ builtins. Its output is the keyword-promoted token stream
/// the parser consumes.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TEXT_PREPROCESSOR_H
#define CUNDEF_TEXT_PREPROCESSOR_H

#include "support/Diagnostics.h"
#include "support/Hash.h"
#include "support/StringInterner.h"
#include "text/Token.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace cundef {

struct Prelude;

/// A registered header, lexed once per registry. Every #include of it
/// copies this form instead of lexing the text again.
struct LexedHeader {
  /// The raw tokens, with Loc.File 0. An identifier's Sym indexes
  /// Spellings, not the interner of any compile.
  std::vector<Token> Tokens;
  /// The header's distinct identifier spellings, numbered in order of
  /// first appearance. Interning them into a compile's interner in that
  /// order numbers them exactly as lexing the text into it would.
  StringInterner Spellings;
  /// The lexer's diagnostics in the order it reported them, Loc.File 0.
  std::vector<Diagnostic> Diags;
};

/// Maps header names to their contents. There is no real filesystem:
/// every includable file is registered here (standard headers by
/// libc/Headers.cpp, extra files by tests or callers). Concurrent
/// compiles may share one registry; add() must not run alongside them.
class HeaderRegistry {
public:
  /// Registers or replaces header \p Name, dropping its lexed form and
  /// the fingerprint memo.
  void add(std::string Name, std::string Content) {
    Entry &E = Files[std::move(Name)];
    E.Content = std::move(Content);
    E.Lexed.reset();
    FingerprintMemo.store(0, std::memory_order_relaxed);
    Preludes.clear();
  }

  /// The lexed form of header \p Name, or null when none is registered.
  /// The first request lexes the text under the registry's lock; the
  /// form stays immutable until add() replaces the header.
  const LexedHeader *lexed(const std::string &Name) const;

  size_t size() const { return Files.size(); }

  /// Bound on the keys of preludes one registry keeps (each distinct
  /// include block and target takes one slot, also when its prelude
  /// turned out ineligible). Past it, new keys get no prelude.
  static constexpr size_t kMaxPreludes = 32;

  /// The prelude under \p Key (frontend/Prelude.h): null on the key's
  /// first request, built by \p Build on its second, one build at a
  /// time; null also when \p Build returned null or the bound is full.
  /// Like lexed() forms, preludes stay immutable until add() drops
  /// them all.
  std::shared_ptr<const Prelude>
  prelude(const std::string &Key,
          const std::function<std::shared_ptr<const Prelude>()> &Build) const;

  /// Keys prelude() has taken since the last add().
  size_t preludeCount() const;

  /// Content digest of the whole registry (every name and body, in the
  /// map's deterministic order). The translation cache folds this into
  /// its content address, so registering or editing a header — even
  /// after an engine started — invalidates every cached artifact that
  /// could have included it; a mutated registry can never silently
  /// serve stale ASTs. Every submission asks for it, so the digest is
  /// memoized until the next add() (a digest of 0 is just recomputed).
  uint64_t fingerprint() const {
    uint64_t Fp = FingerprintMemo.load(std::memory_order_relaxed);
    if (Fp != 0)
      return Fp;
    WordHasher H;
    H.u64(Files.size());
    for (const auto &[Name, E] : Files) {
      H.str(Name);
      H.str(E.Content);
    }
    Fp = H.digest();
    FingerprintMemo.store(Fp, std::memory_order_relaxed);
    return Fp;
  }

private:
  struct Entry {
    std::string Content;
    /// Built by lexed() under Mu.
    mutable std::unique_ptr<const LexedHeader> Lexed;
  };
  std::map<std::string, Entry> Files;
  mutable std::mutex Mu;
  mutable std::atomic<uint64_t> FingerprintMemo{0};
  /// Filled by prelude() under PreludeMu (empty until a key's second
  /// request); a build takes Mu via lexed().
  mutable std::map<std::string, std::optional<std::shared_ptr<const Prelude>>>
      Preludes;
  mutable std::mutex PreludeMu;
};

/// The leading block of a source's `#include <name>` lines, found by a
/// conservative textual scan: whole lines of blanks, comments (one that
/// spans lines only where no token precedes it on its line) and
/// `#include <name>` directives whose names are words joined by '.' or
/// '/'. Lexing the source from End at line Lines + 1 yields the tokens a
/// whole-source lex yields there.
struct IncludePrefix {
  std::vector<std::string> Headers; ///< names in include order
  size_t End = 0;                   ///< byte offset just past the block
  uint32_t Lines = 0;               ///< lines the block spans
};

IncludePrefix scanIncludePrefix(const std::string &Source);

/// A macro definition.
struct MacroDef {
  bool FunctionLike = false;
  bool Variadic = false;
  /// An #undef of a base macro, recorded in the overlay.
  bool Undefined = false;
  std::vector<Symbol> Params;
  std::vector<Token> Body;
};

/// The preprocessor's state after a prelude's include block, frozen. A
/// preprocessor continuing from it starts with these macros (as a base
/// its own definitions overlay), file ids and file names.
struct PreprocessorState {
  std::map<Symbol, MacroDef> Macros;
  /// File names by id, as registered with the diagnostics (id 1, the
  /// main file, is renamed by each compile).
  std::vector<std::string> Files;
  uint32_t NextFileId = 2;
};

/// A token vector taken from the calling thread's spares and given
/// back, emptied, when it goes out of scope. A unit's raw tokens and
/// its output are the largest blocks a compile allocates; reusing them
/// across the compiles a thread runs keeps them off the allocator. A
/// vector an outlier grew past RetainedTokens (512 KiB, a source of
/// about 24 KB) is freed instead, so a thread keeps at most 1 MiB.
class TokenBuffer {
public:
  static constexpr size_t RetainedTokens = size_t(1) << 13;

  TokenBuffer();
  ~TokenBuffer();
  TokenBuffer(const TokenBuffer &) = delete;
  TokenBuffer &operator=(const TokenBuffer &) = delete;

  std::vector<Token> Toks;
};

class Preprocessor {
public:
  /// \p Base, when given, is the state to continue from; it must
  /// outlive the preprocessor and is never written.
  Preprocessor(StringInterner &Interner, DiagnosticEngine &Diags,
               const HeaderRegistry &Headers,
               const PreprocessorState *Base = nullptr);

  /// Preprocesses \p Source (named \p FileName for diagnostics) and
  /// returns the fully expanded, keyword-promoted token stream,
  /// terminated by an Eof token. \p Skip, when given, is the source's
  /// include block, already translated into the base: lexing starts
  /// after it.
  std::vector<Token> run(const std::string &Source,
                         const std::string &FileName,
                         const IncludePrefix *Skip = nullptr);
  /// run() into \p Out, replacing its contents and reusing its storage.
  void run(const std::string &Source, const std::string &FileName,
           const IncludePrefix *Skip, std::vector<Token> &Out);

  /// The state after run(), for a prelude. Leaves the preprocessor
  /// empty.
  PreprocessorState takeState();

  /// Predefines an object-like macro, as with a -D command line option.
  /// \p Body is lexed as C tokens.
  void define(const std::string &Name, const std::string &Body);

  bool isDefined(const std::string &Name) const;

  /// Bound on nested macro expansions (a macro whose replacement or
  /// argument expands another macro nests one level deeper), so a long
  /// #define chain or a deeply nested invocation is a compile error
  /// instead of a quadratic blow-up. C11 5.2.4.1 sets no minimum; real
  /// code nests a handful of levels.
  static constexpr unsigned kMaxExpansionDepth = 256;

private:
  /// Thrown past kMaxExpansionDepth (after reporting it) and caught by
  /// run(), which abandons the unit.
  struct ExpansionLimitExceeded {};

  /// Lexes the main file from \p Skip's end into raw tokens as file 1.
  void lexMainFile(const std::string &Source, const std::string &Name,
                   const IncludePrefix *Skip, std::vector<Token> &Out);

  /// The definition in effect for \p Sym, or null.
  const MacroDef *findMacro(Symbol Sym) const;

  /// The raw tokens of one #include of \p Header: a copy of its lexed
  /// form under a fresh file id registered as \p Name, its spellings
  /// interned into this compile's interner, and its lexer diagnostics
  /// reported again.
  std::vector<Token> copyHeader(const LexedHeader &Header,
                                const std::string &Name);

  /// Processes a raw token vector: executes directives, expands macros,
  /// appends surviving tokens to \p Out.
  void processTokens(const std::vector<Token> &Toks, std::vector<Token> &Out,
                     int IncludeDepth);

  /// Handles one directive beginning at Toks[HashIdx]; returns the index
  /// one past the directive's last token (or past the matched #endif for
  /// skipped conditional groups).
  size_t processDirective(const std::vector<Token> &Toks, size_t HashIdx,
                          std::vector<Token> &Out, int IncludeDepth);

  /// Index one past the last token on the line containing Toks[Idx].
  size_t lineEnd(const std::vector<Token> &Toks, size_t Idx) const;

  /// Skips a failed conditional group: returns the index of the next
  /// #elif/#else/#endif at the same nesting depth (pointing at its '#').
  size_t skipConditionalGroup(const std::vector<Token> &Toks, size_t Idx,
                              bool StopAtElse) const;

  /// After a failed #if/#ifdef/#elif group was skipped, \p Idx points at
  /// the '#' of the continuation directive; decides whether to enter it.
  size_t dispatchConditionalContinuation(const std::vector<Token> &Toks,
                                         size_t Idx, std::vector<Token> &Out,
                                         int IncludeDepth);

  /// Macro expansion: expands the \p N ordinary tokens at \p In against
  /// the current macro table. \p Hidden lists the macros being expanded
  /// (disabled here); it is restored before returning. \p Depth counts
  /// the enclosing expansions.
  void expandInto(const Token *In, size_t N, std::vector<Symbol> &Hidden,
                  std::vector<Token> &Out, unsigned Depth);

  /// A macro argument: a run of the token sequence being expanded.
  struct TokenRange {
    const Token *First = nullptr;
    size_t Size = 0;
    const Token *begin() const { return First; }
    const Token *end() const { return First + Size; }
  };

  /// Substitutes arguments into a macro body (handling # and ##);
  /// arguments are expanded one level deeper than \p Depth.
  std::vector<Token> substitute(const MacroDef &Macro,
                                const std::vector<TokenRange> &Args,
                                SourceLoc ExpansionLoc, unsigned Depth);

  /// Evaluates a #if controlling expression.
  long long evaluateCondition(std::vector<Token> Line, SourceLoc Loc);

  /// Spelling of \p Tok as it would appear in source (for # and ##).
  std::string spellingOf(const Token &Tok) const;

  /// Re-lexes pasted text into exactly one token if possible.
  bool relexPasted(const std::string &Text, SourceLoc Loc, Token &Out);

  /// Promotes identifier tokens whose spelling is a keyword.
  void promoteKeywords(std::vector<Token> &Toks) const;

  StringInterner &Interner;
  DiagnosticEngine &Diags;
  const HeaderRegistry &Headers;
  const PreprocessorState *Base;
  std::map<Symbol, MacroDef> Macros;
  uint32_t NextFileId;
  Symbol SymDefined, SymVaArgs, SymLine, SymFile;
  std::string CurrentFileName;
};

} // namespace cundef

#endif // CUNDEF_TEXT_PREPROCESSOR_H
