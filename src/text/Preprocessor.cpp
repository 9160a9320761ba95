//===- text/Preprocessor.cpp - C preprocessor -----------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "text/Preprocessor.h"

#include "support/Strings.h"
#include "text/Lexer.h"
#include "text/Numbers.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <string_view>
#include <unordered_map>

using namespace cundef;

namespace {

/// Token buffers are reserved up front: a Token is 64 bytes, and
/// growing a vector of them one doubling at a time shows up as malloc
/// and free time. Over the Juliet and desktop programs a raw token
/// takes 3.1 to 4.3 source bytes (median 3.7), and included headers
/// add at most 385 tokens to a unit's output.
constexpr size_t BytesPerTokenEstimate = 3;
constexpr size_t OutHeadroom = 512;

/// The calling thread's spare token vectors: a compile holds two at
/// once (its raw tokens and its output).
constexpr size_t MaxSpareBuffers = 2;
std::vector<std::vector<Token>> &spareTokenBuffers() {
  thread_local std::vector<std::vector<Token>> Spares;
  return Spares;
}

/// Precedence-climbing evaluator for #if controlling expressions.
/// Operates over already-expanded tokens; unknown identifiers are 0.
class CondParser {
public:
  CondParser(const std::vector<Token> &Toks, DiagnosticEngine &Diags,
             SourceLoc Loc)
      : Toks(Toks), Diags(Diags), Loc(Loc) {}

  long long parse() {
    long long V = parseTernary();
    if (Pos < Toks.size())
      Diags.error(Loc, "trailing tokens in #if expression");
    return V;
  }

private:
  const Token &peek() const {
    static Token EofTok;
    return Pos < Toks.size() ? Toks[Pos] : EofTok;
  }
  Token take() {
    Token T = peek();
    if (Pos < Toks.size())
      ++Pos;
    return T;
  }
  bool consume(TokenKind K) {
    if (peek().Kind != K)
      return false;
    ++Pos;
    return true;
  }

  long long parseTernary() {
    long long Cond = parseBinary(0);
    if (!consume(TokenKind::Question))
      return Cond;
    long long Then = parseTernary();
    if (!consume(TokenKind::Colon))
      Diags.error(Loc, "expected ':' in #if expression");
    long long Else = parseTernary();
    return Cond ? Then : Else;
  }

  static int precedenceOf(TokenKind K) {
    switch (K) {
    case TokenKind::PipePipe:       return 1;
    case TokenKind::AmpAmp:         return 2;
    case TokenKind::Pipe:           return 3;
    case TokenKind::Caret:          return 4;
    case TokenKind::Amp:            return 5;
    case TokenKind::EqualEqual:
    case TokenKind::BangEqual:      return 6;
    case TokenKind::Less:
    case TokenKind::Greater:
    case TokenKind::LessEqual:
    case TokenKind::GreaterEqual:   return 7;
    case TokenKind::LessLess:
    case TokenKind::GreaterGreater: return 8;
    case TokenKind::Plus:
    case TokenKind::Minus:          return 9;
    case TokenKind::Star:
    case TokenKind::Slash:
    case TokenKind::Percent:        return 10;
    default:                        return -1;
    }
  }

  long long parseBinary(int MinPrec) {
    long long Lhs = parseUnary();
    while (true) {
      int Prec = precedenceOf(peek().Kind);
      if (Prec < MinPrec || Prec < 0)
        return Lhs;
      TokenKind Op = take().Kind;
      long long Rhs = parseBinary(Prec + 1);
      Lhs = apply(Op, Lhs, Rhs);
    }
  }

  long long apply(TokenKind Op, long long L, long long R) {
    switch (Op) {
    case TokenKind::PipePipe:       return (L || R) ? 1 : 0;
    case TokenKind::AmpAmp:         return (L && R) ? 1 : 0;
    case TokenKind::Pipe:           return L | R;
    case TokenKind::Caret:          return L ^ R;
    case TokenKind::Amp:            return L & R;
    case TokenKind::EqualEqual:     return L == R;
    case TokenKind::BangEqual:      return L != R;
    case TokenKind::Less:           return L < R;
    case TokenKind::Greater:        return L > R;
    case TokenKind::LessEqual:      return L <= R;
    case TokenKind::GreaterEqual:   return L >= R;
    case TokenKind::LessLess:       return R >= 0 && R < 63 ? L << R : 0;
    case TokenKind::GreaterGreater: return R >= 0 && R < 63 ? L >> R : 0;
    case TokenKind::Plus:           return L + R;
    case TokenKind::Minus:          return L - R;
    case TokenKind::Star:           return L * R;
    case TokenKind::Slash:
      if (R == 0) {
        Diags.error(Loc, "division by zero in #if expression");
        return 0;
      }
      return L / R;
    case TokenKind::Percent:
      if (R == 0) {
        Diags.error(Loc, "remainder by zero in #if expression");
        return 0;
      }
      return L % R;
    default:
      return 0;
    }
  }

  long long parseUnary() {
    if (consume(TokenKind::Bang))
      return !parseUnary();
    if (consume(TokenKind::Tilde))
      return ~parseUnary();
    if (consume(TokenKind::Minus))
      return -parseUnary();
    if (consume(TokenKind::Plus))
      return parseUnary();
    return parsePrimary();
  }

  long long parsePrimary() {
    const Token &T = peek();
    if (T.Kind == TokenKind::IntLiteral || T.Kind == TokenKind::CharLiteral) {
      DecodedInt D = decodeIntLiteral(take().Text);
      if (!D.Valid)
        Diags.error(Loc, "malformed integer in #if expression");
      return static_cast<long long>(D.Value);
    }
    if (T.Kind == TokenKind::Identifier) {
      take();
      return 0; // Undefined identifiers evaluate to 0 (C11 6.10.1p4).
    }
    if (consume(TokenKind::LParen)) {
      long long V = parseTernary();
      if (!consume(TokenKind::RParen))
        Diags.error(Loc, "expected ')' in #if expression");
      return V;
    }
    Diags.error(Loc, "malformed #if expression");
    take();
    return 0;
  }

  const std::vector<Token> &Toks;
  DiagnosticEngine &Diags;
  SourceLoc Loc;
  size_t Pos = 0;
};

} // namespace

Preprocessor::Preprocessor(StringInterner &Interner, DiagnosticEngine &Diags,
                           const HeaderRegistry &Headers,
                           const PreprocessorState *Base)
    : Interner(Interner), Diags(Diags), Headers(Headers), Base(Base),
      NextFileId(Base ? Base->NextFileId : 2) {
  SymDefined = Interner.intern("defined");
  SymVaArgs = Interner.intern("__VA_ARGS__");
  SymLine = Interner.intern("__LINE__");
  SymFile = Interner.intern("__FILE__");
  if (Base) {
    for (uint32_t Id = 2; Id < Base->Files.size(); ++Id)
      Diags.registerFile(Id, Base->Files[Id]);
    return; // the base defined the predefined macros
  }
  define("__CUNDEF__", "1");
  define("__STDC__", "1");
}

void Preprocessor::define(const std::string &Name, const std::string &Body) {
  DiagnosticEngine Scratch;
  Lexer Lex(Body, /*FileId=*/0, Interner, Scratch);
  MacroDef Def;
  for (Token T = Lex.next(); T.isNot(TokenKind::Eof); T = Lex.next())
    Def.Body.push_back(T);
  Macros[Interner.intern(Name)] = std::move(Def);
}

bool Preprocessor::isDefined(const std::string &Name) const {
  Symbol Sym = Interner.lookup(Name);
  return Sym != NoSymbol && findMacro(Sym);
}

const MacroDef *Preprocessor::findMacro(Symbol Sym) const {
  auto It = Macros.find(Sym);
  if (It != Macros.end())
    return It->second.Undefined ? nullptr : &It->second;
  if (Base) {
    auto BaseIt = Base->Macros.find(Sym);
    if (BaseIt != Base->Macros.end())
      return &BaseIt->second;
  }
  return nullptr;
}

PreprocessorState Preprocessor::takeState() {
  PreprocessorState State;
  State.Macros = std::move(Macros);
  State.Files = Diags.files();
  State.NextFileId = NextFileId;
  return State;
}

const LexedHeader *HeaderRegistry::lexed(const std::string &Name) const {
  auto It = Files.find(Name);
  if (It == Files.end())
    return nullptr;
  const Entry &E = It->second;
  std::lock_guard<std::mutex> Lock(Mu);
  if (!E.Lexed) {
    auto Form = std::make_unique<LexedHeader>();
    DiagnosticEngine LexDiags;
    Lexer Lex(E.Content, /*FileId=*/0, Form->Spellings, LexDiags);
    for (Token T = Lex.next(); T.isNot(TokenKind::Eof); T = Lex.next())
      Form->Tokens.push_back(std::move(T));
    Form->Diags = LexDiags.all();
    E.Lexed = std::move(Form);
  }
  return E.Lexed.get();
}

std::shared_ptr<const Prelude> HeaderRegistry::prelude(
    const std::string &Key,
    const std::function<std::shared_ptr<const Prelude>()> &Build) const {
  std::lock_guard<std::mutex> Lock(PreludeMu);
  auto [It, New] = Preludes.try_emplace(Key);
  if (New) {
    // A block seen once is translated in place: a single compile, such
    // as a cold kcc process's, never pays for a prelude it cannot share.
    if (Preludes.size() > kMaxPreludes)
      Preludes.erase(It);
    return nullptr;
  }
  if (!It->second)
    It->second = Build();
  return *It->second;
}

size_t HeaderRegistry::preludeCount() const {
  std::lock_guard<std::mutex> Lock(PreludeMu);
  return Preludes.size();
}

namespace {

bool isHorizontalSpace(char C) {
  return C == ' ' || C == '\t' || C == '\r' || C == '\v' || C == '\f';
}

bool isWordChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Whether \p Line holds only blanks, comments and at most one
/// `#include <name>`, the line's first token, whose name goes to \p Name.
/// The name is words joined by single '.' or '/', so its tokens spell it
/// exactly. A block comment may span lines only where no token precedes
/// it on its line: the lexer then still sees the next token after it as
/// a line start. \p InComment carries an open comment from line to line.
bool scanPrefixLine(std::string_view Line, std::string &Name,
                    bool &InComment) {
  if (Line.find('\\') != std::string_view::npos)
    return false; // a line splice could join the next line
  size_t I = 0;
  if (InComment) {
    I = Line.find("*/");
    if (I == std::string_view::npos)
      return true;
    I += 2;
    InComment = false;
  }
  while (I < Line.size()) {
    if (isHorizontalSpace(Line[I])) {
      ++I;
    } else if (Line.compare(I, 2, "//") == 0) {
      return true;
    } else if (Line.compare(I, 2, "/*") == 0) {
      I = Line.find("*/", I + 2);
      if (I == std::string_view::npos) {
        InComment = Name.empty();
        return InComment;
      }
      I += 2;
    } else if (Line[I] == '#' && Name.empty()) {
      I = Line.find_first_not_of(" \t", I + 1);
      if (I == std::string_view::npos || Line.compare(I, 7, "include"))
        return false;
      I = Line.find_first_not_of(" \t", I + 7);
      if (I == std::string_view::npos || Line[I] != '<')
        return false;
      size_t Start = ++I;
      for (char Prev = '/'; I < Line.size() && Line[I] != '>'; Prev = Line[I++])
        if (!(std::isalpha(static_cast<unsigned char>(Line[I])) ||
              Line[I] == '_' ||
              (isWordChar(Prev) && (std::isdigit(Line[I]) || Line[I] == '.' ||
                                    Line[I] == '/'))))
          return false;
      if (I == Line.size() || I == Start || !isWordChar(Line[I - 1]))
        return false;
      Name = std::string(Line.substr(Start, I++ - Start));
    } else {
      return false;
    }
  }
  return true;
}

} // namespace

IncludePrefix cundef::scanIncludePrefix(const std::string &Source) {
  IncludePrefix Result;
  bool InComment = false;
  uint32_t Lines = 0;
  for (size_t Pos = 0; Pos < Source.size();) {
    size_t Eol = std::min(Source.find('\n', Pos), Source.size());
    std::string Name;
    if (!scanPrefixLine(std::string_view(Source).substr(Pos, Eol - Pos),
                        Name, InComment))
      break;
    if (!Name.empty())
      Result.Headers.push_back(std::move(Name));
    Pos = Eol + 1;
    ++Lines;
    if (!InComment) { // the block may end here
      Result.End = std::min(Pos, Source.size());
      Result.Lines = Lines;
    }
  }
  return Result.Headers.empty() ? IncludePrefix() : Result;
}

void Preprocessor::lexMainFile(const std::string &Source,
                               const std::string &Name,
                               const IncludePrefix *Skip,
                               std::vector<Token> &Out) {
  Diags.registerFile(1, Name);
  size_t Begin = Skip ? Skip->End : 0;
  Lexer Lex(Source, /*FileId=*/1, Interner, Diags, Begin,
            Skip ? Skip->Lines + 1 : 1);
  Out.reserve((Source.size() - Begin) / BytesPerTokenEstimate);
  for (Token T = Lex.next(); T.isNot(TokenKind::Eof); T = Lex.next())
    Out.push_back(std::move(T));
}

std::vector<Token> Preprocessor::copyHeader(const LexedHeader &Header,
                                            const std::string &Name) {
  uint32_t FileId = NextFileId++;
  Diags.registerFile(FileId, Name);
  std::vector<Symbol> Syms(Header.Spellings.size(), NoSymbol);
  for (Symbol S = 1; S < Syms.size(); ++S)
    Syms[S] = Interner.intern(Header.Spellings.str(S));
  for (const Diagnostic &D : Header.Diags) {
    SourceLoc Loc(FileId, D.Loc.Line, D.Loc.Col);
    if (D.Severity == DiagSeverity::Error)
      Diags.error(Loc, D.Message);
    else
      Diags.warning(Loc, D.Message);
  }
  std::vector<Token> Toks(Header.Tokens);
  for (Token &T : Toks) {
    T.Loc.File = FileId;
    if (T.is(TokenKind::Identifier))
      T.Sym = Syms[T.Sym];
  }
  return Toks;
}

TokenBuffer::TokenBuffer() {
  std::vector<std::vector<Token>> &Spares = spareTokenBuffers();
  if (!Spares.empty()) {
    Toks = std::move(Spares.back());
    Spares.pop_back();
  }
}

TokenBuffer::~TokenBuffer() {
  std::vector<std::vector<Token>> &Spares = spareTokenBuffers();
  if (Spares.size() < MaxSpareBuffers && Toks.capacity() <= RetainedTokens) {
    Toks.clear();
    Spares.push_back(std::move(Toks));
  }
}

std::vector<Token> Preprocessor::run(const std::string &Source,
                                     const std::string &FileName,
                                     const IncludePrefix *Skip) {
  std::vector<Token> Out;
  run(Source, FileName, Skip, Out);
  return Out;
}

void Preprocessor::run(const std::string &Source, const std::string &FileName,
                       const IncludePrefix *Skip, std::vector<Token> &Out) {
  TokenBuffer Raw;
  lexMainFile(Source, FileName, Skip, Raw.Toks);
  CurrentFileName = FileName;
  Out.clear();
  Out.reserve(Raw.Toks.size() + (Base ? 0 : OutHeadroom));
  try {
    processTokens(Raw.Toks, Out, /*IncludeDepth=*/0);
  } catch (const ExpansionLimitExceeded &) {
    // Reported where it was hit; the unit is abandoned.
  }
  promoteKeywords(Out);
  Token Eof;
  Eof.Kind = TokenKind::Eof;
  Eof.Loc = Out.empty() ? SourceLoc(1, 1, 1) : Out.back().Loc;
  Out.push_back(Eof);
}

size_t Preprocessor::lineEnd(const std::vector<Token> &Toks,
                             size_t Idx) const {
  size_t End = Idx + 1;
  while (End < Toks.size() && !Toks[End].AtLineStart)
    ++End;
  return End;
}

void Preprocessor::processTokens(const std::vector<Token> &Toks,
                                 std::vector<Token> &Out, int IncludeDepth) {
  std::vector<Symbol> Hidden;
  size_t Run = 0; // ordinary tokens [Run, I) await expansion
  size_t I = 0;
  while (I < Toks.size()) {
    const Token &T = Toks[I];
    if (T.is(TokenKind::Hash) && T.AtLineStart) {
      expandInto(Toks.data() + Run, I - Run, Hidden, Out, 0);
      Run = I = processDirective(Toks, I, Out, IncludeDepth);
      continue;
    }
    ++I;
  }
  expandInto(Toks.data() + Run, I - Run, Hidden, Out, 0);
}

size_t Preprocessor::skipConditionalGroup(const std::vector<Token> &Toks,
                                          size_t Idx,
                                          bool StopAtElse) const {
  // Idx points just past the failed directive's line. Scan for the
  // matching #elif/#else (when StopAtElse) or #endif.
  int Depth = 0;
  size_t I = Idx;
  while (I < Toks.size()) {
    const Token &T = Toks[I];
    if (T.is(TokenKind::Hash) && T.AtLineStart && I + 1 < Toks.size() &&
        Toks[I + 1].is(TokenKind::Identifier)) {
      const std::string &Name = Interner.str(Toks[I + 1].Sym);
      if (Name == "if" || Name == "ifdef" || Name == "ifndef") {
        ++Depth;
      } else if (Name == "endif") {
        if (Depth == 0)
          return I;
        --Depth;
      } else if (Depth == 0 && StopAtElse &&
                 (Name == "else" || Name == "elif")) {
        return I;
      }
      I = lineEnd(Toks, I);
      continue;
    }
    ++I;
  }
  return I;
}

size_t Preprocessor::processDirective(const std::vector<Token> &Toks,
                                      size_t HashIdx, std::vector<Token> &Out,
                                      int IncludeDepth) {
  size_t End = lineEnd(Toks, HashIdx);
  SourceLoc Loc = Toks[HashIdx].Loc;
  // A bare '#' is a null directive.
  if (HashIdx + 1 >= End)
    return End;
  const Token &NameTok = Toks[HashIdx + 1];
  if (NameTok.isNot(TokenKind::Identifier)) {
    Diags.error(Loc, "malformed preprocessor directive");
    return End;
  }
  const std::string &Name = Interner.str(NameTok.Sym);
  std::vector<Token> Line(Toks.begin() + HashIdx + 2, Toks.begin() + End);

  if (Name == "define") {
    if (Line.empty() || Line[0].isNot(TokenKind::Identifier)) {
      Diags.error(Loc, "macro name missing in #define");
      return End;
    }
    MacroDef Def;
    size_t BodyStart = 1;
    if (Line.size() > 1 && Line[1].is(TokenKind::LParen) &&
        !Line[1].LeadingSpace) {
      Def.FunctionLike = true;
      size_t P = 2;
      if (P < Line.size() && Line[P].is(TokenKind::RParen)) {
        ++P;
      } else {
        while (P < Line.size()) {
          if (Line[P].is(TokenKind::Ellipsis)) {
            Def.Variadic = true;
            ++P;
          } else if (Line[P].is(TokenKind::Identifier)) {
            Def.Params.push_back(Line[P].Sym);
            ++P;
          } else {
            Diags.error(Loc, "malformed macro parameter list");
            return End;
          }
          if (P < Line.size() && Line[P].is(TokenKind::Comma)) {
            ++P;
            continue;
          }
          break;
        }
        if (P >= Line.size() || Line[P].isNot(TokenKind::RParen)) {
          Diags.error(Loc, "expected ')' in macro parameter list");
          return End;
        }
        ++P;
      }
      BodyStart = P;
    }
    Def.Body.assign(Line.begin() + BodyStart, Line.end());
    Macros[Line[0].Sym] = std::move(Def);
    return End;
  }

  if (Name == "undef") {
    if (Line.empty() || Line[0].isNot(TokenKind::Identifier))
      Diags.error(Loc, "macro name missing in #undef");
    else if (Base && Base->Macros.count(Line[0].Sym))
      Macros[Line[0].Sym].Undefined = true; // hides the base's definition
    else
      Macros.erase(Line[0].Sym);
    return End;
  }

  if (Name == "include") {
    if (IncludeDepth > 32) {
      Diags.error(Loc, "#include nested too deeply");
      return End;
    }
    std::string HeaderName;
    if (!Line.empty() && Line[0].is(TokenKind::StringLiteral)) {
      HeaderName = Line[0].Text;
    } else if (!Line.empty() && Line[0].is(TokenKind::Less)) {
      for (size_t I = 1; I < Line.size() && Line[I].isNot(TokenKind::Greater);
           ++I)
        HeaderName += spellingOf(Line[I]);
    } else {
      Diags.error(Loc, "expected \"FILE\" or <FILE> after #include");
      return End;
    }
    const LexedHeader *Header = Headers.lexed(HeaderName);
    if (!Header) {
      Diags.error(Loc, strFormat("header '%s' not found", HeaderName.c_str()));
      return End;
    }
    std::vector<Token> HeaderToks = copyHeader(*Header, HeaderName);
    std::string SavedName = CurrentFileName;
    CurrentFileName = HeaderName;
    processTokens(HeaderToks, Out, IncludeDepth + 1);
    CurrentFileName = SavedName;
    return End;
  }

  if (Name == "ifdef" || Name == "ifndef") {
    bool Defined =
        !Line.empty() && Line[0].is(TokenKind::Identifier) &&
        findMacro(Line[0].Sym);
    bool Taken = (Name == "ifdef") ? Defined : !Defined;
    if (Taken)
      return End; // fall into the group; #endif handled when reached
    size_t Next = skipConditionalGroup(Toks, End, /*StopAtElse=*/true);
    return dispatchConditionalContinuation(Toks, Next, Out, IncludeDepth);
  }

  if (Name == "if") {
    long long V = evaluateCondition(Line, Loc);
    if (V != 0)
      return End;
    size_t Next = skipConditionalGroup(Toks, End, /*StopAtElse=*/true);
    return dispatchConditionalContinuation(Toks, Next, Out, IncludeDepth);
  }

  if (Name == "elif" || Name == "else") {
    // Reached from inside a taken group: skip to #endif.
    size_t EndifIdx = skipConditionalGroup(Toks, End, /*StopAtElse=*/false);
    return EndifIdx < Toks.size() ? lineEnd(Toks, EndifIdx) : EndifIdx;
  }

  if (Name == "endif")
    return End;

  if (Name == "error") {
    std::string Msg;
    for (const Token &T : Line) {
      if (!Msg.empty())
        Msg += ' ';
      Msg += spellingOf(T);
    }
    Diags.error(Loc, strFormat("#error %s", Msg.c_str()));
    return End;
  }

  if (Name == "pragma" || Name == "line")
    return End; // accepted and ignored

  Diags.error(Loc, strFormat("unknown directive #%s", Name.c_str()));
  return End;
}

size_t Preprocessor::dispatchConditionalContinuation(
    const std::vector<Token> &Toks, size_t Idx, std::vector<Token> &Out,
    int IncludeDepth) {
  // Idx points at the '#' of #elif/#else/#endif (or past the end).
  if (Idx >= Toks.size())
    return Idx;
  size_t End = lineEnd(Toks, Idx);
  const std::string &Name = Interner.str(Toks[Idx + 1].Sym);
  if (Name == "endif")
    return End;
  if (Name == "else")
    return End; // take the else group; its #endif handled when reached
  if (Name == "elif") {
    std::vector<Token> Line(Toks.begin() + Idx + 2, Toks.begin() + End);
    long long V = evaluateCondition(Line, Toks[Idx].Loc);
    if (V != 0)
      return End;
    size_t Next = skipConditionalGroup(Toks, End, /*StopAtElse=*/true);
    return dispatchConditionalContinuation(Toks, Next, Out, IncludeDepth);
  }
  return End;
}

long long Preprocessor::evaluateCondition(std::vector<Token> Line,
                                          SourceLoc Loc) {
  // Replace defined X / defined(X) before macro expansion.
  std::vector<Token> Replaced;
  for (size_t I = 0; I < Line.size(); ++I) {
    if (Line[I].is(TokenKind::Identifier) && Line[I].Sym == SymDefined) {
      bool Defined = false;
      size_t J = I + 1;
      bool Paren = J < Line.size() && Line[J].is(TokenKind::LParen);
      if (Paren)
        ++J;
      if (J < Line.size() && Line[J].is(TokenKind::Identifier)) {
        Defined = findMacro(Line[J].Sym) != nullptr;
        ++J;
      } else {
        Diags.error(Loc, "operator 'defined' requires an identifier");
      }
      if (Paren) {
        if (J < Line.size() && Line[J].is(TokenKind::RParen))
          ++J;
        else
          Diags.error(Loc, "expected ')' after 'defined('");
      }
      Token T;
      T.Kind = TokenKind::IntLiteral;
      T.Loc = Line[I].Loc;
      T.Text = Defined ? "1" : "0";
      Replaced.push_back(T);
      I = J - 1;
    } else {
      Replaced.push_back(Line[I]);
    }
  }
  std::vector<Token> Expanded;
  std::vector<Symbol> Hidden;
  expandInto(Replaced.data(), Replaced.size(), Hidden, Expanded, 0);
  CondParser Parser(Expanded, Diags, Loc);
  return Parser.parse();
}

std::string Preprocessor::spellingOf(const Token &Tok) const {
  switch (Tok.Kind) {
  case TokenKind::Identifier:
    return Interner.str(Tok.Sym);
  case TokenKind::IntLiteral:
  case TokenKind::FloatLiteral:
  case TokenKind::CharLiteral:
    return Tok.Text;
  case TokenKind::StringLiteral:
    return "\"" + escapeForDisplay(Tok.Text) + "\"";
  default: {
    std::string Name = tokenKindName(Tok.Kind);
    // Punctuator names are quoted like "'+='": strip the quotes.
    if (Name.size() >= 2 && Name.front() == '\'' && Name.back() == '\'')
      return Name.substr(1, Name.size() - 2);
    return Name;
  }
  }
}

bool Preprocessor::relexPasted(const std::string &Text, SourceLoc Loc,
                               Token &Out) {
  DiagnosticEngine Scratch;
  Lexer Lex(Text, Loc.File, Interner, Scratch);
  Token First = Lex.next();
  Token Second = Lex.next();
  if (Scratch.hasErrors() || First.is(TokenKind::Eof) ||
      Second.isNot(TokenKind::Eof))
    return false;
  First.Loc = Loc;
  Out = First;
  return true;
}

std::vector<Token>
Preprocessor::substitute(const MacroDef &Macro,
                         const std::vector<TokenRange> &Args,
                         SourceLoc ExpansionLoc, unsigned Depth) {
  auto ParamIndex = [&](Symbol Sym) -> int {
    for (size_t I = 0; I < Macro.Params.size(); ++I)
      if (Macro.Params[I] == Sym)
        return static_cast<int>(I);
    if (Macro.Variadic && Sym == SymVaArgs)
      return static_cast<int>(Macro.Params.size());
    return -1;
  };

  std::vector<Token> Result;
  const std::vector<Token> &Body = Macro.Body;
  for (size_t I = 0; I < Body.size(); ++I) {
    const Token &T = Body[I];
    // Stringize: # param
    if (T.is(TokenKind::Hash) && I + 1 < Body.size() &&
        Body[I + 1].is(TokenKind::Identifier) &&
        ParamIndex(Body[I + 1].Sym) >= 0) {
      int Idx = ParamIndex(Body[I + 1].Sym);
      std::string Text;
      if (static_cast<size_t>(Idx) < Args.size())
        for (const Token &A : Args[Idx]) {
          if (!Text.empty() && A.LeadingSpace)
            Text += ' ';
          Text += spellingOf(A);
        }
      Token Str;
      Str.Kind = TokenKind::StringLiteral;
      Str.Loc = ExpansionLoc;
      Str.Text = Text;
      Result.push_back(Str);
      ++I;
      continue;
    }
    // Paste: A ## B (operate on already-substituted left token).
    if (I + 1 < Body.size() && Body[I + 1].is(TokenKind::HashHash)) {
      // Collect left fragment.
      std::vector<Token> Left;
      int Idx = T.is(TokenKind::Identifier) ? ParamIndex(T.Sym) : -1;
      if (Idx >= 0 && static_cast<size_t>(Idx) < Args.size())
        Left.assign(Args[Idx].begin(), Args[Idx].end());
      else
        Left.push_back(T);
      size_t J = I + 2;
      if (J >= Body.size()) {
        Result.insert(Result.end(), Left.begin(), Left.end());
        break;
      }
      const Token &RightTok = Body[J];
      std::vector<Token> Right;
      int RIdx =
          RightTok.is(TokenKind::Identifier) ? ParamIndex(RightTok.Sym) : -1;
      if (RIdx >= 0 && static_cast<size_t>(RIdx) < Args.size())
        Right.assign(Args[RIdx].begin(), Args[RIdx].end());
      else
        Right.push_back(RightTok);
      // Paste last-of-left with first-of-right.
      std::string Pasted;
      if (!Left.empty())
        Pasted += spellingOf(Left.back());
      if (!Right.empty())
        Pasted += spellingOf(Right.front());
      Token Joined;
      if (!Pasted.empty() && relexPasted(Pasted, ExpansionLoc, Joined)) {
        if (!Left.empty())
          Result.insert(Result.end(), Left.begin(), Left.end() - 1);
        Result.push_back(Joined);
        if (!Right.empty())
          Result.insert(Result.end(), Right.begin() + 1, Right.end());
      } else {
        Diags.error(ExpansionLoc, "## produced an invalid token");
      }
      I = J;
      continue;
    }
    // Ordinary parameter: replace with (recursively pre-expanded) arg.
    if (T.is(TokenKind::Identifier)) {
      int Idx = ParamIndex(T.Sym);
      if (Idx >= 0) {
        std::vector<Token> Expanded;
        std::vector<Symbol> Hidden;
        if (static_cast<size_t>(Idx) < Args.size())
          expandInto(Args[Idx].First, Args[Idx].Size, Hidden, Expanded,
                     Depth + 1);
        Result.insert(Result.end(), Expanded.begin(), Expanded.end());
        continue;
      }
    }
    Result.push_back(T);
  }
  for (Token &T : Result)
    T.Loc = ExpansionLoc;
  return Result;
}

void Preprocessor::expandInto(const Token *In, size_t N,
                              std::vector<Symbol> &Hidden,
                              std::vector<Token> &Out, unsigned Depth) {
  for (size_t I = 0; I < N; ++I) {
    const Token &T = In[I];
    if (T.isNot(TokenKind::Identifier)) {
      Out.push_back(T);
      continue;
    }
    // Builtins.
    if (T.Sym == SymLine) {
      Token L;
      L.Kind = TokenKind::IntLiteral;
      L.Loc = T.Loc;
      L.Text = strFormat("%u", T.Loc.Line);
      Out.push_back(L);
      continue;
    }
    if (T.Sym == SymFile) {
      Token F;
      F.Kind = TokenKind::StringLiteral;
      F.Loc = T.Loc;
      F.Text = CurrentFileName;
      Out.push_back(F);
      continue;
    }
    const MacroDef *Found = findMacro(T.Sym);
    if (!Found ||
        std::find(Hidden.begin(), Hidden.end(), T.Sym) != Hidden.end()) {
      Out.push_back(T);
      continue;
    }
    const MacroDef &Macro = *Found;
    // Function-like: require '(' as the next token of this sequence.
    if (Macro.FunctionLike &&
        (I + 1 >= N || In[I + 1].isNot(TokenKind::LParen))) {
      Out.push_back(T);
      continue;
    }
    if (Depth == kMaxExpansionDepth) {
      Diags.error(T.Loc, strFormat("macro expansion exceeds the "
                                   "preprocessor's depth limit of %u",
                                   kMaxExpansionDepth));
      throw ExpansionLimitExceeded{};
    }
    if (!Macro.FunctionLike) {
      std::vector<Token> Subst = substitute(Macro, {}, T.Loc, Depth);
      Hidden.push_back(T.Sym);
      expandInto(Subst.data(), Subst.size(), Hidden, Out, Depth + 1);
      Hidden.pop_back();
      continue;
    }
    // Parse arguments: each is a run of In.
    size_t J = I + 2;
    std::vector<TokenRange> Args;
    size_t ArgStart = J;
    int Parens = 0;
    bool Closed = false;
    for (; J < N; ++J) {
      const Token &A = In[J];
      if (A.is(TokenKind::LParen)) {
        ++Parens;
      } else if (A.is(TokenKind::RParen)) {
        if (Parens == 0) {
          Closed = true;
          break;
        }
        --Parens;
      } else if (A.is(TokenKind::Comma) && Parens == 0 &&
                 !(Macro.Variadic && Args.size() >= Macro.Params.size())) {
        // Commas inside __VA_ARGS__ (once the named parameters are
        // filled) belong to the argument; all others separate args.
        Args.push_back({In + ArgStart, J - ArgStart});
        ArgStart = J + 1;
      }
    }
    if (!Closed) {
      Diags.error(T.Loc, "unterminated macro invocation");
      Out.push_back(T);
      continue;
    }
    if (J > ArgStart || !Args.empty() || !Macro.Params.empty() ||
        Macro.Variadic)
      Args.push_back({In + ArgStart, J - ArgStart});
    if (Args.size() < Macro.Params.size())
      Args.resize(Macro.Params.size());
    std::vector<Token> Subst = substitute(Macro, Args, T.Loc, Depth);
    Hidden.push_back(T.Sym);
    expandInto(Subst.data(), Subst.size(), Hidden, Out, Depth + 1);
    Hidden.pop_back();
    I = J; // skip past ')'
  }
}

void Preprocessor::promoteKeywords(std::vector<Token> &Toks) const {
  static const std::unordered_map<std::string, TokenKind> Keywords = {
      {"break", TokenKind::KwBreak},       {"case", TokenKind::KwCase},
      {"char", TokenKind::KwChar},         {"const", TokenKind::KwConst},
      {"continue", TokenKind::KwContinue}, {"default", TokenKind::KwDefault},
      {"do", TokenKind::KwDo},             {"double", TokenKind::KwDouble},
      {"else", TokenKind::KwElse},         {"enum", TokenKind::KwEnum},
      {"extern", TokenKind::KwExtern},     {"float", TokenKind::KwFloat},
      {"for", TokenKind::KwFor},           {"goto", TokenKind::KwGoto},
      {"if", TokenKind::KwIf},             {"inline", TokenKind::KwInline},
      {"int", TokenKind::KwInt},           {"long", TokenKind::KwLong},
      {"register", TokenKind::KwRegister}, {"restrict", TokenKind::KwRestrict},
      {"return", TokenKind::KwReturn},     {"short", TokenKind::KwShort},
      {"signed", TokenKind::KwSigned},     {"sizeof", TokenKind::KwSizeof},
      {"static", TokenKind::KwStatic},     {"struct", TokenKind::KwStruct},
      {"switch", TokenKind::KwSwitch},     {"typedef", TokenKind::KwTypedef},
      {"union", TokenKind::KwUnion},       {"unsigned", TokenKind::KwUnsigned},
      {"void", TokenKind::KwVoid},         {"volatile", TokenKind::KwVolatile},
      {"while", TokenKind::KwWhile},       {"_Bool", TokenKind::KwBool},
  };
  // One table lookup per distinct symbol; Eof marks "not looked up".
  std::vector<TokenKind> KindOf(Interner.size(), TokenKind::Eof);
  for (Token &T : Toks) {
    if (T.isNot(TokenKind::Identifier))
      continue;
    TokenKind &Kind = KindOf[T.Sym];
    if (Kind == TokenKind::Eof) {
      auto It = Keywords.find(Interner.str(T.Sym));
      Kind = It == Keywords.end() ? TokenKind::Identifier : It->second;
    }
    T.Kind = Kind;
  }
}
