//===- text/Lexer.cpp - C lexer -------------------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "text/Lexer.h"

#include "support/Strings.h"

#include <cassert>
#include <cctype>

using namespace cundef;

const char *cundef::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:            return "end of file";
  case TokenKind::Identifier:     return "identifier";
  case TokenKind::IntLiteral:     return "integer constant";
  case TokenKind::FloatLiteral:   return "floating constant";
  case TokenKind::CharLiteral:    return "character constant";
  case TokenKind::StringLiteral:  return "string literal";
  case TokenKind::LBracket:       return "'['";
  case TokenKind::RBracket:       return "']'";
  case TokenKind::LParen:         return "'('";
  case TokenKind::RParen:         return "')'";
  case TokenKind::LBrace:         return "'{'";
  case TokenKind::RBrace:         return "'}'";
  case TokenKind::Period:         return "'.'";
  case TokenKind::Arrow:          return "'->'";
  case TokenKind::PlusPlus:       return "'++'";
  case TokenKind::MinusMinus:     return "'--'";
  case TokenKind::Amp:            return "'&'";
  case TokenKind::Star:           return "'*'";
  case TokenKind::Plus:           return "'+'";
  case TokenKind::Minus:          return "'-'";
  case TokenKind::Tilde:          return "'~'";
  case TokenKind::Bang:           return "'!'";
  case TokenKind::Slash:          return "'/'";
  case TokenKind::Percent:        return "'%'";
  case TokenKind::LessLess:       return "'<<'";
  case TokenKind::GreaterGreater: return "'>>'";
  case TokenKind::Less:           return "'<'";
  case TokenKind::Greater:        return "'>'";
  case TokenKind::LessEqual:      return "'<='";
  case TokenKind::GreaterEqual:   return "'>='";
  case TokenKind::EqualEqual:     return "'=='";
  case TokenKind::BangEqual:      return "'!='";
  case TokenKind::Caret:          return "'^'";
  case TokenKind::Pipe:           return "'|'";
  case TokenKind::AmpAmp:         return "'&&'";
  case TokenKind::PipePipe:       return "'||'";
  case TokenKind::Question:       return "'?'";
  case TokenKind::Colon:          return "':'";
  case TokenKind::Semi:           return "';'";
  case TokenKind::Ellipsis:       return "'...'";
  case TokenKind::Equal:          return "'='";
  case TokenKind::StarEqual:      return "'*='";
  case TokenKind::SlashEqual:     return "'/='";
  case TokenKind::PercentEqual:   return "'%='";
  case TokenKind::PlusEqual:      return "'+='";
  case TokenKind::MinusEqual:     return "'-='";
  case TokenKind::LessLessEqual:  return "'<<='";
  case TokenKind::GreaterGreaterEqual: return "'>>='";
  case TokenKind::AmpEqual:       return "'&='";
  case TokenKind::CaretEqual:     return "'^='";
  case TokenKind::PipeEqual:      return "'|='";
  case TokenKind::Comma:          return "','";
  case TokenKind::Hash:           return "'#'";
  case TokenKind::HashHash:       return "'##'";
  case TokenKind::KwBreak:        return "'break'";
  case TokenKind::KwCase:         return "'case'";
  case TokenKind::KwChar:         return "'char'";
  case TokenKind::KwConst:        return "'const'";
  case TokenKind::KwContinue:     return "'continue'";
  case TokenKind::KwDefault:      return "'default'";
  case TokenKind::KwDo:           return "'do'";
  case TokenKind::KwDouble:       return "'double'";
  case TokenKind::KwElse:         return "'else'";
  case TokenKind::KwEnum:         return "'enum'";
  case TokenKind::KwExtern:       return "'extern'";
  case TokenKind::KwFloat:        return "'float'";
  case TokenKind::KwFor:          return "'for'";
  case TokenKind::KwGoto:         return "'goto'";
  case TokenKind::KwIf:           return "'if'";
  case TokenKind::KwInline:       return "'inline'";
  case TokenKind::KwInt:          return "'int'";
  case TokenKind::KwLong:         return "'long'";
  case TokenKind::KwRegister:     return "'register'";
  case TokenKind::KwRestrict:     return "'restrict'";
  case TokenKind::KwReturn:       return "'return'";
  case TokenKind::KwShort:        return "'short'";
  case TokenKind::KwSigned:       return "'signed'";
  case TokenKind::KwSizeof:       return "'sizeof'";
  case TokenKind::KwStatic:       return "'static'";
  case TokenKind::KwStruct:       return "'struct'";
  case TokenKind::KwSwitch:       return "'switch'";
  case TokenKind::KwTypedef:      return "'typedef'";
  case TokenKind::KwUnion:        return "'union'";
  case TokenKind::KwUnsigned:     return "'unsigned'";
  case TokenKind::KwVoid:         return "'void'";
  case TokenKind::KwVolatile:     return "'volatile'";
  case TokenKind::KwWhile:        return "'while'";
  case TokenKind::KwBool:         return "'_Bool'";
  }
  return "<invalid token kind>";
}

Lexer::Lexer(const std::string &Buffer, uint32_t FileId,
             StringInterner &Interner, DiagnosticEngine &Diags)
    : Buf(Buffer), FileId(FileId), Interner(Interner), Diags(Diags) {}

char Lexer::advance() {
  assert(Pos < Buf.size() && "advancing past end of buffer");
  char C = Buf[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  advance();
  return true;
}

void Lexer::skipWhitespaceAndComments() {
  while (!atEnd()) {
    char C = peek();
    if (C == '\n') {
      SawNewline = true;
      SawSpace = false;
      advance();
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r' || C == '\v' || C == '\f') {
      SawSpace = true;
      advance();
      continue;
    }
    // Line splice.
    if (C == '\\' && peek(1) == '\n') {
      advance();
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = here();
      advance();
      advance();
      while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
        advance();
      if (atEnd()) {
        Diags.error(Start, "unterminated /* comment");
        return;
      }
      advance();
      advance();
      SawSpace = true;
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokenKind Kind, SourceLoc Loc) {
  Token Tok;
  Tok.Kind = Kind;
  Tok.Loc = Loc;
  Tok.AtLineStart = SawNewline;
  Tok.LeadingSpace = SawSpace || SawNewline;
  SawNewline = false;
  SawSpace = false;
  return Tok;
}

Token Lexer::next() {
  skipWhitespaceAndComments();
  SourceLoc Loc = here();
  if (atEnd()) {
    Token Tok = makeToken(TokenKind::Eof, Loc);
    return Tok;
  }
  char C = peek();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
    return lexIdentifier(Loc);
  if (std::isdigit(static_cast<unsigned char>(C)) ||
      (C == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))))
    return lexNumber(Loc);
  if (C == '\'')
    return lexCharConstant(Loc);
  if (C == '"')
    return lexStringLiteral(Loc);
  return lexPunctuator(Loc);
}

Token Lexer::lexIdentifier(SourceLoc Loc) {
  const size_t Start = Pos;
  while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                      peek() == '_'))
    ++Pos;
  Col += static_cast<uint32_t>(Pos - Start); // no newline inside a name
  Token Tok = makeToken(TokenKind::Identifier, Loc);
  Tok.Sym = Interner.intern(Buf.substr(Start, Pos - Start));
  return Tok;
}

Token Lexer::lexNumber(SourceLoc Loc) {
  std::string Spelling;
  bool IsFloat = false;
  bool IsHex = false;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    IsHex = true;
    Spelling += advance();
    Spelling += advance();
    while (!atEnd() && std::isxdigit(static_cast<unsigned char>(peek())))
      Spelling += advance();
  } else {
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
      Spelling += advance();
    if (peek() == '.') {
      IsFloat = true;
      Spelling += advance();
      while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
        Spelling += advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      char Next = peek(1);
      if (std::isdigit(static_cast<unsigned char>(Next)) || Next == '+' ||
          Next == '-') {
        IsFloat = true;
        Spelling += advance(); // e
        if (peek() == '+' || peek() == '-')
          Spelling += advance();
        while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
          Spelling += advance();
      }
    }
  }
  // Suffixes: for integers u/U, l/L, ll/LL in any defined order; for
  // floats f/F/l/L.
  if (IsFloat) {
    if (peek() == 'f' || peek() == 'F' || peek() == 'l' || peek() == 'L')
      Spelling += advance();
  } else {
    while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L')
      Spelling += advance();
  }
  (void)IsHex;
  Token Tok =
      makeToken(IsFloat ? TokenKind::FloatLiteral : TokenKind::IntLiteral,
                Loc);
  Tok.Text = std::move(Spelling);
  return Tok;
}

unsigned Lexer::decodeEscape(SourceLoc Loc) {
  if (atEnd()) {
    Diags.error(Loc, "unterminated escape sequence");
    return 0;
  }
  char C = advance();
  switch (C) {
  case 'n':  return '\n';
  case 't':  return '\t';
  case 'r':  return '\r';
  case 'a':  return '\a';
  case 'b':  return '\b';
  case 'f':  return '\f';
  case 'v':  return '\v';
  case '0': case '1': case '2': case '3':
  case '4': case '5': case '6': case '7': {
    unsigned Value = static_cast<unsigned>(C - '0');
    for (int I = 0; I < 2 && peek() >= '0' && peek() <= '7'; ++I)
      Value = Value * 8 + static_cast<unsigned>(advance() - '0');
    return Value;
  }
  case 'x': {
    unsigned Value = 0;
    bool Any = false;
    while (std::isxdigit(static_cast<unsigned char>(peek()))) {
      char D = advance();
      unsigned Digit = std::isdigit(static_cast<unsigned char>(D))
                           ? static_cast<unsigned>(D - '0')
                           : static_cast<unsigned>(std::tolower(D) - 'a') + 10;
      Value = Value * 16 + Digit;
      Any = true;
    }
    if (!Any)
      Diags.error(Loc, "\\x used with no following hex digits");
    return Value & 0xffu;
  }
  case '\\': return '\\';
  case '\'': return '\'';
  case '"':  return '"';
  case '?':  return '?';
  default:
    Diags.error(Loc, strFormat("unknown escape sequence '\\%c'", C));
    return static_cast<unsigned>(C);
  }
}

Token Lexer::lexCharConstant(SourceLoc Loc) {
  advance(); // opening quote
  unsigned Value = 0;
  bool Any = false;
  while (!atEnd() && peek() != '\'' && peek() != '\n') {
    char C = advance();
    unsigned ThisChar = static_cast<unsigned char>(C);
    if (C == '\\')
      ThisChar = decodeEscape(Loc);
    // Multi-character constants take the last character (a common
    // implementation-defined choice); we keep it simple.
    Value = ThisChar;
    Any = true;
  }
  if (atEnd() || peek() != '\'')
    Diags.error(Loc, "unterminated character constant");
  else
    advance(); // closing quote
  if (!Any)
    Diags.error(Loc, "empty character constant");
  Token Tok = makeToken(TokenKind::CharLiteral, Loc);
  Tok.Text = strFormat("%u", Value);
  return Tok;
}

Token Lexer::lexStringLiteral(SourceLoc Loc) {
  advance(); // opening quote
  std::string Bytes;
  while (!atEnd() && peek() != '"' && peek() != '\n') {
    char C = advance();
    if (C == '\\')
      Bytes += static_cast<char>(decodeEscape(Loc));
    else
      Bytes += C;
  }
  if (atEnd() || peek() != '"')
    Diags.error(Loc, "unterminated string literal");
  else
    advance(); // closing quote
  Token Tok = makeToken(TokenKind::StringLiteral, Loc);
  Tok.Text = std::move(Bytes);
  return Tok;
}

Token Lexer::lexPunctuator(SourceLoc Loc) {
  char C = advance();
  TokenKind Kind;
  switch (C) {
  case '[': Kind = TokenKind::LBracket; break;
  case ']': Kind = TokenKind::RBracket; break;
  case '(': Kind = TokenKind::LParen; break;
  case ')': Kind = TokenKind::RParen; break;
  case '{': Kind = TokenKind::LBrace; break;
  case '}': Kind = TokenKind::RBrace; break;
  case ';': Kind = TokenKind::Semi; break;
  case ',': Kind = TokenKind::Comma; break;
  case '~': Kind = TokenKind::Tilde; break;
  case '?': Kind = TokenKind::Question; break;
  case ':': Kind = TokenKind::Colon; break;
  case '.':
    if (peek() == '.' && peek(1) == '.') {
      advance();
      advance();
      Kind = TokenKind::Ellipsis;
    } else {
      Kind = TokenKind::Period;
    }
    break;
  case '+':
    Kind = match('+')   ? TokenKind::PlusPlus
           : match('=') ? TokenKind::PlusEqual
                        : TokenKind::Plus;
    break;
  case '-':
    Kind = match('-')   ? TokenKind::MinusMinus
           : match('=') ? TokenKind::MinusEqual
           : match('>') ? TokenKind::Arrow
                        : TokenKind::Minus;
    break;
  case '*':
    Kind = match('=') ? TokenKind::StarEqual : TokenKind::Star;
    break;
  case '/':
    Kind = match('=') ? TokenKind::SlashEqual : TokenKind::Slash;
    break;
  case '%':
    Kind = match('=') ? TokenKind::PercentEqual : TokenKind::Percent;
    break;
  case '!':
    Kind = match('=') ? TokenKind::BangEqual : TokenKind::Bang;
    break;
  case '=':
    Kind = match('=') ? TokenKind::EqualEqual : TokenKind::Equal;
    break;
  case '^':
    Kind = match('=') ? TokenKind::CaretEqual : TokenKind::Caret;
    break;
  case '&':
    Kind = match('&')   ? TokenKind::AmpAmp
           : match('=') ? TokenKind::AmpEqual
                        : TokenKind::Amp;
    break;
  case '|':
    Kind = match('|')   ? TokenKind::PipePipe
           : match('=') ? TokenKind::PipeEqual
                        : TokenKind::Pipe;
    break;
  case '<':
    if (match('<'))
      Kind = match('=') ? TokenKind::LessLessEqual : TokenKind::LessLess;
    else
      Kind = match('=') ? TokenKind::LessEqual : TokenKind::Less;
    break;
  case '>':
    if (match('>'))
      Kind = match('=') ? TokenKind::GreaterGreaterEqual
                        : TokenKind::GreaterGreater;
    else
      Kind = match('=') ? TokenKind::GreaterEqual : TokenKind::Greater;
    break;
  case '#':
    Kind = match('#') ? TokenKind::HashHash : TokenKind::Hash;
    break;
  default:
    Diags.error(Loc, strFormat("stray '%c' in program", C));
    // Resynchronize by treating it as a semicolon-ish noise token; emit
    // the next token instead.
    return next();
  }
  return makeToken(Kind, Loc);
}
