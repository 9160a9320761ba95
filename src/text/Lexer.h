//===- text/Lexer.h - C lexer ---------------------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written maximal-munch lexer over one buffer. It recognizes the
/// full C99 token set (identifiers, integer/floating/character/string
/// constants with escapes and suffixes, all punctuators) and strips
/// comments. Words are always emitted as identifiers; keyword promotion
/// happens in the preprocessor.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TEXT_LEXER_H
#define CUNDEF_TEXT_LEXER_H

#include "support/Diagnostics.h"
#include "support/StringInterner.h"
#include "text/Token.h"

#include <string>

namespace cundef {

class Lexer {
public:
  /// Lexes \p Buffer (not owned; must outlive the lexer). \p FileId tags
  /// every token's location. Lexing starts at byte \p Begin, the start
  /// of line \p Line outside any comment.
  Lexer(const std::string &Buffer, uint32_t FileId, StringInterner &Interner,
        DiagnosticEngine &Diags, size_t Begin = 0, uint32_t Line = 1);

  /// Returns the next token, advancing. At end of input returns Eof
  /// forever.
  Token next();

  /// True when the cursor sits at the end of the buffer.
  bool atEnd() const { return Pos >= Buf.size(); }

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Buf.size() ? Buf[Pos + Ahead] : '\0';
  }
  char advance();
  bool match(char Expected);
  SourceLoc here() const { return SourceLoc(FileId, Line, Col); }

  Token makeToken(TokenKind Kind, SourceLoc Loc);
  Token lexIdentifier(SourceLoc Loc);
  Token lexNumber(SourceLoc Loc);
  Token lexCharConstant(SourceLoc Loc);
  Token lexStringLiteral(SourceLoc Loc);
  Token lexPunctuator(SourceLoc Loc);
  /// Decodes one escape sequence after the backslash; returns its value.
  unsigned decodeEscape(SourceLoc Loc);
  void skipWhitespaceAndComments();

  const std::string &Buf;
  uint32_t FileId;
  StringInterner &Interner;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
  bool SawNewline = true; // start of buffer counts as a line start
  bool SawSpace = false;
};

} // namespace cundef

#endif // CUNDEF_TEXT_LEXER_H
