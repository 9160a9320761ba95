//===- text/Token.h - C token model ---------------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for the C lexer. The lexer emits every word as
/// tok::Identifier; the preprocessor maps reserved words to keyword kinds
/// after macro expansion, because macro names may shadow keywords during
/// preprocessing.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_TEXT_TOKEN_H
#define CUNDEF_TEXT_TOKEN_H

#include "support/SourceLoc.h"
#include "support/StringInterner.h"

#include <string>

namespace cundef {

enum class TokenKind : uint8_t {
  Eof,
  Identifier,
  IntLiteral,    // includes character constants (Text keeps spelling)
  FloatLiteral,
  CharLiteral,
  StringLiteral, // Text holds the *decoded* bytes, without quotes

  // Punctuators.
  LBracket,   // [
  RBracket,   // ]
  LParen,     // (
  RParen,     // )
  LBrace,     // {
  RBrace,     // }
  Period,     // .
  Arrow,      // ->
  PlusPlus,   // ++
  MinusMinus, // --
  Amp,        // &
  Star,       // *
  Plus,       // +
  Minus,      // -
  Tilde,      // ~
  Bang,       // !
  Slash,      // /
  Percent,    // %
  LessLess,   // <<
  GreaterGreater, // >>
  Less,       // <
  Greater,    // >
  LessEqual,  // <=
  GreaterEqual, // >=
  EqualEqual, // ==
  BangEqual,  // !=
  Caret,      // ^
  Pipe,       // |
  AmpAmp,     // &&
  PipePipe,   // ||
  Question,   // ?
  Colon,      // :
  Semi,       // ;
  Ellipsis,   // ...
  Equal,      // =
  StarEqual,  // *=
  SlashEqual, // /=
  PercentEqual, // %=
  PlusEqual,  // +=
  MinusEqual, // -=
  LessLessEqual,       // <<=
  GreaterGreaterEqual, // >>=
  AmpEqual,   // &=
  CaretEqual, // ^=
  PipeEqual,  // |=
  Comma,      // ,
  Hash,       // #
  HashHash,   // ##

  // Keywords (produced only by the preprocessor's keyword pass).
  KwBreak,
  KwCase,
  KwChar,
  KwConst,
  KwContinue,
  KwDefault,
  KwDo,
  KwDouble,
  KwElse,
  KwEnum,
  KwExtern,
  KwFloat,
  KwFor,
  KwGoto,
  KwIf,
  KwInline,
  KwInt,
  KwLong,
  KwRegister,
  KwRestrict,
  KwReturn,
  KwShort,
  KwSigned,
  KwSizeof,
  KwStatic,
  KwStruct,
  KwSwitch,
  KwTypedef,
  KwUnion,
  KwUnsigned,
  KwVoid,
  KwVolatile,
  KwWhile,
  KwBool, // _Bool
};

/// Returns a human-readable name for \p Kind ("identifier", "'+='", ...).
const char *tokenKindName(TokenKind Kind);

/// A single C token.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLoc Loc;
  /// Interned name for identifiers/keywords; NoSymbol otherwise.
  Symbol Sym = NoSymbol;
  /// Spelling for literals (empty for identifiers and keywords, whose
  /// spelling is the interner's). For StringLiteral this is the decoded
  /// byte content (escape sequences already processed, no quotes).
  std::string Text;
  /// True when this token is the first on its line (pre-expansion).
  bool AtLineStart = false;
  /// True when whitespace preceded this token.
  bool LeadingSpace = false;

  bool is(TokenKind K) const { return Kind == K; }
  bool isNot(TokenKind K) const { return Kind != K; }
};

} // namespace cundef

#endif // CUNDEF_TEXT_TOKEN_H
