//===- support/Strings.h - String helpers --------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string and a few predicates the
/// lexer and report printers share.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_STRINGS_H
#define CUNDEF_SUPPORT_STRINGS_H

#include <cstdarg>
#include <string>

namespace cundef {

/// Formats like printf but returns the result as a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf counterpart of strFormat.
std::string strFormatV(const char *Fmt, va_list Args);

/// Returns true if \p Text starts with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

/// Escapes a string for display inside diagnostics (non-printable bytes
/// become \xNN, quotes and backslashes are backslash-escaped).
std::string escapeForDisplay(const std::string &Text);

/// Pads or truncates \p Text to exactly \p Width columns (left-aligned).
std::string padRight(const std::string &Text, size_t Width);

/// Right-aligns \p Text in a field of \p Width columns.
std::string padLeft(const std::string &Text, size_t Width);

/// Strictly parses a non-negative decimal integer: at least one digit,
/// nothing but digits, no overflow past unsigned. Returns false (Out
/// untouched) otherwise. Command-line flags use this instead of atoi,
/// which silently maps garbage to 0.
bool parseUnsigned(const char *Text, unsigned &Out);

/// One row of an enum's table of stable spellings. Every enum spelled
/// on a user-visible surface (kcc flags, --json, the wire) keeps one
/// such table next to its declaration, read through the lookups below.
template <typename E> struct EnumName {
  E Value;
  const char *Name;
};

/// The spelling of \p Value (the first row's for a value not listed).
template <typename E, size_t N>
const char *enumName(const EnumName<E> (&Table)[N], E Value) {
  for (const EnumName<E> &Row : Table)
    if (Row.Value == Value)
      return Row.Name;
  return Table[0].Name;
}

/// Looks \p Name up; false (Out untouched) when no row spells it.
template <typename E, size_t N>
bool enumFromName(const EnumName<E> (&Table)[N], const std::string &Name,
                  E &Out) {
  for (const EnumName<E> &Row : Table)
    if (Name == Row.Name) {
      Out = Row.Value;
      return true;
    }
  return false;
}

/// The on|off spelling of boolean flags.
inline constexpr EnumName<bool> OnOffNames[] = {{true, "on"}, {false, "off"}};

} // namespace cundef

#endif // CUNDEF_SUPPORT_STRINGS_H
