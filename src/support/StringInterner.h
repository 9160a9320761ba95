//===- support/StringInterner.h - Symbol interning ------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Identifiers are interned once by the lexer; all later stages compare
/// 32-bit symbols instead of strings. Symbol 0 is reserved as "no name"
/// (used for anonymous struct members and unnamed parameters).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_STRINGINTERNER_H
#define CUNDEF_SUPPORT_STRINGINTERNER_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace cundef {

/// An interned identifier. Value 0 means "no name".
using Symbol = uint32_t;

constexpr Symbol NoSymbol = 0;

/// Bidirectional string <-> Symbol table.
class StringInterner {
public:
  StringInterner() {
    // Reserve slot 0 for NoSymbol.
    Strings.push_back("");
  }

  /// Returns the symbol for \p Text, interning it on first sight.
  Symbol intern(const std::string &Text) {
    auto [It, Inserted] =
        Index.try_emplace(Text, static_cast<Symbol>(Strings.size()));
    if (Inserted)
      Strings.push_back(Text);
    return It->second;
  }

  /// Returns the symbol for \p Text if already interned, NoSymbol else.
  Symbol lookup(const std::string &Text) const {
    auto It = Index.find(Text);
    return It == Index.end() ? NoSymbol : It->second;
  }

  /// Returns the spelling of \p Sym.
  const std::string &str(Symbol Sym) const { return Strings.at(Sym); }

  size_t size() const { return Strings.size(); }

private:
  std::vector<std::string> Strings;
  std::unordered_map<std::string, Symbol> Index;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_STRINGINTERNER_H
