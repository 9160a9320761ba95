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
/// An interner may continue a frozen base (a compile continuing from a
/// header prelude, frontend/Prelude.h): the base's symbols keep their
/// numbers, new spellings are numbered after them, and the base is
/// only ever read.
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
  /// An empty table, or one continuing \p Base, which must outlive it
  /// and must not change while it does.
  explicit StringInterner(const StringInterner *Base = nullptr)
      : Base(Base), First(Base ? static_cast<Symbol>(Base->size()) : 0) {
    if (!Base)
      Strings.push_back(""); // Reserve slot 0 for NoSymbol.
  }

  /// Returns the symbol for \p Text, interning it on first sight.
  Symbol intern(const std::string &Text) {
    if (Base)
      if (Symbol Sym = Base->lookup(Text))
        return Sym;
    auto [It, Inserted] = Index.try_emplace(
        Text, First + static_cast<Symbol>(Strings.size()));
    if (Inserted)
      Strings.push_back(Text);
    return It->second;
  }

  /// Returns the symbol for \p Text if already interned, NoSymbol else.
  Symbol lookup(const std::string &Text) const {
    if (Base)
      if (Symbol Sym = Base->lookup(Text))
        return Sym;
    auto It = Index.find(Text);
    return It == Index.end() ? NoSymbol : It->second;
  }

  /// Returns the spelling of \p Sym.
  const std::string &str(Symbol Sym) const {
    return Sym < First ? Base->str(Sym) : Strings.at(Sym - First);
  }

  size_t size() const { return First + Strings.size(); }

private:
  const StringInterner *Base;
  /// The first symbol this table numbers (the base's size).
  Symbol First;
  std::vector<std::string> Strings;
  std::unordered_map<std::string, Symbol> Index;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_STRINGINTERNER_H
