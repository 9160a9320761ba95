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

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
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
      Strings.emplace_back(); // Reserve slot 0 for NoSymbol.
  }

  /// Returns the symbol for \p Text, interning it on first sight.
  Symbol intern(std::string_view Text) {
    if (Base)
      if (Symbol Sym = Base->lookup(Text))
        return Sym;
    if (2 * (Strings.size() + 1) > Table.size())
      grow();
    size_t Slot = slotOf(Text);
    if (!Table[Slot]) {
      Table[Slot] = static_cast<Symbol>(Strings.size()) + 1;
      Strings.emplace_back(Text);
    }
    return First + Table[Slot] - 1;
  }

  /// Returns the symbol for \p Text if already interned, NoSymbol else.
  Symbol lookup(std::string_view Text) const {
    if (Base)
      if (Symbol Sym = Base->lookup(Text))
        return Sym;
    if (Table.empty())
      return NoSymbol;
    Symbol Entry = Table[slotOf(Text)];
    return Entry ? First + Entry - 1 : NoSymbol;
  }

  /// Returns the spelling of \p Sym.
  const std::string &str(Symbol Sym) const {
    return Sym < First ? Base->str(Sym) : Strings.at(Sym - First);
  }

  size_t size() const { return First + Strings.size(); }

private:
  /// The slot holding \p Text, or the empty slot where it would go.
  size_t slotOf(std::string_view Text) const {
    const size_t Mask = Table.size() - 1;
    size_t Slot = std::hash<std::string_view>()(Text) & Mask;
    while (Table[Slot] && Strings[Table[Slot] - 1] != Text)
      Slot = (Slot + 1) & Mask;
    return Slot;
  }

  /// Doubles the table (at least 32 slots) and reinserts every entry.
  void grow() {
    std::vector<Symbol> Old(std::max<size_t>(32, 2 * Table.size()), 0);
    Old.swap(Table);
    for (Symbol Entry : Old)
      if (Entry)
        Table[slotOf(Strings[Entry - 1])] = Entry;
  }

  const StringInterner *Base;
  /// The first symbol this table numbers (the base's size).
  Symbol First;
  /// Each spelling once; a deque never moves its elements, so the
  /// table's comparisons and str()'s references stay valid.
  std::deque<std::string> Strings;
  /// Open addressing, at most half full: an entry is an index into
  /// Strings plus one, 0 an empty slot. The root table's reserved
  /// empty spelling is not entered.
  std::vector<Symbol> Table;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_STRINGINTERNER_H
