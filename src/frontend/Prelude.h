//===- frontend/Prelude.h - Shared translated header preludes ---*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A prelude is the frontend's state after a source's leading block of
/// `#include <name>` lines (text/Preprocessor.h's scanIncludePrefix),
/// translated once and frozen: the interner, the macro table, the file
/// ids, the file-scope typedefs, the function prototypes, their types
/// and the next declaration id. A compile of any unit starting with the
/// same block under the same target continues from it instead of
/// translating the headers again: its interner, type context, macro
/// table and file scope are layers over the prelude's, which nothing
/// ever writes after the build, and a unit that redeclares a prelude
/// function gets its own clone of it (parse/Parser.h).
///
/// Preludes live in the HeaderRegistry, keyed by the header names and
/// the target fingerprint, built on a key's second compile, and dropped
/// by HeaderRegistry::add(). A block is eligible only when its
/// translation reports no diagnostic and declares nothing but macros,
/// typedefs and prototypes; otherwise, on a key's first compile and
/// past HeaderRegistry::kMaxPreludes, a compile gets no prelude and
/// translates the includes in place. Every artifact holds its prelude.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_FRONTEND_PRELUDE_H
#define CUNDEF_FRONTEND_PRELUDE_H

#include "ast/Ast.h"
#include "parse/Parser.h"
#include "text/Preprocessor.h"

#include <memory>

namespace cundef {

struct FrontendOptions;

struct Prelude {
  StringInterner Interner;
  PreprocessorState Text;
  /// Built with Interner; builtin ids assigned.
  std::unique_ptr<AstContext> Ast;
  ParserState FileScope;
};

/// The prelude for \p Prefix (the include block of a source) under
/// \p Opts, kept in \p Headers; null when the prefix is empty, on the
/// block's first request, when it is ineligible or the bound is full.
std::shared_ptr<const Prelude> preludeFor(const FrontendOptions &Opts,
                                          const IncludePrefix &Prefix,
                                          const HeaderRegistry &Headers);

} // namespace cundef

#endif // CUNDEF_FRONTEND_PRELUDE_H
