//===- libc/Builtins.h - Library function semantics -------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard library functions the checker gives semantics to.
/// Declarations come from the virtual headers (libc/Headers.h); after
/// parsing, assignBuiltinIds() marks the bodyless declarations whose
/// names match a builtin, and the machine dispatches calls to
/// runBuiltin(). The implementations carry the library's undefinedness
/// conditions (bad free, overlapping memcpy, non-string arguments,
/// printf argument mismatches, ...).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_LIBC_BUILTINS_H
#define CUNDEF_LIBC_BUILTINS_H

#include "ast/Ast.h"
#include "core/Value.h"

#include <vector>

namespace cundef {

class Machine;
class CallExpr;

enum BuiltinId : uint16_t {
  BuiltinNone = 0,
  BuiltinMalloc,
  BuiltinCalloc,
  BuiltinRealloc,
  BuiltinFree,
  BuiltinMemcpy,
  BuiltinMemmove,
  BuiltinMemset,
  BuiltinMemcmp,
  BuiltinStrlen,
  BuiltinStrcpy,
  BuiltinStrncpy,
  BuiltinStrcmp,
  BuiltinStrncmp,
  BuiltinStrchr,
  BuiltinStrcat,
  BuiltinPrintf,
  BuiltinPutchar,
  BuiltinPuts,
  BuiltinAbort,
  BuiltinExit,
  BuiltinAbs,
  BuiltinLabs,
  BuiltinRand,
  BuiltinSrand,
  BuiltinAtoi,
  BuiltinQsort,
  BuiltinBsearch,
  BuiltinVaArg, ///< __cundef_va_arg, behind the va_arg macro
  BuiltinSprintf,
  BuiltinSnprintf,
};

/// Marks bodyless functions whose name is a known builtin, leaving
/// the declarations Ctx shares with its base as they are.
void assignBuiltinIds(AstContext &Ctx);

/// Executes builtin \p Id. Returns false when the builtin reported
/// undefinedness (or stopped the machine); otherwise sets \p Result.
bool runBuiltin(Machine &M, uint16_t Id, ValueSpan Args,
                const CallExpr *Site, Value &Result);

} // namespace cundef

#endif // CUNDEF_LIBC_BUILTINS_H
