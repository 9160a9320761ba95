//===- frontend/CompiledProgram.h - Immutable translation artifacts -*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The immutable product of the frontend pipeline (preprocess → lex →
/// parse → sema → static UB checks): one translation unit's interner,
/// AST, compile-time findings, and rendered diagnostics, frozen after
/// construction and always held behind
/// `std::shared_ptr<const CompiledProgram>`.
///
/// Immutability is what makes the artifact *shareable*: every machine
/// run reads the AST through `const AstContext &` (the interner and
/// type context are only mutated during the frontend pass), so one
/// artifact can be searched by any number of concurrent jobs — within
/// one program's parallel order search, across programs on a shared
/// worker pool, and across submissions via the engine-wide translation
/// cache (support/ContentCache.h, instantiated in driver/Engine.cpp),
/// which deduplicates identical translation units by content address
/// (TranslationKey).
///
/// Lifetime: whoever holds the shared_ptr keeps the arena alive. The
/// cache holds one reference; every in-flight job holds its own; the
/// engine's graveyard holds one until the worker pool is provably idle
/// (driver/Engine.cpp's lifetime model). Eviction from the cache can
/// therefore never free an AST a machine is still stepping over.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_FRONTEND_COMPILEDPROGRAM_H
#define CUNDEF_FRONTEND_COMPILEDPROGRAM_H

#include "ast/Ast.h"
#include "support/Hash.h"
#include "support/StringInterner.h"
#include "ub/Report.h"

#include <memory>
#include <string>
#include <vector>

namespace cundef {

/// Content address of one frontend run: two independent 64-bit WordHasher
/// digests (collision odds are negligible at service scales). Two
/// submissions with equal keys would produce byte-identical artifacts,
/// so the cache may hand both the same CompiledProgram.
struct TranslationKey {
  /// Digest of the translation unit's name and source bytes. The name
  /// participates because diagnostics and UB reports embed it — two
  /// submissions of identical source under different names must not
  /// share rendered output.
  uint64_t SourceHash = 0;
  /// Digest of everything else the frontend's output depends on: the
  /// TargetConfig (type sizes steer sema and static checks), the
  /// static-checks flag, and the header-registry fingerprint (a header
  /// edit must invalidate cached artifacts that #included it — or
  /// could have).
  uint64_t ContextHash = 0;

  bool operator==(const TranslationKey &O) const {
    return SourceHash == O.SourceHash && ContextHash == O.ContextHash;
  }
  bool operator!=(const TranslationKey &O) const { return !(*this == O); }
};

/// One compiled translation unit. Constructed only by
/// compileTranslationUnit (frontend/Frontend.h); immutable afterwards.
class CompiledProgram {
public:
  /// The content address this artifact was compiled under, or the
  /// all-zero key when it was compiled outside the translation cache
  /// (no address was ever derived — see frontend/Frontend.h).
  const TranslationKey &key() const { return Key; }
  /// False on preprocess/parse/sema errors; errors() has the rendering.
  bool ok() const { return Ok; }
  /// Rendered diagnostics (also non-fatal ones when ok()).
  const std::string &errors() const { return Errors; }
  /// The static half of kcc's verdict (paper section 5.2.1 rows):
  /// syntactic-checker findings plus flow-layer *must* findings.
  const std::vector<UbReport> &staticUb() const { return StaticUb; }
  /// Flow-layer *may* findings: triage hints for the dynamic search,
  /// never part of the verdict (Verdict == FindingVerdict::May).
  const std::vector<UbReport> &staticHints() const { return StaticHints; }
  /// Whether parsing got far enough to build an AST (preprocess
  /// failures stop before the AstContext exists).
  bool hasAst() const { return Ast != nullptr; }
  /// The immutable AST. Everything downstream — machines, searches,
  /// printers — reads through this const reference; one artifact may
  /// be under any number of concurrent searches.
  const AstContext &ast() const { return *Ast; }
  const StringInterner &interner() const { return *Interner; }
  /// Wall time of the frontend pass that built this artifact, in
  /// microseconds (the cost a cache hit saves).
  double frontendMicros() const { return FrontendMicros; }

private:
  friend class FrontendPipeline;
  CompiledProgram() = default;

  TranslationKey Key;
  std::unique_ptr<StringInterner> Interner;
  std::unique_ptr<AstContext> Ast;
  std::vector<UbReport> StaticUb;
  std::vector<UbReport> StaticHints;
  std::string Errors;
  bool Ok = false;
  double FrontendMicros = 0.0;
};

/// How artifacts travel: shared, immutable, reference-counted.
using CompiledProgramRef = std::shared_ptr<const CompiledProgram>;

} // namespace cundef

namespace std {
template <> struct hash<cundef::TranslationKey> {
  size_t operator()(const cundef::TranslationKey &K) const {
    return static_cast<size_t>(
        cundef::mix64(K.SourceHash ^ (K.ContextHash * 0x9e3779b97f4a7c15ull)));
  }
};
} // namespace std

#endif // CUNDEF_FRONTEND_COMPILEDPROGRAM_H
