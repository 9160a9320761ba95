//===- support/Diagnostics.h - Diagnostic engine --------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects frontend diagnostics (lexer/preprocessor/parser/sema errors
/// and warnings). Undefined-behavior findings are richer objects and live
/// in ub/Report.h; this engine is only for "this is not a C program at
/// all" problems, which the paper distinguishes from undefinedness.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_DIAGNOSTICS_H
#define CUNDEF_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace cundef {

enum class DiagSeverity { Warning, Error };

/// One frontend diagnostic.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  SourceLoc Loc;
  std::string Message;
};

/// Accumulates diagnostics; owned by the driver and shared by every
/// frontend stage.
class DiagnosticEngine {
public:
  void error(SourceLoc Loc, std::string Message);
  void warning(SourceLoc Loc, std::string Message);

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &all() const { return Diags; }

  /// Renders every diagnostic as "line:col: severity: message" using the
  /// file names registered with registerFile.
  std::string render() const;

  /// Associates \p FileId with \p Name for rendering.
  void registerFile(uint32_t FileId, std::string Name);
  /// Registered file names by id ("" where none is).
  const std::vector<std::string> &files() const { return FileNames; }

  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

private:
  std::vector<Diagnostic> Diags;
  std::vector<std::string> FileNames;
  unsigned NumErrors = 0;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_DIAGNOSTICS_H
