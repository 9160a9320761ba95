//===- support/Diagnostics.cpp - Diagnostic engine -----------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include "support/Strings.h"

using namespace cundef;

void DiagnosticEngine::error(SourceLoc Loc, std::string Message) {
  Diags.push_back({DiagSeverity::Error, Loc, std::move(Message)});
  ++NumErrors;
}

void DiagnosticEngine::warning(SourceLoc Loc, std::string Message) {
  Diags.push_back({DiagSeverity::Warning, Loc, std::move(Message)});
}

void DiagnosticEngine::registerFile(uint32_t FileId, std::string Name) {
  if (FileNames.size() <= FileId)
    FileNames.resize(FileId + 1);
  FileNames[FileId] = std::move(Name);
}

std::string DiagnosticEngine::render() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    const char *Sev =
        D.Severity == DiagSeverity::Error ? "error" : "warning";
    std::string File = "<unknown>";
    if (D.Loc.isValid() && D.Loc.File < FileNames.size() &&
        !FileNames[D.Loc.File].empty())
      File = FileNames[D.Loc.File];
    Out += strFormat("%s:%u:%u: %s: %s\n", File.c_str(), D.Loc.Line,
                     D.Loc.Col, Sev, D.Message.c_str());
  }
  return Out;
}
