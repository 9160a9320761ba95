//===- driver/JsonOutput.h - Machine-readable kcc output --------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders DriverOutcomes as the stable `cundef-kcc-v1` JSON schema
/// (docs/JSON_OUTPUT.md), so build pipelines consume kcc verdicts,
/// findings, witness bytes, scheduler counters, and per-job wall times
/// without parsing the paper's human-oriented error format. The schema
/// is versioned: additions bump the minor shape compatibly, removals
/// or renames would bump the version string — external consumers pin
/// on it. The stats field lists here also serve the wire stats frame
/// (serve/Protocol.h), so both surfaces spell each counter once.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_DRIVER_JSONOUTPUT_H
#define CUNDEF_DRIVER_JSONOUTPUT_H

#include "driver/Engine.h"
#include "support/Json.h"

#include <string>
#include <vector>

namespace cundef {

/// One entry of the top-level "programs" array: the outcome plus its
/// per-job submit-to-completion wall time (engine attribution; see
/// EngineSink::onProgramFinished for the shared-pool caveat).
struct JsonProgram {
  const DriverOutcome *Outcome = nullptr;
  std::string Name;
  double WallMicros = 0.0;
  /// The request's flow-layer mode ("off", "on", "only"), echoed in the
  /// program's static_analysis block so consumers know what the static
  /// findings mean without reconstructing the command line.
  const char *StaticMode = "on";
};

/// Renders the whole `cundef-kcc-v1` document: programs (each with its
/// `compile` block — translation/result cache hit flags,
/// frontend/search micros), the shared pool counters plus the engine's
/// translation-cache and result-cache counters, and the process exit
/// code the verdicts imply (139 if any program is undefined, else 1 if
/// any failed to compile, else the single program's exit code / 0 for
/// batches). Strings are escaped byte-transparently (support/Json.h):
/// every byte outside printable ASCII becomes \u00XX.
std::string renderJsonDocument(const std::vector<JsonProgram> &Programs,
                               const SchedulerStats &Pool,
                               const TranslationCacheStats &TCache,
                               const ResultCacheStats &RCache, double WallMs,
                               int ExitCode);

// The one field list per stats struct (see support/Json.h), in --json
// document order; the wire stats frame uses the same lists.

template <typename Visit> void visitFields(SchedulerStats &P, Visit &&V) {
  V("programs", P.Programs);
  V("workers", P.Jobs);
  V("runs_executed", P.RunsExecuted);
  V("runs_committed", P.RunsCommitted);
  V("speculative_waste", P.speculativeWaste(), 4);
  V("provisional_hits", P.ProvisionalHits);
  V("provisional_requeues", P.ProvisionalRequeues);
  V("commit_lag_peak", P.CommitLagPeak);
  V("steals", P.Steals);
  V("dedup_hits", P.DedupHits);
  V("snapshot_shards", P.SnapshotShards);
  V("snapshot_captures", P.SnapshotCaptures);
  V("snapshot_takes", P.SnapshotTakes);
  V("snapshot_hits", P.SnapshotHits);
  V("snapshot_slot_steals", P.SnapshotSlotSteals);
  V("snapshot_evictions", P.SnapshotEvictions);
  V("peak_frontier", P.PeakFrontier);
}

template <typename Visit> void visitFields(EngineMemoryStats &M, Visit &&V) {
  V("pending_jobs", M.PendingJobs);
  V("graveyard_artifacts", M.GraveyardArtifacts);
  V("program_slots", M.ProgramSlots);
  V("retained_programs", M.RetainedPrograms);
  V("pending_snapshots", M.PendingSnapshots);
}

// hits + inflight_joins is the "served from cache" count; misses is the
// work actually done — honest cached-vs-executed accounting.
template <typename Visit>
void visitFields(TranslationCacheStats &T, Visit &&V) {
  V("lookups", T.Lookups);
  V("hits", T.Hits);
  V("inflight_joins", T.InflightJoins);
  V("misses", T.Misses);
  V("evictions", T.Evictions);
}

template <typename Visit> void visitFields(ResultCacheStats &R, Visit &&V) {
  V("lookups", R.Lookups);
  V("hits", R.Hits);
  V("inflight_joins", R.InflightJoins);
  V("misses", R.Misses);
  V("evictions", R.Evictions);
  V("abandoned", R.Abandoned);
}

} // namespace cundef

#endif // CUNDEF_DRIVER_JSONOUTPUT_H
