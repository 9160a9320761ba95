//===- serve/Protocol.cpp - The cundef-kcc-v1 wire protocol ---------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "driver/JsonOutput.h"
#include "support/Strings.h"
#include "ub/Catalog.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace cundef;

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

void cundef::appendFrame(std::string &Buffer, const std::string &Payload) {
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  char Prefix[4] = {static_cast<char>((Len >> 24) & 0xFF),
                    static_cast<char>((Len >> 16) & 0xFF),
                    static_cast<char>((Len >> 8) & 0xFF),
                    static_cast<char>(Len & 0xFF)};
  Buffer.append(Prefix, 4);
  Buffer.append(Payload);
}

int cundef::extractFrame(std::string &Buffer, std::string &Payload,
                         size_t MaxBytes) {
  if (Buffer.size() < 4)
    return 0;
  const unsigned char *B = reinterpret_cast<const unsigned char *>(
      Buffer.data());
  uint32_t Len = (static_cast<uint32_t>(B[0]) << 24) |
                 (static_cast<uint32_t>(B[1]) << 16) |
                 (static_cast<uint32_t>(B[2]) << 8) |
                 static_cast<uint32_t>(B[3]);
  if (Len > MaxBytes)
    return -1;
  if (Buffer.size() < 4 + static_cast<size_t>(Len))
    return 0;
  Payload.assign(Buffer, 4, Len);
  Buffer.erase(0, 4 + static_cast<size_t>(Len));
  return 1;
}

bool cundef::writeFrameBlocking(int Fd, const std::string &Payload) {
  std::string Framed;
  Framed.reserve(Payload.size() + 4);
  appendFrame(Framed, Payload);
  size_t Sent = 0;
  while (Sent < Framed.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-write must surface as an
    // error return, never as a process-killing SIGPIPE.
    ssize_t N = ::send(Fd, Framed.data() + Sent, Framed.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

bool cundef::readFrameBlocking(int Fd, std::string &Buffer,
                               std::string &Payload, std::string &Err,
                               int TimeoutMs, size_t MaxBytes) {
  // The stream buffer is caller-owned and persists across calls: one
  // recv may deliver several back-to-back frames (the daemon batches
  // ub_found + finished into one flush), and whatever follows the
  // extracted frame must survive for the next call.
  char Chunk[4096];
  while (true) {
    int Got = extractFrame(Buffer, Payload, MaxBytes);
    if (Got == 1)
      return true;
    if (Got == -1) {
      Err = "oversized frame announced by peer";
      return false;
    }
    if (TimeoutMs >= 0) {
      struct pollfd P = {Fd, POLLIN, 0};
      int R = ::poll(&P, 1, TimeoutMs);
      if (R == 0) {
        Err = "timed out waiting for a frame";
        return false;
      }
      if (R < 0 && errno != EINTR) {
        Err = strFormat("poll failed: %s", std::strerror(errno));
        return false;
      }
      if (R < 0)
        continue;
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N == 0) {
      Err = "connection closed by peer";
      return false;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = strFormat("recv failed: %s", std::strerror(errno));
      return false;
    }
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

//===----------------------------------------------------------------------===//
// Enum names
//===----------------------------------------------------------------------===//

namespace {

const char *orderName(EvalOrderKind K) {
  switch (K) {
  case EvalOrderKind::LeftToRight: return "ltr";
  case EvalOrderKind::RightToLeft: return "rtl";
  case EvalOrderKind::Random:      return "random";
  }
  return "ltr";
}

bool parseOrderName(const std::string &Name, EvalOrderKind &Out) {
  if (Name == "ltr")
    Out = EvalOrderKind::LeftToRight;
  else if (Name == "rtl")
    Out = EvalOrderKind::RightToLeft;
  else if (Name == "random")
    Out = EvalOrderKind::Random;
  else
    return false;
  return true;
}

const char *styleName(RuleStyle S) {
  switch (S) {
  case RuleStyle::SideConditions:  return "cond";
  case RuleStyle::PrecedenceChain: return "chain";
  case RuleStyle::Declarative:     return "decl";
  }
  return "cond";
}

bool parseStyleName(const std::string &Name, RuleStyle &Out) {
  if (Name == "cond")
    Out = RuleStyle::SideConditions;
  else if (Name == "chain")
    Out = RuleStyle::PrecedenceChain;
  else if (Name == "decl")
    Out = RuleStyle::Declarative;
  else
    return false;
  return true;
}

const char *staticModeName(StaticAnalysisMode M) {
  switch (M) {
  case StaticAnalysisMode::Off:  return "off";
  case StaticAnalysisMode::On:   return "on";
  case StaticAnalysisMode::Only: return "only";
  }
  return "on";
}

bool parseStaticModeName(const std::string &Name, StaticAnalysisMode &Out) {
  if (Name == "off")
    Out = StaticAnalysisMode::Off;
  else if (Name == "on")
    Out = StaticAnalysisMode::On;
  else if (Name == "only")
    Out = StaticAnalysisMode::Only;
  else
    return false;
  return true;
}

bool parseRunStatusName(const std::string &Name, RunStatus &Out) {
  if (Name == "running")
    Out = RunStatus::Running;
  else if (Name == "completed")
    Out = RunStatus::Completed;
  else if (Name == "ub-detected")
    Out = RunStatus::UbDetected;
  else if (Name == "fault")
    Out = RunStatus::Fault;
  else if (Name == "step-limit")
    Out = RunStatus::StepLimit;
  else if (Name == "internal")
    Out = RunStatus::Internal;
  else if (Name == "cancelled")
    Out = RunStatus::Cancelled;
  else
    return false;
  return true;
}

const char *verdictWireName(FindingVerdict V) {
  switch (V) {
  case FindingVerdict::Must: return "must";
  case FindingVerdict::May:  return "may";
  case FindingVerdict::None: break;
  }
  return "none";
}

bool parseVerdictName(const std::string &Name, FindingVerdict &Out) {
  if (Name == "none")
    Out = FindingVerdict::None;
  else if (Name == "must")
    Out = FindingVerdict::Must;
  else if (Name == "may")
    Out = FindingVerdict::May;
  else
    return false;
  return true;
}

/// UbReport::Domain is documented as "always a string literal, never
/// owned", so the wire decoder must map names back onto the closed set
/// of literals the static layer uses (unknown names — a newer peer —
/// degrade to the empty domain rather than dangling).
const char *internDomain(const std::string &Name) {
  if (Name == "syntactic")
    return "syntactic";
  if (Name == "nullness")
    return "nullness";
  if (Name == "init")
    return "init";
  if (Name == "interval")
    return "interval";
  return "";
}

} // namespace

//===----------------------------------------------------------------------===//
// AnalysisRequest
//===----------------------------------------------------------------------===//

std::string cundef::serializeRequest(const AnalysisRequest &Req) {
  const TargetConfig &T = Req.target();
  const MachineOptions &M = Req.machine();
  std::string Out = "{";
  Out += strFormat(
      "\"target\":{\"short_size\":%u,\"int_size\":%u,\"long_size\":%u,"
      "\"long_long_size\":%u,\"pointer_size\":%u,\"float_size\":%u,"
      "\"double_size\":%u,\"bool_size\":%u,\"max_align\":%u,"
      "\"char_is_signed\":%s,\"arithmetic_right_shift\":%s},",
      T.ShortSize, T.IntSize, T.LongSize, T.LongLongSize, T.PointerSize,
      T.FloatSize, T.DoubleSize, T.BoolSize, T.MaxAlign,
      T.CharIsSigned ? "true" : "false",
      T.ArithmeticRightShift ? "true" : "false");
  Out += strFormat(
      "\"machine\":{\"strict\":%s,\"track_sequencing\":%s,\"track_const\":%s,"
      "\"symbolic_pointers\":%s,\"pointer_bytes\":%s,\"unknown_bytes\":%s,"
      "\"check_effective_types\":%s,\"stop_at_first_ub\":%s,"
      "\"step_limit\":%llu,\"order\":\"%s\",\"seed\":%u,"
      "\"max_call_depth\":%u,\"style\":\"%s\"},",
      M.Strict ? "true" : "false", M.TrackSequencing ? "true" : "false",
      M.TrackConst ? "true" : "false", M.SymbolicPointers ? "true" : "false",
      M.PointerBytes ? "true" : "false", M.UnknownBytes ? "true" : "false",
      M.CheckEffectiveTypes ? "true" : "false",
      M.StopAtFirstUb ? "true" : "false",
      static_cast<unsigned long long>(M.StepLimit), orderName(M.Order),
      M.Seed, M.MaxCallDepth, styleName(M.Style));
  Out += strFormat(
      "\"static_checks\":%s,\"static_analyze\":\"%s\",\"search_runs\":%u,"
      "\"search_jobs\":%u,\"dedup\":%s,\"snapshots\":%s,"
      "\"result_cache\":%s}",
      Req.staticChecks() ? "true" : "false",
      staticModeName(Req.staticAnalyze()), Req.searchRuns(), Req.searchJobs(),
      Req.searchDedup() ? "true" : "false",
      Req.searchSnapshots() ? "true" : "false",
      Req.useResultCache() ? "true" : "false");
  return Out;
}

bool cundef::parseRequest(const JsonValue &V, AnalysisRequest &Out,
                          std::string &Err) {
  if (!V.isObject()) {
    Err = "request must be a JSON object";
    return false;
  }
  AnalysisRequest Defaults;
  TargetConfig T = Defaults.target();
  if (const JsonValue *TV = V.get("target")) {
    if (!TV->isObject()) {
      Err = "request.target must be an object";
      return false;
    }
    T.ShortSize = static_cast<unsigned>(TV->getU64("short_size", T.ShortSize));
    T.IntSize = static_cast<unsigned>(TV->getU64("int_size", T.IntSize));
    T.LongSize = static_cast<unsigned>(TV->getU64("long_size", T.LongSize));
    T.LongLongSize =
        static_cast<unsigned>(TV->getU64("long_long_size", T.LongLongSize));
    T.PointerSize =
        static_cast<unsigned>(TV->getU64("pointer_size", T.PointerSize));
    T.FloatSize = static_cast<unsigned>(TV->getU64("float_size", T.FloatSize));
    T.DoubleSize =
        static_cast<unsigned>(TV->getU64("double_size", T.DoubleSize));
    T.BoolSize = static_cast<unsigned>(TV->getU64("bool_size", T.BoolSize));
    T.MaxAlign = static_cast<unsigned>(TV->getU64("max_align", T.MaxAlign));
    T.CharIsSigned = TV->getBool("char_is_signed", T.CharIsSigned);
    T.ArithmeticRightShift =
        TV->getBool("arithmetic_right_shift", T.ArithmeticRightShift);
  }
  MachineOptions M = Defaults.machine();
  if (const JsonValue *MV = V.get("machine")) {
    if (!MV->isObject()) {
      Err = "request.machine must be an object";
      return false;
    }
    M.Strict = MV->getBool("strict", M.Strict);
    M.TrackSequencing = MV->getBool("track_sequencing", M.TrackSequencing);
    M.TrackConst = MV->getBool("track_const", M.TrackConst);
    M.SymbolicPointers = MV->getBool("symbolic_pointers", M.SymbolicPointers);
    M.PointerBytes = MV->getBool("pointer_bytes", M.PointerBytes);
    M.UnknownBytes = MV->getBool("unknown_bytes", M.UnknownBytes);
    M.CheckEffectiveTypes =
        MV->getBool("check_effective_types", M.CheckEffectiveTypes);
    M.StopAtFirstUb = MV->getBool("stop_at_first_ub", M.StopAtFirstUb);
    M.StepLimit = MV->getU64("step_limit", M.StepLimit);
    M.Seed = static_cast<uint32_t>(MV->getU64("seed", M.Seed));
    M.MaxCallDepth =
        static_cast<unsigned>(MV->getU64("max_call_depth", M.MaxCallDepth));
    if (const JsonValue *OV = MV->get("order"))
      if (!parseOrderName(OV->asString(), M.Order)) {
        Err = "unknown machine.order '" + OV->asString() + "'";
        return false;
      }
    if (const JsonValue *SV = MV->get("style"))
      if (!parseStyleName(SV->asString(), M.Style)) {
        Err = "unknown machine.style '" + SV->asString() + "'";
        return false;
      }
  }

  AnalysisRequest::Builder B;
  B.target(T).machine(M);
  B.staticChecks(V.getBool("static_checks", Defaults.staticChecks()));
  StaticAnalysisMode Mode = Defaults.staticAnalyze();
  if (const JsonValue *SM = V.get("static_analyze"))
    if (!parseStaticModeName(SM->asString(), Mode)) {
      Err = "unknown static_analyze mode '" + SM->asString() + "'";
      return false;
    }
  B.staticAnalyze(Mode);
  B.searchRuns(
      static_cast<unsigned>(V.getU64("search_runs", Defaults.searchRuns())));
  B.searchJobs(
      static_cast<unsigned>(V.getU64("search_jobs", Defaults.searchJobs())));
  B.dedup(V.getBool("dedup", Defaults.searchDedup()));
  B.snapshots(V.getBool("snapshots", Defaults.searchSnapshots()));
  B.resultCache(V.getBool("result_cache", Defaults.useResultCache()));

  // The same validation gate a local kcc runs: a remote peer cannot
  // smuggle in a configuration the Builder would reject.
  AnalysisRequest::Builder::Result Built = B.build();
  if (!Built.ok()) {
    Err = Built.Err.Message;
    return false;
  }
  Out = Built.Request;
  return true;
}

//===----------------------------------------------------------------------===//
// Findings and outcomes
//===----------------------------------------------------------------------===//

std::string cundef::serializeFindings(const std::vector<UbReport> &Reports) {
  std::string Out = "[";
  for (size_t I = 0; I < Reports.size(); ++I) {
    const UbReport &R = Reports[I];
    Out += strFormat(
        "%s{\"code\":%u,\"description\":\"%s\",\"function\":\"%s\","
        "\"file\":%u,\"line\":%u,\"column\":%u,\"static\":%s,"
        "\"verdict\":\"%s\",\"domain\":\"%s\"}",
        I ? "," : "", ubCode(R.Kind), jsonEscape(R.Description).c_str(),
        jsonEscape(R.Function).c_str(), R.Loc.File, R.Loc.Line, R.Loc.Col,
        R.StaticFinding ? "true" : "false", verdictWireName(R.Verdict),
        R.Domain);
  }
  Out += "]";
  return Out;
}

bool cundef::parseFindings(const JsonValue &V, std::vector<UbReport> &Out,
                           std::string &Err) {
  if (!V.isArray()) {
    Err = "findings must be an array";
    return false;
  }
  Out.clear();
  Out.reserve(V.items().size());
  for (const JsonValue &F : V.items()) {
    if (!F.isObject()) {
      Err = "finding must be an object";
      return false;
    }
    UbReport R;
    R.Kind = static_cast<UbKind>(F.getU64("code", 0));
    R.Description = F.getString("description");
    R.Function = F.getString("function");
    R.Loc = SourceLoc(static_cast<uint32_t>(F.getU64("file", 0)),
                      static_cast<uint32_t>(F.getU64("line", 0)),
                      static_cast<uint32_t>(F.getU64("column", 0)));
    R.StaticFinding = F.getBool("static", false);
    if (!parseVerdictName(F.getString("verdict").empty()
                              ? std::string("none")
                              : F.getString("verdict"),
                          R.Verdict)) {
      Err = "unknown finding verdict '" + F.getString("verdict") + "'";
      return false;
    }
    R.Domain = internDomain(F.getString("domain"));
    Out.push_back(std::move(R));
  }
  return true;
}

std::string cundef::serializeOutcome(const DriverOutcome &O) {
  std::string Out = "{";
  Out += strFormat("\"compile_ok\":%s,", O.CompileOk ? "true" : "false");
  Out += strFormat("\"compile_errors\":\"%s\",",
                   jsonEscape(O.CompileErrors).c_str());
  Out += "\"static_ub\":" + serializeFindings(O.StaticUb) + ",";
  Out += "\"static_hints\":" + serializeFindings(O.StaticHints) + ",";
  Out += "\"dynamic_ub\":" + serializeFindings(O.DynamicUb) + ",";
  Out += strFormat("\"static_only\":%s,", O.StaticOnly ? "true" : "false");
  Out += strFormat("\"status\":\"%s\",", runStatusName(O.Status));
  Out += strFormat("\"exit_code\":%d,", O.ExitCode);
  Out += strFormat("\"output\":\"%s\",", jsonEscape(O.Output).c_str());
  Out += strFormat("\"orders_explored\":%u,", O.OrdersExplored);
  Out += strFormat("\"orders_deduped\":%u,", O.OrdersDeduped);
  Out += strFormat("\"truncated\":%s,", O.SearchTruncated ? "true" : "false");
  Out += strFormat("\"dropped_subtrees\":%u,", O.SearchDropped);
  Out += strFormat("\"steals\":%u,", O.SearchSteals);
  Out += strFormat("\"snapshot_evictions\":%u,", O.SearchEvictions);
  Out += strFormat("\"peak_frontier\":%u,", O.SearchPeakFrontier);
  Out += strFormat("\"translation_cache_hit\":%s,",
                   O.TranslationCacheHit ? "true" : "false");
  Out += strFormat("\"result_cache_hit\":%s,",
                   O.ResultCacheHit ? "true" : "false");
  Out += strFormat("\"frontend_micros\":%.3f,", O.FrontendMicros);
  Out += strFormat("\"search_micros\":%.3f,", O.SearchMicros);
  std::string Witness;
  for (uint8_t D : O.SearchWitness)
    Witness += strFormat("%s%u", Witness.empty() ? "" : ",", D);
  Out += strFormat("\"witness\":[%s]}", Witness.c_str());
  return Out;
}

bool cundef::parseOutcome(const JsonValue &V, DriverOutcome &Out,
                          std::string &Err) {
  if (!V.isObject()) {
    Err = "outcome must be a JSON object";
    return false;
  }
  Out = DriverOutcome();
  Out.CompileOk = V.getBool("compile_ok", false);
  Out.CompileErrors = V.getString("compile_errors");
  const JsonValue *F = V.get("static_ub");
  if (!F || !parseFindings(*F, Out.StaticUb, Err))
    return false;
  F = V.get("static_hints");
  if (!F || !parseFindings(*F, Out.StaticHints, Err))
    return false;
  F = V.get("dynamic_ub");
  if (!F || !parseFindings(*F, Out.DynamicUb, Err))
    return false;
  Out.StaticOnly = V.getBool("static_only", false);
  if (!parseRunStatusName(V.getString("status"), Out.Status)) {
    Err = "unknown run status '" + V.getString("status") + "'";
    return false;
  }
  Out.ExitCode = static_cast<int>(V.get("exit_code")
                                      ? V.get("exit_code")->asI64(0)
                                      : 0);
  Out.Output = V.getString("output");
  Out.OrdersExplored = static_cast<unsigned>(V.getU64("orders_explored", 0));
  Out.OrdersDeduped = static_cast<unsigned>(V.getU64("orders_deduped", 0));
  Out.SearchTruncated = V.getBool("truncated", false);
  Out.SearchDropped = static_cast<unsigned>(V.getU64("dropped_subtrees", 0));
  Out.SearchSteals = static_cast<unsigned>(V.getU64("steals", 0));
  Out.SearchEvictions =
      static_cast<unsigned>(V.getU64("snapshot_evictions", 0));
  Out.SearchPeakFrontier =
      static_cast<unsigned>(V.getU64("peak_frontier", 0));
  Out.TranslationCacheHit = V.getBool("translation_cache_hit", false);
  Out.ResultCacheHit = V.getBool("result_cache_hit", false);
  Out.FrontendMicros = V.getDouble("frontend_micros", 0.0);
  Out.SearchMicros = V.getDouble("search_micros", 0.0);
  if (const JsonValue *W = V.get("witness")) {
    if (!W->isArray()) {
      Err = "outcome.witness must be an array";
      return false;
    }
    Out.SearchWitness.reserve(W->items().size());
    for (const JsonValue &D : W->items())
      Out.SearchWitness.push_back(static_cast<uint8_t>(D.asU64(0) ? 1 : 0));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

std::string cundef::serializeStats(const SchedulerStats &Pool,
                                   const EngineMemoryStats &Memory,
                                   const TranslationCacheStats &Translation,
                                   const ResultCacheStats &ResultC) {
  std::string Out = "{";
  Out += strFormat(
      "\"pool\":{\"programs\":%u,\"workers\":%u,\"steals\":%llu,"
      "\"snapshot_evictions\":%llu,\"peak_frontier\":%llu,"
      "\"runs_executed\":%llu,\"dedup_hits\":%llu,\"runs_committed\":%llu,"
      "\"provisional_hits\":%llu,\"provisional_requeues\":%llu,"
      "\"commit_lag_peak\":%llu,\"snapshot_shards\":%u,"
      "\"snapshot_takes\":%llu,\"snapshot_hits\":%llu,"
      "\"snapshot_slot_steals\":%llu},",
      Pool.Programs, Pool.Jobs,
      static_cast<unsigned long long>(Pool.Steals),
      static_cast<unsigned long long>(Pool.SnapshotEvictions),
      static_cast<unsigned long long>(Pool.PeakFrontier),
      static_cast<unsigned long long>(Pool.RunsExecuted),
      static_cast<unsigned long long>(Pool.DedupHits),
      static_cast<unsigned long long>(Pool.RunsCommitted),
      static_cast<unsigned long long>(Pool.ProvisionalHits),
      static_cast<unsigned long long>(Pool.ProvisionalRequeues),
      static_cast<unsigned long long>(Pool.CommitLagPeak),
      Pool.SnapshotShards,
      static_cast<unsigned long long>(Pool.SnapshotTakes),
      static_cast<unsigned long long>(Pool.SnapshotHits),
      static_cast<unsigned long long>(Pool.SnapshotSlotSteals));
  Out += strFormat(
      "\"memory\":{\"pending_jobs\":%llu,\"graveyard_artifacts\":%llu,"
      "\"program_slots\":%llu,\"retained_programs\":%llu,"
      "\"pending_snapshots\":%llu},",
      static_cast<unsigned long long>(Memory.PendingJobs),
      static_cast<unsigned long long>(Memory.GraveyardArtifacts),
      static_cast<unsigned long long>(Memory.ProgramSlots),
      static_cast<unsigned long long>(Memory.RetainedPrograms),
      static_cast<unsigned long long>(Memory.PendingSnapshots));
  Out += strFormat(
      "\"translation\":{\"lookups\":%llu,\"hits\":%llu,\"misses\":%llu,"
      "\"inflight_joins\":%llu,\"evictions\":%llu},",
      static_cast<unsigned long long>(Translation.Lookups),
      static_cast<unsigned long long>(Translation.Hits),
      static_cast<unsigned long long>(Translation.Misses),
      static_cast<unsigned long long>(Translation.InflightJoins),
      static_cast<unsigned long long>(Translation.Evictions));
  Out += strFormat(
      "\"result_cache\":{\"lookups\":%llu,\"hits\":%llu,\"misses\":%llu,"
      "\"inflight_joins\":%llu,\"evictions\":%llu,\"abandoned\":%llu}}",
      static_cast<unsigned long long>(ResultC.Lookups),
      static_cast<unsigned long long>(ResultC.Hits),
      static_cast<unsigned long long>(ResultC.Misses),
      static_cast<unsigned long long>(ResultC.InflightJoins),
      static_cast<unsigned long long>(ResultC.Evictions),
      static_cast<unsigned long long>(ResultC.Abandoned));
  return Out;
}

bool cundef::parseStats(const JsonValue &V, SchedulerStats &Pool,
                        EngineMemoryStats &Memory,
                        TranslationCacheStats &Translation,
                        ResultCacheStats &ResultC, std::string &Err) {
  const JsonValue *P = V.get("pool");
  const JsonValue *M = V.get("memory");
  const JsonValue *T = V.get("translation");
  const JsonValue *R = V.get("result_cache");
  if (!P || !P->isObject() || !M || !M->isObject() || !T || !T->isObject() ||
      !R || !R->isObject()) {
    Err = "stats body must carry pool, memory, translation, and "
          "result_cache objects";
    return false;
  }
  Pool = SchedulerStats();
  Pool.Programs = static_cast<unsigned>(P->getU64("programs", 0));
  Pool.Jobs = static_cast<unsigned>(P->getU64("workers", 0));
  Pool.Steals = P->getU64("steals", 0);
  Pool.SnapshotEvictions = P->getU64("snapshot_evictions", 0);
  Pool.PeakFrontier = P->getU64("peak_frontier", 0);
  Pool.RunsExecuted = P->getU64("runs_executed", 0);
  Pool.DedupHits = P->getU64("dedup_hits", 0);
  Pool.RunsCommitted = P->getU64("runs_committed", 0);
  Pool.ProvisionalHits = P->getU64("provisional_hits", 0);
  Pool.ProvisionalRequeues = P->getU64("provisional_requeues", 0);
  Pool.CommitLagPeak = P->getU64("commit_lag_peak", 0);
  Pool.SnapshotShards = static_cast<unsigned>(P->getU64("snapshot_shards", 0));
  Pool.SnapshotTakes = P->getU64("snapshot_takes", 0);
  Pool.SnapshotHits = P->getU64("snapshot_hits", 0);
  Pool.SnapshotSlotSteals = P->getU64("snapshot_slot_steals", 0);
  Memory = EngineMemoryStats();
  Memory.PendingJobs = M->getU64("pending_jobs", 0);
  Memory.GraveyardArtifacts = M->getU64("graveyard_artifacts", 0);
  Memory.ProgramSlots = M->getU64("program_slots", 0);
  Memory.RetainedPrograms = M->getU64("retained_programs", 0);
  Memory.PendingSnapshots = M->getU64("pending_snapshots", 0);
  Translation = TranslationCacheStats();
  Translation.Lookups = T->getU64("lookups", 0);
  Translation.Hits = T->getU64("hits", 0);
  Translation.Misses = T->getU64("misses", 0);
  Translation.InflightJoins = T->getU64("inflight_joins", 0);
  Translation.Evictions = T->getU64("evictions", 0);
  ResultC = ResultCacheStats();
  ResultC.Lookups = R->getU64("lookups", 0);
  ResultC.Hits = R->getU64("hits", 0);
  ResultC.Misses = R->getU64("misses", 0);
  ResultC.InflightJoins = R->getU64("inflight_joins", 0);
  ResultC.Evictions = R->getU64("evictions", 0);
  ResultC.Abandoned = R->getU64("abandoned", 0);
  return true;
}

//===----------------------------------------------------------------------===//
// Whole frames
//===----------------------------------------------------------------------===//

std::string cundef::helloFrame(unsigned Workers) {
  return strFormat("{\"type\":\"hello\",\"schema\":\"%s\",\"workers\":%u}",
                   ServeProtocolName, Workers);
}

std::string cundef::submitFrame(uint64_t Id, const std::string &Name,
                                const std::string &Source,
                                const AnalysisRequest &Req) {
  return strFormat("{\"type\":\"submit\",\"id\":%llu,\"name\":\"%s\","
                   "\"source\":\"%s\",\"request\":%s}",
                   static_cast<unsigned long long>(Id),
                   jsonEscape(Name).c_str(), jsonEscape(Source).c_str(),
                   serializeRequest(Req).c_str());
}

std::string cundef::statsFrame(uint64_t Id) {
  return strFormat("{\"type\":\"stats\",\"id\":%llu}",
                   static_cast<unsigned long long>(Id));
}

std::string cundef::errorFrame(uint64_t Id, const char *Code,
                               const std::string &Message) {
  return strFormat("{\"type\":\"error\",\"id\":%llu,\"code\":\"%s\","
                   "\"message\":\"%s\"}",
                   static_cast<unsigned long long>(Id), Code,
                   jsonEscape(Message).c_str());
}

std::string cundef::ubFoundFrame(uint64_t Id,
                                 const std::vector<UbReport> &Reports) {
  return strFormat("{\"type\":\"ub_found\",\"id\":%llu,\"findings\":%s}",
                   static_cast<unsigned long long>(Id),
                   serializeFindings(Reports).c_str());
}

std::string cundef::frontierTruncatedFrame(uint64_t Id,
                                           unsigned DroppedSubtrees) {
  return strFormat(
      "{\"type\":\"frontier_truncated\",\"id\":%llu,\"dropped_subtrees\":%u}",
      static_cast<unsigned long long>(Id), DroppedSubtrees);
}

std::string cundef::finishedFrame(uint64_t Id, const DriverOutcome &Outcome,
                                  double WallMicros) {
  return strFormat(
      "{\"type\":\"finished\",\"id\":%llu,\"wall_micros\":%.3f,"
      "\"outcome\":%s}",
      static_cast<unsigned long long>(Id), WallMicros,
      serializeOutcome(Outcome).c_str());
}

std::string cundef::statsResultFrame(uint64_t Id, const SchedulerStats &Pool,
                                     const EngineMemoryStats &Memory,
                                     const TranslationCacheStats &Translation,
                                     const ResultCacheStats &ResultC) {
  return strFormat("{\"type\":\"stats_result\",\"id\":%llu,\"stats\":%s}",
                   static_cast<unsigned long long>(Id),
                   serializeStats(Pool, Memory, Translation, ResultC).c_str());
}
