//===- serve/Protocol.cpp - The cundef-kcc-v1 wire protocol ---------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "driver/JsonOutput.h"
#include "support/Strings.h"

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
// Message bodies
//===----------------------------------------------------------------------===//

// Field lists, one per wire struct (see support/Json.h); each serves
// both the serializer and the parser. The stats lists live in
// driver/JsonOutput.h, shared with the --json document.
namespace cundef {

template <typename Visit> static void visitFields(TargetConfig &T, Visit &&V) {
  V("short_size", T.ShortSize);
  V("int_size", T.IntSize);
  V("long_size", T.LongSize);
  V("long_long_size", T.LongLongSize);
  V("pointer_size", T.PointerSize);
  V("float_size", T.FloatSize);
  V("double_size", T.DoubleSize);
  V("bool_size", T.BoolSize);
  V("max_align", T.MaxAlign);
  V("char_is_signed", T.CharIsSigned);
  V("arithmetic_right_shift", T.ArithmeticRightShift);
}

template <typename Visit>
static void visitFields(MachineOptions &M, Visit &&V) {
  V("strict", M.Strict);
  V("track_sequencing", M.TrackSequencing);
  V("track_const", M.TrackConst);
  V("symbolic_pointers", M.SymbolicPointers);
  V("pointer_bytes", M.PointerBytes);
  V("unknown_bytes", M.UnknownBytes);
  V("check_effective_types", M.CheckEffectiveTypes);
  V("stop_at_first_ub", M.StopAtFirstUb);
  V("step_limit", M.StepLimit);
  V("order", M.Order, EvalOrderNames);
  V("seed", M.Seed);
  V("max_call_depth", M.MaxCallDepth);
  V("style", M.Style, RuleStyleNames);
}

/// Everything of a UbReport but its domain, an interned literal.
template <typename Visit> static void visitFields(UbReport &R, Visit &&V) {
  V("code", R.Kind);
  V("description", R.Description);
  V("function", R.Function);
  V("file", R.Loc.File);
  V("line", R.Loc.Line);
  V("column", R.Loc.Col);
  V("static", R.StaticFinding);
  V("verdict", R.Verdict, FindingVerdictNames);
}

/// The scalar part of a DriverOutcome; the finding lists and the
/// witness follow it on the wire.
template <typename Visit>
static void visitFields(DriverOutcome &O, Visit &&V) {
  V("compile_ok", O.CompileOk);
  V("compile_errors", O.CompileErrors);
  V("static_only", O.StaticOnly);
  V("status", O.Status, RunStatusNames);
  V("exit_code", O.ExitCode);
  V("output", O.Output);
  V("orders_explored", O.OrdersExplored);
  V("orders_deduped", O.OrdersDeduped);
  V("truncated", O.SearchTruncated);
  V("dropped_subtrees", O.SearchDropped);
  V("steals", O.SearchSteals);
  V("snapshot_evictions", O.SearchEvictions);
  V("peak_frontier", O.SearchPeakFrontier);
  V("translation_cache_hit", O.TranslationCacheHit);
  V("result_cache_hit", O.ResultCacheHit);
  V("frontend_micros", O.FrontendMicros, 3);
  V("search_micros", O.SearchMicros, 3);
}

} // namespace cundef

namespace {

/// UbReport::Domain is documented as "always a string literal, never
/// owned", so the wire decoder must map names back onto the closed set
/// of literals the static layer uses (unknown names — a newer peer —
/// degrade to the empty domain rather than dangling).
const char *internDomain(const std::string &Name) {
  for (const char *Domain : {"syntactic", "nullness", "init", "interval"})
    if (Name == Domain)
      return Domain;
  return "";
}

JsonValue requestJson(const AnalysisRequest &Req) {
  JsonValue Out = JsonValue::object();
  Out.set("target", fieldsJson(Req.target()))
      .set("machine", fieldsJson(Req.machine()))
      .set("static_checks", Req.staticChecks())
      .set("static_analyze",
           enumName(StaticAnalysisModeNames, Req.staticAnalyze()))
      .set("search_runs", Req.searchRuns())
      .set("search_jobs", Req.searchJobs())
      .set("dedup", Req.searchDedup())
      .set("snapshots", Req.searchSnapshots())
      .set("result_cache", Req.useResultCache());
  return Out;
}

JsonValue findingsJson(const std::vector<UbReport> &Reports) {
  JsonValue Out = JsonValue::array();
  for (const UbReport &R : Reports) {
    JsonValue F = fieldsJson(R);
    Out.push(std::move(F.set("domain", R.Domain)));
  }
  return Out;
}

JsonValue outcomeJson(const DriverOutcome &O) {
  JsonValue Witness = JsonValue::array();
  for (uint8_t D : O.SearchWitness)
    Witness.push(D);
  JsonValue Out = fieldsJson(O);
  Out.set("static_ub", findingsJson(O.StaticUb))
      .set("static_hints", findingsJson(O.StaticHints))
      .set("dynamic_ub", findingsJson(O.DynamicUb))
      .set("witness", std::move(Witness));
  return Out;
}

JsonValue statsBody(const SchedulerStats &Pool, const EngineMemoryStats &Memory,
                    const TranslationCacheStats &Translation,
                    const ResultCacheStats &ResultC) {
  JsonValue Out = JsonValue::object();
  Out.set("pool", fieldsJson(Pool))
      .set("memory", fieldsJson(Memory))
      .set("translation", fieldsJson(Translation))
      .set("result_cache", fieldsJson(ResultC));
  return Out;
}

/// A frame object carrying its type and the job id it answers.
JsonValue frame(const char *Type, uint64_t Id) {
  JsonValue F = JsonValue::object();
  F.set("type", Type).set("id", Id);
  return F;
}

} // namespace

std::string cundef::serializeRequest(const AnalysisRequest &Req) {
  return requestJson(Req).compact();
}

bool cundef::parseRequest(const JsonValue &V, AnalysisRequest &Out,
                          std::string &Err) {
  const JsonValue *TV = V.get("target");
  const JsonValue *MV = V.get("machine");
  if (!V.isObject() || (TV && !TV->isObject()) || (MV && !MV->isObject())) {
    Err = "request, request.target and request.machine must be objects";
    return false;
  }
  static const JsonValue Absent = JsonValue::object();
  AnalysisRequest Defaults;
  TargetConfig T = Defaults.target();
  MachineOptions M = Defaults.machine();
  if (!readFields(TV ? *TV : Absent, T, "request.target", Err) ||
      !readFields(MV ? *MV : Absent, M, "request.machine", Err))
    return false;
  JsonFieldReader R(V);
  bool StaticChecks = Defaults.staticChecks(), Dedup = Defaults.searchDedup(),
       Snapshots = Defaults.searchSnapshots(),
       ResultCache = Defaults.useResultCache();
  StaticAnalysisMode Mode = Defaults.staticAnalyze();
  unsigned Runs = Defaults.searchRuns(), Jobs = Defaults.searchJobs();
  R("static_checks", StaticChecks);
  R("static_analyze", Mode, StaticAnalysisModeNames);
  R("search_runs", Runs);
  R("search_jobs", Jobs);
  R("dedup", Dedup);
  R("snapshots", Snapshots);
  R("result_cache", ResultCache);
  if (!R.ok("request", Err))
    return false;

  // The same validation gate a local kcc runs: a remote peer cannot
  // smuggle in a configuration the Builder would reject.
  AnalysisRequest::Builder B;
  B.target(T).machine(M).staticChecks(StaticChecks).staticAnalyze(Mode);
  B.searchRuns(Runs).searchJobs(Jobs).dedup(Dedup).snapshots(Snapshots);
  AnalysisRequest::Builder::Result Built = B.resultCache(ResultCache).build();
  if (!Built.ok()) {
    Err = Built.Err.Message;
    return false;
  }
  Out = Built.Request;
  return true;
}

std::string cundef::serializeFindings(const std::vector<UbReport> &Reports) {
  return findingsJson(Reports).compact();
}

bool cundef::parseFindings(const JsonValue &V, std::vector<UbReport> &Out,
                           std::string &Err) {
  if (!V.isArray()) {
    Err = "findings must be an array";
    return false;
  }
  Out.assign(V.items().size(), UbReport());
  for (size_t I = 0; I < Out.size(); ++I) {
    const JsonValue &F = V.items()[I];
    if (!F.isObject()) {
      Err = "finding must be an object";
      return false;
    }
    if (!readFields(F, Out[I], "finding", Err))
      return false;
    Out[I].Domain = internDomain(F.getString("domain"));
  }
  return true;
}

std::string cundef::serializeOutcome(const DriverOutcome &O) {
  return outcomeJson(O).compact();
}

bool cundef::parseOutcome(const JsonValue &V, DriverOutcome &Out,
                          std::string &Err) {
  if (!V.isObject()) {
    Err = "outcome must be a JSON object";
    return false;
  }
  Out = DriverOutcome();
  if (!readFields(V, Out, "outcome", Err))
    return false;
  const JsonValue *F = V.get("static_ub");
  if (!F || !parseFindings(*F, Out.StaticUb, Err))
    return false;
  F = V.get("static_hints");
  if (!F || !parseFindings(*F, Out.StaticHints, Err))
    return false;
  F = V.get("dynamic_ub");
  if (!F || !parseFindings(*F, Out.DynamicUb, Err))
    return false;
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

std::string cundef::serializeStats(const SchedulerStats &Pool,
                                   const EngineMemoryStats &Memory,
                                   const TranslationCacheStats &Translation,
                                   const ResultCacheStats &ResultC) {
  return statsBody(Pool, Memory, Translation, ResultC).compact();
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
  Memory = EngineMemoryStats();
  Translation = TranslationCacheStats();
  ResultC = ResultCacheStats();
  return readFields(*P, Pool, "stats.pool", Err) &&
         readFields(*M, Memory, "stats.memory", Err) &&
         readFields(*T, Translation, "stats.translation", Err) &&
         readFields(*R, ResultC, "stats.result_cache", Err);
}

//===----------------------------------------------------------------------===//
// Whole frames
//===----------------------------------------------------------------------===//

std::string cundef::helloFrame(unsigned Workers) {
  JsonValue F = JsonValue::object();
  F.set("type", "hello").set("schema", ServeProtocolName).set("workers",
                                                               Workers);
  return F.compact();
}

std::string cundef::submitFrame(uint64_t Id, const std::string &Name,
                                const std::string &Source,
                                const AnalysisRequest &Req) {
  return frame("submit", Id)
      .set("name", Name)
      .set("source", Source)
      .set("request", requestJson(Req))
      .compact();
}

std::string cundef::statsFrame(uint64_t Id) {
  return frame("stats", Id).compact();
}

std::string cundef::errorFrame(uint64_t Id, const char *Code,
                               const std::string &Message) {
  return frame("error", Id).set("code", Code).set("message", Message).compact();
}

std::string cundef::ubFoundFrame(uint64_t Id,
                                 const std::vector<UbReport> &Reports) {
  return frame("ub_found", Id).set("findings", findingsJson(Reports)).compact();
}

std::string cundef::frontierTruncatedFrame(uint64_t Id,
                                           unsigned DroppedSubtrees) {
  return frame("frontier_truncated", Id)
      .set("dropped_subtrees", DroppedSubtrees)
      .compact();
}

std::string cundef::finishedFrame(uint64_t Id, const DriverOutcome &Outcome,
                                  double WallMicros) {
  return frame("finished", Id)
      .set("wall_micros", JsonValue(WallMicros, 3))
      .set("outcome", outcomeJson(Outcome))
      .compact();
}

std::string cundef::statsResultFrame(uint64_t Id, const SchedulerStats &Pool,
                                     const EngineMemoryStats &Memory,
                                     const TranslationCacheStats &Translation,
                                     const ResultCacheStats &ResultC) {
  return frame("stats_result", Id)
      .set("stats", statsBody(Pool, Memory, Translation, ResultC))
      .compact();
}
