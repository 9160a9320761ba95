//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --kcc PATH --desktop-dir DIR --work-dir DIR [--smoke]
//
// Workloads: suite-sweep, deep-search, serve-repeat, cli-cold
// (Workloads.cpp says what each one drives and why). With --trace 0 the
// run measures the end-to-end metrics untraced; with --trace 1 it runs
// half the time untraced, then a fixed-size traced pass and the layer
// probe, and reports the per-layer metrics. Every verdict is checked
// against a hand-written oracle. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the line
// before it records the run context (nproc, build type, compiler, seed)
// and which per-layer counts must repeat exactly for one seed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sys/stat.h>

using namespace cundef;
using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
  /// Counts that must repeat exactly between runs of one seed.
  bool Exact;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s", false},
    {"throughput_pps", "programs/s", false},
    {"latency_p50_ms", "ms", false},
    {"latency_p90_ms", "ms", false},
    {"memory_mb", "MiB", false},
};

const MetricDef PerLayer[] = {
    {"text.preprocess_self_us", "us", false},
    {"text.tokens_per_program", "count", true},
    {"text.tokens_per_s", "tokens/s", false},
    {"parse.self_us", "us", false},
    {"parse.tokens_per_s", "tokens/s", false},
    {"sema.self_us", "us", false},
    {"ub.syntactic_self_us", "us", false},
    {"static.flow_self_us", "us", false},
    {"static.must_findings", "count", true},
    {"static.may_hints", "count", true},
    {"frontend.compile_us_p50", "us", false},
    {"frontend.share", "ratio", false},
    {"core.machine_steps_per_s", "steps/s", false},
    {"core.machine_steps_per_s_permissive", "steps/s", false},
    {"core.steps_per_program", "count", true},
    {"core.choice_points_per_program", "count", true},
    {"core.fingerprint_ns_per_choice", "ns", false},
    {"core.snapshot_capture_ns", "ns", false},
    {"core.search_us_per_run", "us", false},
    {"core.runs_executed", "count", false},
    {"core.runs_committed", "count", true},
    {"core.speculative_waste", "ratio", false},
    {"core.dedup_hits", "count", true},
    {"core.steals", "count", false},
    {"core.snapshot_hit_ratio", "ratio", false},
    {"core.snapshot_evictions", "count", false},
    {"core.snapshot_slot_steals", "count", false},
    {"core.commit_lag_peak", "count", false},
    {"core.peak_frontier", "count", false},
    {"driver.job_wall_us_p50", "us", false},
    {"driver.frontend_us_p50", "us", false},
    {"driver.search_us_p50", "us", false},
    {"driver.unattributed_us_p50", "us", false},
    {"driver.translation_cache_hit_ratio", "ratio", false},
    {"driver.result_cache_hit_ratio", "ratio", false},
    {"driver.result_cache_joins", "count", false},
    {"driver.retained_programs_peak", "count", false},
    {"driver.retained_programs_after_drain", "count", false},
    {"driver.graveyard_artifacts_peak", "count", false},
    {"driver.graveyard_artifacts_after_drain", "count", false},
    {"driver.pending_snapshots_peak", "count", false},
    {"driver.pending_snapshots_after_drain", "count", false},
    {"serve.request_encode_us", "us", false},
    {"serve.outcome_decode_us", "us", false},
    {"serve.outcome_frame_bytes", "B", false},
    {"serve.round_trip_overhead_us_p50", "us", false},
    {"serve.hit_latency_p50_ms", "ms", false},
    {"serve.hit_latency_p90_ms", "ms", false},
    {"serve.rejected", "count", false},
    {"serve.idle_reclaims", "count", false},
    {"tools.process_wall_ms_p50", "ms", false},
    {"tools.in_process_wall_ms_p50", "ms", false},
    {"tools.startup_overhead_ms_p50", "ms", false},
    {"tools.json_bytes_per_program", "B", false},
    {"analysis.kcc_us_per_program", "us", false},
    {"analysis.memgrind_us_per_program", "us", false},
    {"analysis.ptrcheck_us_per_program", "us", false},
    {"analysis.valueanalysis_us_per_program", "us", false},
    {"trace.throughput_pps_untraced", "programs/s", false},
    {"trace.throughput_pps_traced", "programs/s", false},
    {"trace.overhead", "ratio", false},
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string DesktopDir;
  RunOptions Run;
};

bool parseArgs(int argc, char **argv, Options &O) {
  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    if (Arg == "--smoke") {
      O.Run.Smoke = true;
      continue;
    }
    if (I + 1 >= argc)
      return false;
    const char *V = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload")
      O.Workload = V;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(V, &End, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::strtod(V, &End);
    else if (Arg == "--trace")
      O.Trace = std::strtoul(V, &End, 10) != 0;
    else if (Arg == "--kcc")
      O.Run.Kcc = V;
    else if (Arg == "--desktop-dir")
      O.DesktopDir = V;
    else if (Arg == "--work-dir")
      O.Run.WorkDir = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return !O.Workload.empty() && O.Seconds > 0 && !O.Run.Kcc.empty() &&
         !O.DesktopDir.empty() && !O.Run.WorkDir.empty();
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / V.size();
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

double throughput(const PhaseStats &S) {
  return ratio(static_cast<double>(S.Samples.size()), S.WallUs / 1e6);
}

/// Latencies of requests that did real work (not served by the result
/// cache), in ms. An input analyzed several times in a run (cli-cold
/// cycles its files) counts once, at its median, so the percentiles
/// rank inputs rather than one-off scheduling stalls.
std::vector<double> workLatenciesMs(const PhaseStats &S) {
  std::vector<double> V;
  std::map<size_t, std::vector<double>> PerInput;
  for (const Sample &Smp : S.Samples) {
    if (Smp.ResultHit)
      continue;
    if (Smp.Input)
      PerInput[Smp.Input].push_back(Smp.LatencyUs / 1000.0);
    else
      V.push_back(Smp.LatencyUs / 1000.0);
  }
  for (auto &[Input, Lat] : PerInput)
    V.push_back(median(std::move(Lat)));
  return V;
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

void driverMetrics(const PhaseStats &X, const PhaseStats &Mem,
                   std::map<std::string, double> &M) {
  std::vector<double> Wall, Fe, Se, Rest;
  for (const Sample &S : X.Samples) {
    if (S.ResultHit)
      continue;
    Wall.push_back(S.JobWallUs);
    Fe.push_back(S.FrontendUs);
    Se.push_back(S.SearchUs);
    Rest.push_back(S.JobWallUs - S.FrontendUs - S.SearchUs);
  }
  M["driver.job_wall_us_p50"] = median(Wall);
  M["driver.frontend_us_p50"] = median(Fe);
  M["driver.search_us_p50"] = median(Se);
  M["driver.unattributed_us_p50"] = median(Rest);
  M["driver.translation_cache_hit_ratio"] =
      ratio(X.Trans.Hits + X.Trans.InflightJoins, X.Trans.Lookups);
  M["driver.result_cache_hit_ratio"] =
      ratio(X.Results.Hits + X.Results.InflightJoins, X.Results.Lookups);
  M["driver.result_cache_joins"] = X.Results.InflightJoins;
  M["driver.retained_programs_peak"] = Mem.MemPeak.RetainedPrograms;
  M["driver.retained_programs_after_drain"] =
      Mem.MemAfterDrain.RetainedPrograms;
  M["driver.graveyard_artifacts_peak"] = Mem.MemPeak.GraveyardArtifacts;
  M["driver.graveyard_artifacts_after_drain"] =
      Mem.MemAfterDrain.GraveyardArtifacts;
  M["driver.pending_snapshots_peak"] = Mem.MemPeak.PendingSnapshots;
  M["driver.pending_snapshots_after_drain"] =
      Mem.MemAfterDrain.PendingSnapshots;

  const SchedulerStats &P = X.Pool;
  M["core.runs_executed"] = P.RunsExecuted;
  M["core.runs_committed"] = P.RunsCommitted;
  M["core.speculative_waste"] =
      ratio(static_cast<double>(P.RunsExecuted) - P.RunsCommitted,
            P.RunsCommitted);
  M["core.dedup_hits"] = P.DedupHits;
  M["core.steals"] = P.Steals;
  M["core.snapshot_hit_ratio"] = ratio(P.SnapshotHits, P.SnapshotTakes);
  M["core.snapshot_evictions"] = P.SnapshotEvictions;
  M["core.snapshot_slot_steals"] = P.SnapshotSlotSteals;
  M["core.commit_lag_peak"] = P.CommitLagPeak;
  M["core.peak_frontier"] = P.PeakFrontier;
}

void serveMetrics(const PhaseStats &Codec, const PhaseStats &Wire,
                  std::map<std::string, double> &M) {
  std::vector<double> Enc, Dec, Bytes, Overhead, Hits;
  for (const Sample &S : Codec.Samples) {
    Enc.push_back(S.EncodeUs);
    Dec.push_back(S.DecodeUs);
    Bytes.push_back(static_cast<double>(S.FrameBytes));
  }
  for (const Sample &S : Wire.Samples) {
    Overhead.push_back(S.LatencyUs - S.JobWallUs);
    if (S.ResultHit)
      Hits.push_back(S.LatencyUs / 1000.0);
  }
  M["serve.request_encode_us"] = mean(Enc);
  M["serve.outcome_decode_us"] = mean(Dec);
  M["serve.outcome_frame_bytes"] = mean(Bytes);
  M["serve.round_trip_overhead_us_p50"] = median(Overhead);
  M["serve.hit_latency_p50_ms"] = percentile(Hits, 0.5);
  M["serve.hit_latency_p90_ms"] = percentile(Hits, 0.9);
  M["serve.rejected"] = Wire.Rejected;
  M["serve.idle_reclaims"] = Wire.IdleReclaims;
}

void toolsMetrics(const PhaseStats &Cli, std::map<std::string, double> &M) {
  std::vector<double> Proc, InProc, Startup, Bytes;
  for (const Sample &S : Cli.Samples) {
    Proc.push_back(S.LatencyUs / 1000.0);
    InProc.push_back(S.InProcessUs / 1000.0);
    Startup.push_back((S.LatencyUs - S.InProcessUs) / 1000.0);
    Bytes.push_back(S.JsonBytes);
  }
  M["tools.process_wall_ms_p50"] = median(Proc);
  M["tools.in_process_wall_ms_p50"] = median(InProc);
  M["tools.startup_overhead_ms_p50"] = median(Startup);
  M["tools.json_bytes_per_program"] = mean(Bytes);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  if (!parseArgs(argc, argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --kcc PATH --desktop-dir DIR --work-dir DIR "
                 "[--smoke]\n");
    return 2;
  }
  ::mkdir(O.Run.WorkDir.c_str(), 0755);
  Corpus C(O.Seed, O.DesktopDir);
  std::string Err;
  if (!C.load(Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 1;
  }
  std::unique_ptr<Workload> W = makeWorkload(O.Workload, C, O.Run);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  PhaseStats Check; // set-up, probe and oracle failures outside phases
  std::map<std::string, double> M;
  PhaseStats Main;
  size_t Spans = 0;
  if (!O.Trace) {
    std::vector<double> Setups;
    for (unsigned I = 0; I < (O.Run.Smoke ? 3u : 31u); ++I)
      Setups.push_back(W->setupOnce(I, Check));
    if (!W->start(Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      W->stop();
      return 1;
    }
    Main = W->runFor(O.Seconds);
    W->stop();
    const std::vector<double> Lat = workLatenciesMs(Main);
    M["setup_s"] = median(Setups);
    M["throughput_pps"] = throughput(Main);
    M["latency_p50_ms"] = percentile(Lat, 0.5);
    M["latency_p90_ms"] = percentile(Lat, 0.9);
    M["memory_mb"] = Main.MemoryMb;
    if (Lat.size() < 100 && !O.Run.Smoke)
      std::fprintf(stderr, "perfbench: only %zu latency samples (<100)\n",
                   Lat.size());
  } else {
    if (!W->start(Err)) {
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
      W->stop();
      return 1;
    }
    PhaseStats Untraced = W->runFor(O.Seconds / 2);
    Tracer T;
    Main = W->runTraced(T);
    std::vector<Program> Probe = W->probeSample();
    layerProbe(Probe, W->request(), T, M, Check);

    const Workload::System Sys = W->system();
    PhaseStats Wire = Sys == Workload::System::Daemon
                          ? Main
                          : serveProbe(Probe, W->request(), T, O.Run);
    PhaseStats Cli = Sys == Workload::System::Cli ? Main
                                                  : cliProbe(Probe, T, O.Run);
    PhaseStats Mem = Sys == Workload::System::Cli
                         ? engineProbe(Probe, W->request(), T)
                         : Main;
    W->stop();
    driverMetrics(Main, Mem, M);
    serveMetrics(Sys == Workload::System::Cli ? Wire : Main, Wire, M);
    toolsMetrics(Cli, M);
    const double Up = throughput(Untraced), Tp = throughput(Main);
    M["trace.throughput_pps_untraced"] = Up;
    M["trace.throughput_pps_traced"] = Tp;
    M["trace.overhead"] = ratio(Up, Tp) - 1.0;
    Check.merge(Untraced);
    if (Sys != Workload::System::Daemon)
      Check.merge(Wire);
    if (Sys != Workload::System::Cli)
      Check.merge(Cli);
    else
      Check.merge(Mem);
    Spans = T.size();
    const std::string TracePath =
        O.Run.WorkDir + "/trace-" + O.Workload + ".json";
    if (!T.write(TracePath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", TracePath.c_str());
  }
  Check.merge(Main);

  // The run context, then the result object as the last line.
  std::string Ctx = "{\"context\": {\"workload\": " + quote(O.Workload) +
                    ", \"seed\": " + std::to_string(O.Seed) +
                    ", \"seconds\": " + fmt(O.Seconds) +
                    ", \"trace\": " + (O.Trace ? "1" : "0") +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + quote(PERFBENCH_COMPILER) +
                    ", \"requests\": " + std::to_string(Main.Samples.size()) +
                    ", \"error_rate\": " +
                    fmt(ratio(Check.Failed, Check.Attempted)) +
                    ", \"error_base\": " + std::to_string(Check.Attempted);
  if (O.Trace)
    Ctx += ", \"spans\": " + std::to_string(Spans);
  Ctx += ", \"exact\": [";
  bool First = true;
  for (const MetricDef &D : PerLayer)
    if (D.Exact) {
      Ctx += (First ? "" : ", ") + quote(D.Name);
      First = false;
    }
  Ctx += "], \"failures\": [";
  for (size_t I = 0; I < Check.Failures.size(); ++I)
    Ctx += (I ? ", " : "") + quote(Check.Failures[I]);
  Ctx += "]}}";
  std::printf("%s\n", Ctx.c_str());

  std::string Out = "{\"correct\": ";
  Out += Check.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " +
         std::to_string(std::max<uint64_t>(1, Check.Attempted));
  Out += ", \"failed\": " + std::to_string(Check.Failed);
  Out += ", \"metrics\": {";
  auto Emit = [&](const MetricDef *Begin, const MetricDef *End) {
    for (const MetricDef *D = Begin; D != End; ++D)
      Out += (D == Begin ? "" : ", ") + quote(D->Name) + ": {\"value\": " +
             fmt(M[D->Name]) + ", \"unit\": " + quote(D->Unit) + "}";
  };
  if (O.Trace)
    Emit(std::begin(PerLayer), std::end(PerLayer));
  else
    Emit(std::begin(EndToEnd), std::end(EndToEnd));
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
