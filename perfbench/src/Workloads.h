//===- perfbench/src/Workloads.h - The four benchmark workloads -*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is one seeded input stream driven through one public entry
/// point: a warm AnalysisEngine (suite-sweep, deep-search), a kcc-serve
/// daemon over a Unix socket (serve-repeat), or cold kcc processes
/// (cli-cold). Each phase reports counter deltas and per-request samples;
/// main.cpp turns them into metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include <memory>

namespace perfbench {

struct RunOptions {
  std::string Kcc;     ///< the kcc binary (cli-cold and the cli probe)
  std::string WorkDir; ///< scratch files and sockets, inside the checkout
  bool Smoke = false;  ///< seconds-long self-test sizes
};

class Workload {
public:
  virtual ~Workload() = default;

  /// The analysis request every submission of this workload carries.
  virtual cundef::AnalysisRequest request() const = 0;
  /// Brings the system up from nothing to its first verdict, then tears
  /// it down; returns the seconds that took. Failures land in \p Check.
  virtual double setupOnce(unsigned Index, PhaseStats &Check) = 0;
  /// Starts the persistent system and warms it up (untimed).
  virtual bool start(std::string &Err) = 0;
  /// The timed phase: untraced, for \p Seconds.
  virtual PhaseStats runFor(double Seconds) = 0;
  /// The traced pass: a fixed number of requests from a stream of its
  /// own, so counts repeat exactly for one seed.
  virtual PhaseStats runTraced(Tracer &T) = 0;
  /// A small fixed sample of this workload's inputs for the layer probe.
  virtual std::vector<Program> probeSample() = 0;
  virtual void stop() = 0;

  /// Which system this workload drives.
  enum class System { Engine, Daemon, Cli };
  virtual System system() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Corpus &C, const RunOptions &O);

/// Cross-system probes for the traced run: each drives \p Inputs through
/// a system the workload itself does not use, so every per-layer metric
/// is measured on every workload.
PhaseStats serveProbe(const std::vector<Program> &Inputs,
                      const cundef::AnalysisRequest &Req, Tracer &T,
                      const RunOptions &O);
PhaseStats cliProbe(const std::vector<Program> &Inputs, Tracer &T,
                    const RunOptions &O);
PhaseStats engineProbe(const std::vector<Program> &Inputs,
                       const cundef::AnalysisRequest &Req, Tracer &T);

/// The in-process layer probe: every layer's public entry point, one
/// span each, over \p Inputs. Adds its metrics to \p M.
void layerProbe(const std::vector<Program> &Inputs,
                const cundef::AnalysisRequest &Req, Tracer &T,
                std::map<std::string, double> &M, PhaseStats &Check);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
