//===- static/FlowChecker.cpp - Flow-sensitive static UB pass -------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "static/FlowChecker.h"

#include "static/Cfg.h"
#include "static/Dataflow.h"
#include "static/Domains.h"

#include <algorithm>
#include <memory>

using namespace cundef;

namespace {

/// The layer's working state: graph, context and one engine per domain.
/// Each thread keeps one and reuses its buffers across compiles, so a
/// compile allocates here only when a function outgrows what the thread
/// analyzed before.
struct FlowLayer {
  Cfg G;
  FlowContext FC;
  NullnessDomain Nullness{FC};
  InitDomain Init{FC};
  IntervalDomain Interval{FC};
  ForwardDataflow<NullnessDomain> NullnessFlow;
  ForwardDataflow<InitDomain> InitFlow;
  ForwardDataflow<IntervalDomain> IntervalFlow;
};

/// A compile with a function past this many blocks or cells drops the
/// thread's layer afterwards instead of keeping buffers sized for one
/// outlier.
constexpr size_t RetainedCells = size_t(1) << 16;

} // namespace

void FlowChecker::run() {
  thread_local std::unique_ptr<FlowLayer> Layer;
  if (!Layer)
    Layer = std::make_unique<FlowLayer>();
  FlowLayer &L = *Layer;
  bool Outlier = false;
  for (const FunctionDecl *F : Ctx.TU.Functions) {
    if (!F->Body || F->BuiltinId)
      continue;
    L.G.rebuild(F);
    L.FC.reset(Ctx, L.G);
    size_t Cells =
        L.G.size() * (L.FC.nullSlots() + L.FC.initSlots() + L.FC.itvSlots());
    Outlier |= std::max(L.G.size(), Cells) > RetainedCells;
    if (Cells > MaxFlowCells)
      continue; // past the implementation limit: no flow findings
    L.NullnessFlow.run(L.G, L.Nullness);
    if (L.FC.initSlots()) // init findings are reads of a tracked slot
      L.InitFlow.run(L.G, L.Init);
    L.IntervalFlow.run(L.G, L.Interval);
    L.FC.flush(Must, Hints);
  }
  if (Outlier)
    Layer.reset();
}
