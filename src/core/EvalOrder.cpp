//===- core/EvalOrder.cpp - Evaluation order policies ------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "core/EvalOrder.h"

#include <algorithm>

using namespace cundef;

OperandOrder OrderChooser::choose(unsigned N, bool Forced) {
  OperandOrder Perm(N);
  uint8_t *P = Perm.data();
  // Replayed decisions are consumed positionally, one per choice point
  // INCLUDING forced (arity-1) points, so that replay indices always
  // equal decision-trace indices: a search can turn any trace prefix
  // into a replay vector without re-aligning it.
  const bool Replaying = ReplayPos < Replay.size();
  uint8_t Decision = Replaying ? Replay[ReplayPos++] : 0;
  if (N <= 1) {
    Trace.emplace_back(0, 1);
    return Perm;
  }
  // Two alternatives per choice point (source order / reversed): enough
  // to flip the direction-dependent undefined behaviors while keeping
  // search linear in depth. A forced (order-free) list has one, but
  // still runs in the policy's order.
  const uint8_t Arity = Forced ? 1 : 2;
  if (Forced || !Replaying) {
    switch (Kind) {
    case EvalOrderKind::LeftToRight:
      Decision = 0;
      break;
    case EvalOrderKind::RightToLeft:
      Decision = 1;
      break;
    case EvalOrderKind::Random:
      // Like a real choice point, a forced one draws from the stream
      // only outside replay.
      if (Replaying) {
        Decision = 0;
        break;
      }
      // Fisher-Yates with the deterministic xorshift stream.
      for (unsigned I = N - 1; I > 0; --I)
        std::swap(P[I], P[nextRandom() % (I + 1)]);
      Trace.emplace_back(Forced || P[0] == 0 ? 0 : 1, Arity);
      return Perm;
    }
  }
  if (Decision)
    std::reverse(P, P + N);
  Trace.emplace_back(Forced ? 0 : Decision, Arity);
  return Perm;
}
