//===- core/EvalOrder.h - Evaluation order policies -------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation order of most C operands is unspecified, and whether a
/// program is undefined can depend on the order chosen (paper section
/// 2.5.2: CompCert divides by zero where GCC does not). The machine
/// asks an OrderChooser for a permutation at every operand-scheduling
/// point. Policies: source order, reverse, or seeded random. For
/// search, a replay vector pins each choice and a trace records the
/// arity of every choice point so a driver can enumerate alternatives
/// (core/Search.h).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_EVALORDER_H
#define CUNDEF_CORE_EVALORDER_H

#include "support/InlineBuffer.h"
#include "support/Strings.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cundef {

enum class EvalOrderKind : uint8_t {
  LeftToRight,
  RightToLeft,
  Random,
};

inline constexpr EnumName<EvalOrderKind> EvalOrderNames[] = {
    {EvalOrderKind::LeftToRight, "ltr"}, {EvalOrderKind::RightToLeft, "rtl"},
    {EvalOrderKind::Random, "random"}};

/// One operand list's evaluation order: a permutation of [0, N). Lists
/// of up to 7 operands (nearly all of them; most have two) are stored
/// inline, so choosing an order allocates nothing; a longer argument
/// list spills to one heap block. Indices are bytes, so a list has at
/// most MaxOperands operands: the machine rejects a longer one before
/// it asks for an order (Machine::scheduleOperands).
class OperandOrder : public InlineBuffer<uint8_t, 7> {
public:
  static constexpr unsigned MaxOperands = 255;

  OperandOrder() = default;
  /// The identity order of \p N operands.
  explicit OperandOrder(unsigned N) : InlineBuffer(N) {
    assert(N <= MaxOperands && "operand indices are bytes");
    for (unsigned I = 0; I < N; ++I)
      data()[I] = static_cast<uint8_t>(I);
  }
};

/// Decides operand evaluation orders. Deterministic given (policy,
/// seed, replay vector), which makes search reproducible.
class OrderChooser {
public:
  OrderChooser(EvalOrderKind Kind, uint32_t Seed)
      : Kind(Kind), Rng(Seed ? Seed : 1) {}

  /// Chooses an order for \p N operands. Each call appends one entry to
  /// the decision trace. Replayed decisions (0 = source order,
  /// 1 = reversed) take precedence over the policy. A \p Forced list
  /// (Expr::OrderFree) follows the policy and is traced with arity 1.
  OperandOrder choose(unsigned N, bool Forced = false);

  /// Pins the first decisions to \p Decisions.
  void setReplay(std::vector<uint8_t> Decisions) {
    Replay = std::move(Decisions);
    ReplayPos = 0;
  }

  /// Fork-resume: installs \p Decisions as the replay vector on a
  /// chooser copied from a mid-run snapshot. The trace already holds
  /// the decisions made so far, so consumption continues at the current
  /// depth instead of restarting from zero — position i of the replay
  /// keeps corresponding to choice point i, exactly as in a
  /// from-scratch replay of the same vector.
  void resumeReplay(std::vector<uint8_t> Decisions) {
    Replay = std::move(Decisions);
    ReplayPos = std::min(Trace.size(), Replay.size());
  }

  /// (decision, arity) per choice point, in order.
  const std::vector<std::pair<uint8_t, uint8_t>> &trace() const {
    return Trace;
  }

  /// Current state of the Random policy's xorshift stream. The search
  /// mixes it into configuration fingerprints: under --order=random the
  /// chooser's stream is part of "everything that influences future
  /// behavior", so two states are only duplicates when their streams
  /// agree too. (LeftToRight/RightToLeft never advance it.)
  uint32_t rngState() const { return Rng; }

private:
  uint32_t nextRandom() {
    // xorshift32: small, deterministic, good enough for shuffles.
    Rng ^= Rng << 13;
    Rng ^= Rng >> 17;
    Rng ^= Rng << 5;
    return Rng;
  }

  EvalOrderKind Kind;
  uint32_t Rng;
  std::vector<uint8_t> Replay;
  size_t ReplayPos = 0;
  std::vector<std::pair<uint8_t, uint8_t>> Trace;
};

} // namespace cundef

#endif // CUNDEF_CORE_EVALORDER_H
