//===- core/RuleSet.h - Rules with precedence -------------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's *inclusion/exclusion* specification style (section
/// 4.5.1): instead of guarding one positive rule with accumulating side
/// conditions, write the plain positive rule first and add negative
/// refinement rules after it; "later rules must be applied before
/// earlier rules". A RuleChain holds rules in registration order and
/// applies them newest-first, which realizes exactly that precedence.
///
/// The machine applies chains for dereference and division when
/// MachineOptions::Style is PrecedenceChain; one pair, built once per
/// process, serves every machine. The ablation bench verifies the three
/// styles give identical verdicts.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_RULESET_H
#define CUNDEF_CORE_RULESET_H

#include "core/Value.h"

#include <functional>
#include <string>
#include <vector>

namespace cundef {

class Machine;

/// Everything a rule may look at and produce. Operands are filled by
/// the caller (e.g. the pointer value for a dereference; dividend and
/// divisor for a division).
struct RuleContext {
  const Expr *Node = nullptr;
  SourceLoc Loc;
  Value Operand0;
  Value Operand1;
  /// Set by the applied rule.
  Value Result;
  bool ProducedResult = false;
};

/// One named rule: returns true when it matched (whether it produced a
/// result or reported undefinedness).
struct Rule {
  std::string Name;
  std::function<bool(Machine &, RuleContext &)> Body;
};

/// An ordered rule collection applied newest-first.
class RuleChain {
public:
  void add(std::string Name, std::function<bool(Machine &, RuleContext &)> Body) {
    Rules.push_back({std::move(Name), std::move(Body)});
  }

  /// Tries rules from the most recently added to the first; returns the
  /// name of the rule that matched, or null when none did.
  const char *apply(Machine &M, RuleContext &Ctx) const;

  size_t size() const { return Rules.size(); }
  std::vector<std::string> names() const;

private:
  std::vector<Rule> Rules;
};

} // namespace cundef

#endif // CUNDEF_CORE_RULESET_H
