//===- static/Domains.h - Flow-sensitive abstract domains ------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three intraprocedural abstract domains the flow-sensitive static
/// layer runs over each function's CFG (static/Cfg.h, static/Dataflow.h):
///
///  * NullnessDomain — pointer locals as NonNull < Unknown / Null, with
///    MaybeNull on joins; catches definite null dereference (6), writes
///    through pointers to const-defined objects (49), and returned
///    addresses of locals (36).
///  * InitDomain — definite-initialization per scalar local and per
///    record member (Uninit / Init / MaybeInit); catches reads of
///    indeterminate values (19) and uninitialized pointer use (30).
///  * IntervalDomain — constant intervals [lo, hi] over integer locals;
///    catches reachable division/modulo by zero (1/2), oversized and
///    negative shifts (4/32), shifts of negative values (5), constant
///    out-of-bounds indexing (13 at pointer formation, 29 at one-past
///    dereference — matching the machine's code assignment), and
///    signed overflow on constant paths (3).
///
/// Soundness discipline shared by all three: any variable whose address
/// is taken (or whose array decays to a pointer value) is never tracked
/// — its abstract value is permanently top — so aliased mutation can
/// never make a *must* claim wrong. Must-findings are therefore true on
/// every execution reaching the program point; may-findings are triage
/// hints and never part of the verdict.
///
/// States are dense: each domain's state is a fixed-width array with
/// one cell per tracked slot (FlowContext), so copying a state is a
/// memcpy and a join is a pointwise loop.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_STATIC_DOMAINS_H
#define CUNDEF_STATIC_DOMAINS_H

#include "ast/Ast.h"
#include "ub/Report.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace cundef {

class Cfg;

/// A constant interval [Lo, Hi]. In a dense interval state the cell
/// top() (any Lo > Hi) stands for "no bound known"; a stored interval
/// always has Lo <= Hi.
struct Interval {
  int64_t Lo = 0;
  int64_t Hi = 0;

  static constexpr Interval top() { return {1, 0}; }
  bool isTop() const { return Lo > Hi; }
  bool singleton() const { return Lo == Hi; }
  bool contains(int64_t V) const { return Lo <= V && V <= Hi; }
  bool operator==(const Interval &O) const { return Lo == O.Lo && Hi == O.Hi; }
};

/// Where one local variable lives in each domain's dense state, fixed
/// once per function; a slot of -1 means the domain does not track the
/// variable.
struct VarSlots {
  int32_t Null = -1;       ///< nullness slot (pointer locals)
  int32_t Itv = -1;        ///< interval slot (integer locals)
  int32_t Init = -1;       ///< first init slot
  uint32_t InitCount = 0;  ///< init slots: 1, or one per record field
  bool InitPerField = false;
  Interval Range;          ///< the interval slot's type range
};

/// Per-function context the domains share. reset() walks the function's
/// CFG once: it collects the address-taken locals (never tracked) and
/// gives every tracked local its dense slots. The context also memoizes
/// integer constant expressions and collects the findings (armed only
/// while a domain reports, so fixpoint sweeps stay silent). One context
/// serves many functions, reusing its buffers.
class FlowContext {
public:
  /// Prepares the context for the function of \p G in \p Unit, dropping
  /// the previous function's slots, constants and findings.
  void reset(AstContext &Unit, const Cfg &G);

  const TypeContext &types() const { return Ctx->Types; }
  const StringInterner &interner() const { return Ctx->Interner; }

  /// The slots of \p V; all -1 unless \p V is a local of this function
  /// that some domain tracks.
  const VarSlots &slots(const VarDecl *V) const {
    if (!V)
      return NoSlots;
    size_t K = V->DeclId - MinDeclId;
    return K < Slots.size() ? Slots[K] : NoSlots;
  }
  unsigned nullSlots() const { return NumNull; }
  unsigned initSlots() const { return NumInit; }
  unsigned itvSlots() const { return NumItv; }

  /// constEvalInt(E) for an expression of this function; the setup walk
  /// folds each operator once.
  std::optional<int64_t> constInt(const Expr *E);
  /// The interval type range of an integer type (nullopt when it does
  /// not fit int64_t), memoized for the last type asked.
  std::optional<Interval> typeRange(const Type *Ty);

  /// Arms / disarms finding collection.
  void setReporting(bool On) { Reporting = On; }
  bool reporting() const { return Reporting; }

  /// Records a definite (every-path) finding. Demoted to a hint while
  /// inside a conditionally evaluated subexpression (see pushCond).
  void must(UbKind Kind, SourceLoc Loc, const char *Domain);
  /// Records a some-path triage hint.
  void may(UbKind Kind, SourceLoc Loc, const char *Domain);

  /// Brackets walking a subexpression that may not execute (`&&`/`||`
  /// right operands and `?:` arms in *value* position — branch-position
  /// conditions are CFG-decomposed and never need this). While the
  /// depth is nonzero, must() downgrades to may().
  void pushCond(bool On = true) { CondDepth += On; }
  void popCond(bool On = true) { CondDepth -= On; }

  /// Reports this function's findings into \p Must and \p Hints, each
  /// sorted by (line, col, code) and deduplicated by (code, loc).
  void flush(UbSink &Must, UbSink &Hints);

private:
  friend class SetupWalk;
  /// A collected finding; UbReports are built once, in flush().
  struct Finding {
    SourceLoc Loc;
    const char *Domain;
    UbKind Kind;
    FindingVerdict Verdict;
  };

  void emit(UbKind Kind, SourceLoc Loc, const char *Domain,
            FindingVerdict Verdict);
  void assignSlots(const VarDecl *V, VarSlots &S);
  static const VarSlots NoSlots;
  AstContext *Ctx = nullptr;
  const FunctionDecl *Fn = nullptr;
  uint32_t MinDeclId = 0;
  std::vector<VarSlots> Slots; ///< indexed by DeclId - MinDeclId
  unsigned NumNull = 0, NumInit = 0, NumItv = 0;
  std::vector<const VarDecl *> Locals;  ///< setup walk: seen locals
  std::vector<const VarDecl *> Escaped; ///< setup walk: address taken
  std::vector<uint8_t> SlotState;
  /// Folded operators of the function, sorted by node address.
  std::vector<std::pair<const Expr *, int64_t>> Consts;

  const Type *RangeTy = nullptr;
  std::optional<Interval> RangeOfTy;

  bool Reporting = false;
  unsigned CondDepth = 0;
  std::vector<Finding> Findings;
};

//===----------------------------------------------------------------------===//
// Nullness
//===----------------------------------------------------------------------===//

/// Abstract pointer value. Kind forms a diamond with MaybeNull on top
/// over Null and { NonNull, Unknown } below, where Unknown absorbs
/// NonNull on joins. Local / ConstTarget are
/// must-properties of the pointed-to object (AND-ed on joins), only
/// meaningful when the pointer is provably non-null.
struct PtrVal {
  enum K : uint8_t { Unknown, Null, NonNull, MaybeNull };
  K Kind = Unknown;
  bool Local = false;       ///< points into the current frame
  bool ConstTarget = false; ///< points to an object defined const

  bool operator==(const PtrVal &O) const {
    return Kind == O.Kind && Local == O.Local && ConstTarget == O.ConstTarget;
  }
};

/// What the domains share: the Dataflow.h interface's types and its
/// defaults for a domain with nothing to refine on an edge and no
/// widening. A state is an array of width() cells, one per slot of the
/// domain (FlowContext::slots).
template <typename CellT> class FlowDomain {
public:
  using Cell = CellT;
  using State = Cell *;

  explicit FlowDomain(FlowContext &FC) : FC(FC) {}

  bool transferCond(const Expr *, bool, State) { return true; }
  bool transferSwitchEdge(const Expr *, const CaseStmt *, State) {
    return true;
  }
  void setWidening(bool) {} // finite height
  void setReporting(bool On) { FC.setReporting(On); }

protected:
  FlowContext &FC;
};

/// An unset cell is PtrVal{}: Unknown.
class NullnessDomain : public FlowDomain<PtrVal> {
public:
  using FlowDomain::FlowDomain;

  size_t width() const { return FC.nullSlots(); }
  void boundary(State St);
  bool join(State Into, const Cell *In);
  void transferStmt(const Stmt *S, State St);
  void transferCondEval(const Expr *Cond, State St) { walk(Cond, St); }
  bool transferCond(const Expr *Cond, bool Taken, State St);

private:
  int32_t slot(const VarDecl *V) const { return FC.slots(V).Null; }
  bool isConstNull(const Expr *E);
  PtrVal evalPtr(const Expr *E, State St);
  void walk(const Expr *E, State St) { (void)evalPtr(E, St); }
  void checkDeref(const Expr *PtrOperand, State St, bool IsWrite);
  void storeTo(const Expr *Lhs, State St);
  bool refine(int32_t Slot, bool ToNonNull, State St);
};

//===----------------------------------------------------------------------===//
// Initialization
//===----------------------------------------------------------------------===//

/// One cell per scalar or array local, one per field of a record local;
/// an unset cell (0) is Init.
class InitDomain : public FlowDomain<uint8_t> {
public:
  using FlowDomain::FlowDomain;

  size_t width() const { return FC.initSlots(); }
  void boundary(State St);
  bool join(State Into, const Cell *In);
  void transferStmt(const Stmt *S, State St);
  void transferCondEval(const Expr *Cond, State St) { walk(Cond, St); }

private:
  void setAll(const VarDecl *V, Cell Value, State St);
  void walk(const Expr *E, State St);
  void storeTo(const Expr *Lhs, bool Compound, State St);
  void checkRead(int32_t Slot, bool IsPointer, SourceLoc Loc, State St);
};

//===----------------------------------------------------------------------===//
// Constant intervals
//===----------------------------------------------------------------------===//

/// An unset cell is Interval::top().
class IntervalDomain : public FlowDomain<Interval> {
public:
  using FlowDomain::FlowDomain;

  size_t width() const { return FC.itvSlots(); }
  void boundary(State St);
  bool join(State Into, const Cell *In);
  void transferStmt(const Stmt *S, State St);
  void transferCondEval(const Expr *Cond, State St) { eval(Cond, St); }
  bool transferCond(const Expr *Cond, bool Taken, State St);
  bool transferSwitchEdge(const Expr *Cond, const CaseStmt *Case, State St);
  void setWidening(bool On) { Widening = On; }

private:
  std::optional<Interval> eval(const Expr *E, State St);
  std::optional<Interval> evalBinary(BinaryOp Op,
                                     const std::optional<Interval> &L,
                                     const std::optional<Interval> &R,
                                     const Type *Ty, SourceLoc Loc,
                                     bool DivisorIsConst);
  std::optional<Interval> applyIncDec(const VarSlots &V, bool IsInc,
                                      bool IsPre, const Type *Ty,
                                      SourceLoc Loc, State St);
  void checkIndex(const IndexExpr *IX, State St);
  void storeTo(const Expr *Lhs, const AssignExpr *A, State St);

  bool Widening = false;
};

} // namespace cundef

#endif // CUNDEF_STATIC_DOMAINS_H
