//===- core/Machine.h - The executable C semantics --------------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small-step abstract machine: the paper's K semantics of C
/// rendered as a step function over the configuration. Two modes:
///
///  * strict (kcc): every rule carries its undefinedness side
///    conditions; the machine stops (gets stuck) and reports when a
///    program leaves the defined fragment. This is the paper's
///    semantics-based undefinedness checker.
///  * permissive: the rules compute what LP64 hardware would, using
///    each object's concrete address; undefined programs keep running
///    (or fault). Baseline analyzers attach monitors to this mode.
///
/// The technique toggles in MachineOptions exist so the ablation
/// benches can switch off each paper mechanism (sections 4.1-4.3)
/// independently and measure what stops being caught.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_CORE_MACHINE_H
#define CUNDEF_CORE_MACHINE_H

#include "core/Configuration.h"
#include "core/EvalOrder.h"
#include "core/Monitor.h"
#include "core/RuleSet.h"
#include "support/Hash.h"
#include "support/Strings.h"
#include "ub/Report.h"

#include <functional>
#include <memory>

namespace cundef {

/// Which of the paper's specification styles implements the checks for
/// division and dereference (section 4.5; ablation bench).
enum class RuleStyle : uint8_t {
  SideConditions,  ///< guards inside the positive rules (section 4.1)
  PrecedenceChain, ///< inclusion/exclusion negative rules (section 4.5.1)
  Declarative,     ///< monitors observing events (section 4.5.2)
};

inline constexpr EnumName<RuleStyle> RuleStyleNames[] = {
    {RuleStyle::SideConditions, "cond"}, {RuleStyle::PrecedenceChain, "chain"},
    {RuleStyle::Declarative, "decl"}};

struct MachineOptions {
  bool Strict = true;
  /// Section 4.2.1: track locsWrittenTo for unsequenced side effects.
  bool TrackSequencing = true;
  /// Section 4.2.2: track notWritable for const-correctness.
  bool TrackConst = true;
  /// Section 4.3.1: pointers are symbolic; cross-object relational
  /// comparison and subtraction are undefined. Off = concrete addresses.
  bool SymbolicPointers = true;
  /// Section 4.3.2: pointers in memory are subObject fragments. Off =
  /// raw address bytes.
  bool PointerBytes = true;
  /// Section 4.3.3: uninitialized bytes are unknown(N). Off = 0xCD.
  bool UnknownBytes = true;
  /// C11 6.5p7 effective-type (strict aliasing) checking.
  bool CheckEffectiveTypes = true;
  bool StopAtFirstUb = true;
  uint64_t StepLimit = 5'000'000;
  EvalOrderKind Order = EvalOrderKind::LeftToRight;
  uint32_t Seed = 1;
  unsigned MaxCallDepth = 200;
  RuleStyle Style = RuleStyle::SideConditions;
};

/// Stable WordHasher digest over every field of \p M. Two MachineOptions
/// with equal fingerprints drive byte-identical machines over the same
/// AST, so the digest is a content address for the semantics half of a
/// search configuration (the engine's result cache in driver/Engine.cpp and
/// the cross-program snapshot-sharing key both build on it). Every
/// field participates — adding a MachineOptions member without hashing
/// it here would silently alias distinct configurations.
inline uint64_t machineOptionsFingerprint(const MachineOptions &M) {
  WordHasher H;
  H.u8(M.Strict);
  H.u8(M.TrackSequencing);
  H.u8(M.TrackConst);
  H.u8(M.SymbolicPointers);
  H.u8(M.PointerBytes);
  H.u8(M.UnknownBytes);
  H.u8(M.CheckEffectiveTypes);
  H.u8(M.StopAtFirstUb);
  H.u64(M.StepLimit);
  H.u8(static_cast<uint8_t>(M.Order));
  H.u32(M.Seed);
  H.u32(M.MaxCallDepth);
  H.u8(static_cast<uint8_t>(M.Style));
  return H.digest();
}

/// A resumable point-in-time copy of a machine's run state: the
/// configuration (cheap to copy — the mem cell is copy-on-write) plus
/// the chooser's decision trace and RNG stream. Captured at flippable
/// choice points by the evaluation-order search so children fork
/// mid-run instead of replaying the whole prefix from main()
/// (core/Search.h). Pending captures live in the scheduling layer's LRU
/// SnapshotCache (core/Scheduler.h): a capture the cache evicted simply
/// means that child replays — forking is never load-bearing.
/// Everything that determines future behavior lives in these two
/// members; rule chains are shared and monitors stateless (snapshots
/// are not taken under the stateful Declarative style).
struct MachineSnapshot {
  Configuration Conf;
  OrderChooser Chooser;
};

class Machine {
public:
  Machine(const AstContext &Ctx, MachineOptions Opts, UbSink &Sink);

  /// Fork construction: resumes \p Snap with \p Decisions as the replay
  /// vector (consumed from the snapshot's current depth onward). The
  /// resulting run is step-for-step identical to a fresh machine
  /// replaying \p Decisions from main() — same decision trace, same
  /// fingerprint stream, same verdict — it just skips re-executing the
  /// shared prefix. Start it with resume(), not run().
  Machine(const AstContext &Ctx, MachineOptions Opts, UbSink &Sink,
          const MachineSnapshot &Snap, std::vector<uint8_t> Decisions);

  /// Attaches a monitor (not owned). Monitors outlive the run.
  void addMonitor(ExecMonitor *Monitor) { Monitors.push_back(Monitor); }

  /// Initializes static storage and runs main() to completion (or until
  /// a stop condition). Returns the final status.
  RunStatus run();

  /// Continues a forked machine from its snapshot state to completion.
  /// (run() calls this too, after setup.)
  RunStatus resume();

  /// One small step. Returns false when the machine has stopped.
  bool step();

  /// Pins evaluation-order decisions for search replay.
  void setReplayDecisions(std::vector<uint8_t> Decisions) {
    Chooser.setReplay(std::move(Decisions));
  }
  const std::vector<std::pair<uint8_t, uint8_t>> &decisionTrace() const {
    return Chooser.trace();
  }

  /// Called after every evaluation-order choice point, once the chosen
  /// permutation is part of the configuration (so fingerprints taken
  /// inside the hook distinguish the alternatives). Returning false
  /// cancels the run (RunStatus::Cancelled) — the search uses this to
  /// abandon interleavings whose state another interleaving already
  /// reached.
  using ChoiceHook = std::function<bool(Machine &M)>;
  void setChoiceHook(ChoiceHook Hook) { OnChoice = std::move(Hook); }

  /// Called immediately before a flippable (arity >= 2) choice point,
  /// while the configuration is still the pre-choice state. The hook
  /// may call captureChoiceSnapshot() to obtain a resumable snapshot of
  /// that state; the search forks children from these instead of
  /// replaying prefixes. \p Arity is the operand count about to be
  /// ordered. The current decision depth is decisionTrace().size().
  using BeforeChoiceHook = std::function<void(Machine &M, unsigned Arity)>;
  void setBeforeChoiceHook(BeforeChoiceHook Hook) {
    OnBeforeChoice = std::move(Hook);
  }

  /// Valid only inside a BeforeChoiceHook invocation: a snapshot that,
  /// forked with any replay vector extending the current trace,
  /// re-executes the in-flight step from its beginning (the popped
  /// expression item is restored and the step counter rewound), so the
  /// forked run is indistinguishable from a from-scratch replay.
  MachineSnapshot captureChoiceSnapshot() const;

  /// True while executing a builtin's synchronous call-back into the
  /// semantics (qsort/bsearch comparators). Snapshots taken there would
  /// lose the builtin's C++-side state and must not be captured; the
  /// search falls back to prefix replay for such choice points.
  bool inSyncCall() const { return SyncDepth > 0; }

  /// Polled every 256 steps; returning true cancels the run. This is
  /// the search's cancellation token: when one worker finds
  /// undefinedness, runs that can no longer matter stop mid-execution
  /// instead of completing.
  using CancelCheck = std::function<bool()>;
  void setCancelCheck(CancelCheck Check) { ShouldCancel = std::move(Check); }

  /// Fingerprint of the current configuration plus the chooser's RNG
  /// stream (the two together determine all future behavior).
  /// Incremental: O(state touched since the last fingerprint).
  uint64_t configFingerprint() const {
    WordHasher H;
    H.u64(Conf.fingerprint());
    H.u32(Chooser.rngState());
    return H.digest();
  }

  /// The same fingerprint recomputed from scratch (no caches). Always
  /// equal to configFingerprint(); kept as the reference the
  /// incremental path is tested against, and as the full-rehash
  /// baseline of test_scheduler's engine matrix.
  uint64_t configFingerprintFull() const {
    WordHasher H;
    H.u64(Conf.fingerprintFull());
    H.u32(Chooser.rngState());
    return H.digest();
  }

  Configuration &config() { return Conf; }
  const Configuration &config() const { return Conf; }
  const MachineOptions &options() const { return Opts; }
  const AstContext &ast() const { return Ctx; }
  UbSink &sink() { return Sink; }

  //===--- Reporting (used by rules, chains, monitors, builtins) -------===//
  /// Reports an undefined behavior; in strict mode with StopAtFirstUb
  /// this also stops the machine.
  void flagUb(UbKind Kind, SourceLoc Loc);
  void flagUbCode(uint16_t CatalogId, SourceLoc Loc);
  /// Stops with a hardware fault (permissive mode).
  void fault(const char *Why, SourceLoc Loc);
  std::string currentFunctionName() const;

  //===--- Memory interface (also used by libc builtins) ---------------===//
  /// Reads a scalar through \p Ptr with every strict check; returns
  /// false if the read could not produce a value (UB reported).
  bool loadScalar(SymPointer Ptr, QualType Ty, SourceLoc Loc, Value &Out);
  /// Writes a scalar with every strict check. \p IsInit bypasses const
  /// and sequencing (object construction).
  bool storeScalar(SymPointer Ptr, QualType Ty, const Value &V,
                   SourceLoc Loc, bool IsInit);
  /// Aggregate (struct/union) load/store as raw bytes.
  bool loadAgg(SymPointer Ptr, QualType Ty, SourceLoc Loc, Value &Out);
  bool storeAgg(SymPointer Ptr, QualType Ty, const Value &V, SourceLoc Loc,
                bool IsInit);
  /// Allocates a heap object (malloc); returns its id.
  uint32_t allocHeap(uint64_t Size);
  /// The deref rule (paper 4.1.2): validates forming an lvalue of
  /// \p Pointee from pointer value \p P. Reports UB on failure.
  bool derefCheck(const Value &P, QualType Pointee, SourceLoc Loc);
  /// Pointer + Delta elements with the 6.5.6p8 checks.
  bool pointerAdd(const Value &P, int64_t DeltaElems, SourceLoc Loc,
                  Value &Out);
  /// Concrete address of a pointer (permissive semantics, %p, casts).
  uint64_t absAddr(SymPointer Ptr) const;
  /// Appends to the program's stdout.
  void writeOutput(const std::string &Text) { Conf.Output += Text; }
  /// Marks a sequence point (empties locsWrittenTo, notifies monitors).
  void seqPoint();
  /// The variadic tail of the innermost call (printf-style builtins).
  const std::vector<Value> &varArgs() const { return Conf.frame().VarArgs; }
  /// Registers const byte ranges of a newly created object.
  void protectConstRanges(uint32_t ObjId, QualType Ty, uint64_t Offset);
  /// Fills an object range with zero bytes.
  void zeroFill(uint32_t ObjId, uint64_t Offset, uint64_t Len);
  /// Ends a heap object's life through free(); full checks inside.
  void runFree(const Value &PtrVal, SourceLoc Loc);
  /// Conversion driven by value/type shapes (compound assignment and
  /// NoProto argument adaptation); applies UB checks (e.g. UB 26).
  Value convertForMachine(const Value &V, const Type *To, SourceLoc Loc);
  /// Raw byte copy with full checks (memcpy/memmove/realloc). Copies
  /// bytes verbatim, preserving unknowns and pointer fragments (paper
  /// 4.3.3: byte-wise struct copies must work). With \p CheckOverlap,
  /// overlapping ranges are UB 27.
  bool copyBytes(SymPointer Dst, SymPointer Src, uint64_t Len,
                 SourceLoc Loc, bool CheckOverlap);
  /// memset: writes \p Len concrete bytes with checks.
  bool setBytes(SymPointer Dst, uint8_t Value, uint64_t Len, SourceLoc Loc);
  /// Reads a NUL-terminated string (for strlen/printf %s/...); reports
  /// UB on unknown bytes or missing terminator. False on failure.
  bool readCString(SymPointer Ptr, std::string &Out, SourceLoc Loc);
  /// Runs a user function to completion from inside a builtin (the
  /// callback path of qsort/bsearch). The sub-execution uses the same
  /// configuration; returns false if it stopped (UB, fault, ...).
  bool callFunctionSync(const FunctionDecl *Fn, ValueSpan Args,
                        SourceLoc Loc, Value &Result);
  /// Resolves a pointer value to the function it designates (null when
  /// it does not designate one).
  const FunctionDecl *functionFor(const Value &V) const;

private:
  //===--- Program setup (Machine.cpp) ----------------------------------===//
  void initStaticStorage();
  uint32_t createObjectForDecl(const VarDecl *D, StorageKind Storage);
  uint32_t functionObject(const FunctionDecl *F);
  uint32_t literalObject(const StringLitExpr *S);

  //===--- Step dispatch -------------------------------------------------===//
  /// Steps the top of k: an operand list advances in place, any other
  /// item is popped and handed to stepItem.
  void stepTop();
  void stepItem(KItem Item); // takes the popped top of k

  //===--- Expressions (RulesExpr.cpp) -----------------------------------===//
  void stepExpr(const Expr *E);
  /// Evaluates Node's \p N operands in a chosen order, then finishes
  /// Node (finishOperands).
  void scheduleOperands(const Expr *Node, unsigned N);
  /// Advances the EvalOperands item on top of k: schedules its next
  /// operand, or pops it and finishes the operator.
  void stepEvalOperands();
  /// Moves the operand values off the value stack, in operand order,
  /// and runs Item.E's finish rule on them.
  void finishOperands(const KItem &Item);
  void finishUnary(const UnaryExpr *U, ValueSpan Vals);
  void finishBinary(const BinaryExpr *B, ValueSpan Vals);
  void finishAssign(const AssignExpr *A, ValueSpan Vals);
  void finishCall(const CallExpr *C, ValueSpan Vals);
  void finishIndex(const IndexExpr *I, ValueSpan Vals);
  void finishMember(const MemberExpr *M, ValueSpan Vals);
  void stepLvToRv(const Expr *Node);
  void stepCastApply(const Expr *Node);
  void stepLogicRhs(const Expr *Node);
  void stepLogicDone(const Expr *Node);
  void stepCondPick(const Expr *Node);
  /// Pops the top value, checking the missing-return-value rule.
  Value popValue(SourceLoc Loc);
  /// The same check on the top value, which stays on the stack (an
  /// operand's result waiting for the rest of its list). The stack must
  /// not be empty.
  void checkTopValue(SourceLoc Loc);
  void pushValue(Value V) { Conf.Values.push_back(std::move(V)); }
  /// Applies unary inc/dec semantics (shared by the four operators).
  void applyIncDec(const UnaryExpr *U, const Value &Lv);
  /// The division rule in the configured style (section 4.5 ablation).
  bool divisionRule(BinaryOp Op, const Value &L, const Value &R,
                    const Type *ResultTy, SourceLoc Loc, Value &Out);

  //===--- Statements (RulesStmt.cpp) ------------------------------------===//
  void stepStmt(const Stmt *S);
  void enterBlock(const CompoundStmt *B);
  void leaveBlock(KItem &Item);
  void execDeclInit(const VarDecl *D);
  void pushInitStores(uint32_t ObjId, const VarDecl *D, QualType Ty,
                      uint64_t Offset, const Expr *Init);
  void stepStoreTo(KItem &Item);
  void stepInitVar(KItem &Item);
  void unwindBreak(SourceLoc Loc);
  void unwindContinue(SourceLoc Loc);
  void unwindReturn(bool HasValue, SourceLoc Loc);
  void performGoto(const GotoStmt *G);
  void performSwitchDispatch(const SwitchStmt *W, const Value &V);
  /// Pushes the continuations to start executing at \p Target, which is
  /// nested somewhere inside \p S. Returns true if found.
  bool pushPathTo(const Stmt *S, const Stmt *Target);
  static bool stmtContains(const Stmt *Haystack, const Stmt *Needle);

  //===--- Memory internals (RulesMem.cpp) --------------------------------===//
  struct ResolvedLoc {
    uint32_t Obj = 0;
    int64_t Offset = 0;
    bool Ok = false;
  };
  /// Strict resolution: the pointer must name a live object in range.
  ResolvedLoc resolveStrict(SymPointer Ptr, uint64_t Len, SourceLoc Loc,
                            bool ForWrite);
  /// Permissive resolution through concrete addresses.
  ResolvedLoc resolvePermissive(SymPointer Ptr, uint64_t Len,
                                SourceLoc Loc);
  /// Encodes \p V into the \p Size bytes at \p Bytes.
  void encodeValue(const Value &V, Byte *Bytes, uint64_t Size) const;
  /// Decodes \p Size bytes read as type \p Ty; applies unknown/fragment
  /// rules.
  bool decodeBytes(const Byte *Bytes, uint64_t Size, QualType Ty,
                   SourceLoc Loc, Value &Out);
  uint8_t permissiveByteValue(const Byte &B, uint64_t Addr) const;
  bool sequencingReadCheck(uint32_t Obj, int64_t Off, uint64_t Len,
                           SourceLoc Loc);
  bool sequencingWriteCheck(uint32_t Obj, int64_t Off, uint64_t Len,
                            SourceLoc Loc);
  bool constWriteCheck(uint32_t Obj, int64_t Off, uint64_t Len,
                       SourceLoc Loc);
  bool effectiveTypeCheck(uint32_t Obj, int64_t Off, QualType Ty,
                          SourceLoc Loc, bool IsWrite);
  /// The declared type at (Obj, Off), walking arrays/records.
  const Type *layoutTypeAt(QualType DeclTy, uint64_t Off,
                           uint64_t Len) const;

public:
  //===--- Rule chains (section 4.5.1) ------------------------------------===//
  /// The PrecedenceChain style's rules. They are stateless and do not
  /// depend on MachineOptions, so every machine shares one pair, built
  /// on first use (RulesMem.cpp).
  static const RuleChain &derefChain();
  static const RuleChain &divChain();

private:
  const AstContext &Ctx;
  MachineOptions Opts;
  UbSink &Sink;
  Configuration Conf;
  OrderChooser Chooser;
  ChoiceHook OnChoice;
  BeforeChoiceHook OnBeforeChoice;
  CancelCheck ShouldCancel;
  /// The node whose operands are being ordered (set across a
  /// BeforeChoiceHook invocation; captureChoiceSnapshot restores it).
  const Expr *PendingChoiceNode = nullptr;
  /// Nesting depth of callFunctionSync (see inSyncCall).
  unsigned SyncDepth = 0;
  std::vector<ExecMonitor *> Monitors;
  /// Monitors the machine itself owns (the declarative style's checks).
  std::vector<std::unique_ptr<ExecMonitor>> OwnedMonitors;

  friend class DeclarativeSequencingMonitor;
};

} // namespace cundef

#endif // CUNDEF_CORE_MACHINE_H
