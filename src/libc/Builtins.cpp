//===- libc/Builtins.cpp - Library function semantics -------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "libc/Builtins.h"

#include "core/Machine.h"
#include "support/Strings.h"

#include <map>

using namespace cundef;

void cundef::assignBuiltinIds(AstContext &Ctx) {
  static const std::map<std::string, BuiltinId> Names = {
      {"malloc", BuiltinMalloc},   {"calloc", BuiltinCalloc},
      {"realloc", BuiltinRealloc}, {"free", BuiltinFree},
      {"memcpy", BuiltinMemcpy},   {"memmove", BuiltinMemmove},
      {"memset", BuiltinMemset},   {"memcmp", BuiltinMemcmp},
      {"strlen", BuiltinStrlen},   {"strcpy", BuiltinStrcpy},
      {"strncpy", BuiltinStrncpy}, {"strcmp", BuiltinStrcmp},
      {"strncmp", BuiltinStrncmp}, {"strchr", BuiltinStrchr},
      {"strcat", BuiltinStrcat},   {"printf", BuiltinPrintf},
      {"putchar", BuiltinPutchar}, {"puts", BuiltinPuts},
      {"abort", BuiltinAbort},     {"exit", BuiltinExit},
      {"abs", BuiltinAbs},         {"labs", BuiltinLabs},
      {"rand", BuiltinRand},       {"srand", BuiltinSrand},
      {"atoi", BuiltinAtoi},       {"qsort", BuiltinQsort},
      {"bsearch", BuiltinBsearch}, {"__cundef_va_arg", BuiltinVaArg},
      {"sprintf", BuiltinSprintf}, {"snprintf", BuiltinSnprintf},
  };
  for (size_t I = 0; I < Ctx.TU.Functions.size(); ++I) {
    FunctionDecl *F = Ctx.TU.Functions[I];
    if (F->Body || Ctx.isShared(I))
      continue; // a user definition shadows the library; a prelude's
                // declarations were marked when it was built
    auto It = Names.find(Ctx.Interner.str(F->Name));
    if (It != Names.end())
      F->BuiltinId = It->second;
  }
}

namespace {

/// Convenience wrapper around the machine for the implementations.
struct BuiltinCtx {
  Machine &M;
  ValueSpan Args;
  const CallExpr *Site;
  SourceLoc Loc;

  const TypeContext &types() const { return M.ast().Types; }
  const Type *intTy() const { return types().intTy(); }
  const Type *sizeTy() const { return types().sizeTy(); }
  const Type *charPtrTy() const { return types().charPtrTy(); }
  const Type *voidPtrTy() const { return types().voidPtrTy(); }

  bool wantArgs(size_t N) {
    if (Args.size() >= N)
      return true;
    M.flagUb(UbKind::CallArityMismatch, Loc);
    return false;
  }
  uint64_t argUInt(size_t I) {
    return Args[I].isInt() ? Args[I].asUnsigned(types()) : 0;
  }
  int64_t argInt(size_t I) {
    return Args[I].isInt() ? Args[I].asSigned(types()) : 0;
  }
  bool argPointer(size_t I, SymPointer &Out) {
    if (I < Args.size() && Args[I].isPointer()) {
      Out = Args[I].Ptr;
      return true;
    }
    M.flagUb(UbKind::StringFunctionBadArgument, Loc);
    return false;
  }
};

Value makeNullPtr(BuiltinCtx &C) {
  return Value::makePointer(C.voidPtrTy(), SymPointer::null());
}

bool builtinMalloc(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(1))
    return false;
  uint64_t Size = C.argUInt(0);
  uint32_t Id = C.M.allocHeap(Size);
  Result = Id ? Value::makePointer(C.voidPtrTy(), SymPointer(Id, 0))
              : makeNullPtr(C);
  return true;
}

bool builtinCalloc(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(2))
    return false;
  uint64_t N = C.argUInt(0), Sz = C.argUInt(1);
  if (Sz != 0 && N > UINT64_MAX / Sz) {
    Result = makeNullPtr(C);
    return true; // multiplication overflow: calloc returns NULL
  }
  uint32_t Id = C.M.allocHeap(N * Sz);
  if (!Id) {
    Result = makeNullPtr(C);
    return true;
  }
  C.M.zeroFill(Id, 0, N * Sz);
  Result = Value::makePointer(C.voidPtrTy(), SymPointer(Id, 0));
  return true;
}

bool doRealloc(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(2))
    return false;
  if (!C.Args[0].isPointer()) {
    C.M.flagUb(UbKind::ReallocInvalidPointer, C.Loc);
    return false;
  }
  SymPointer P = C.Args[0].Ptr;
  uint64_t NewSize = C.argUInt(1);
  if (P.isNull()) {
    uint32_t Id = C.M.allocHeap(NewSize);
    Result = Value::makePointer(C.voidPtrTy(), SymPointer(Id, 0));
    return true;
  }
  const MemObject *Obj =
      P.FromInteger ? nullptr : C.M.config().Mem.find(P.Base);
  bool Valid = Obj && Obj->Storage == StorageKind::Heap &&
               Obj->State == ObjectState::Alive && P.Offset == 0;
  if (!Valid) {
    if (C.M.options().Strict) {
      C.M.flagUb(UbKind::ReallocInvalidPointer, C.Loc);
      return false;
    }
    Result = makeNullPtr(C);
    return true;
  }
  uint64_t OldSize = Obj->Size;
  uint32_t NewId = C.M.allocHeap(NewSize);
  if (!NewId) {
    Result = makeNullPtr(C);
    return true;
  }
  uint64_t CopyLen = std::min(OldSize, NewSize);
  if (CopyLen)
    C.M.copyBytes(SymPointer(NewId, 0), P, CopyLen, C.Loc,
                  /*CheckOverlap=*/false);
  C.M.config().Mem.markFreed(P.Base);
  Result = Value::makePointer(C.voidPtrTy(), SymPointer(NewId, 0));
  return true;
}

bool builtinFree(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(1))
    return false;
  C.M.runFree(C.Args[0], C.Loc);
  Result = Value::empty();
  return C.M.config().Status == RunStatus::Running;
}

bool builtinMemcpy(BuiltinCtx &C, Value &Result, bool CheckOverlap) {
  if (!C.wantArgs(3))
    return false;
  SymPointer Dst, Src;
  if (!C.argPointer(0, Dst) || !C.argPointer(1, Src))
    return false;
  uint64_t Len = C.argUInt(2);
  if (!C.M.copyBytes(Dst, Src, Len, C.Loc, CheckOverlap))
    return false;
  Result = C.Args[0];
  return true;
}

bool builtinMemset(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(3))
    return false;
  SymPointer Dst;
  if (!C.argPointer(0, Dst))
    return false;
  if (!C.M.setBytes(Dst, static_cast<uint8_t>(C.argUInt(1)), C.argUInt(2),
                    C.Loc))
    return false;
  Result = C.Args[0];
  return true;
}

bool builtinMemcmp(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(3))
    return false;
  SymPointer A, B;
  if (!C.argPointer(0, A) || !C.argPointer(1, B))
    return false;
  uint64_t Len = C.argUInt(2);
  int Cmp = 0;
  for (uint64_t I = 0; I < Len; ++I) {
    SymPointer Pa = A, Pb = B;
    Pa.Offset += static_cast<int64_t>(I);
    Pb.Offset += static_cast<int64_t>(I);
    Value Va, Vb;
    QualType UChar(C.types().ucharTy());
    if (!C.M.loadScalar(Pa, UChar, C.Loc, Va) ||
        !C.M.loadScalar(Pb, UChar, C.Loc, Vb))
      return false;
    if (Va.isOpaque() || Vb.isOpaque()) {
      C.M.flagUb(UbKind::ReadIndeterminateValue, C.Loc);
      if (C.M.options().Strict)
        return false;
      continue;
    }
    uint8_t Ba = static_cast<uint8_t>(Va.asUnsigned(C.types()));
    uint8_t Bb = static_cast<uint8_t>(Vb.asUnsigned(C.types()));
    if (Ba != Bb) {
      Cmp = Ba < Bb ? -1 : 1;
      break;
    }
  }
  Result = Value::makeInt(C.intTy(), static_cast<uint64_t>(Cmp));
  return true;
}

bool builtinStrlen(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(1))
    return false;
  SymPointer S;
  if (!C.argPointer(0, S))
    return false;
  std::string Str;
  if (!C.M.readCString(S, Str, C.Loc))
    return false;
  Result = Value::makeInt(C.sizeTy(), Str.size());
  return true;
}

bool builtinStrcpy(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(2))
    return false;
  SymPointer Dst, Src;
  if (!C.argPointer(0, Dst) || !C.argPointer(1, Src))
    return false;
  std::string Str;
  if (!C.M.readCString(Src, Str, C.Loc))
    return false;
  for (uint64_t I = 0; I <= Str.size(); ++I) {
    SymPointer At = Dst;
    At.Offset += static_cast<int64_t>(I);
    uint8_t Ch = I < Str.size() ? static_cast<uint8_t>(Str[I]) : 0;
    if (!C.M.setBytes(At, Ch, 1, C.Loc))
      return false;
  }
  Result = C.Args[0];
  return true;
}

bool builtinStrncpy(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(3))
    return false;
  SymPointer Dst, Src;
  if (!C.argPointer(0, Dst) || !C.argPointer(1, Src))
    return false;
  uint64_t N = C.argUInt(2);
  std::string Str;
  if (!C.M.readCString(Src, Str, C.Loc))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    SymPointer At = Dst;
    At.Offset += static_cast<int64_t>(I);
    uint8_t Ch = I < Str.size() ? static_cast<uint8_t>(Str[I]) : 0;
    if (!C.M.setBytes(At, Ch, 1, C.Loc))
      return false;
  }
  Result = C.Args[0];
  return true;
}

bool builtinStrcmp(BuiltinCtx &C, Value &Result, bool Bounded) {
  size_t Needed = Bounded ? 3 : 2;
  if (!C.wantArgs(Needed))
    return false;
  SymPointer A, B;
  if (!C.argPointer(0, A) || !C.argPointer(1, B))
    return false;
  uint64_t Limit = Bounded ? C.argUInt(2) : UINT64_MAX;
  std::string Sa, Sb;
  if (!C.M.readCString(A, Sa, C.Loc) || !C.M.readCString(B, Sb, C.Loc))
    return false;
  if (Bounded) {
    Sa = Sa.substr(0, Limit);
    Sb = Sb.substr(0, Limit);
  }
  int Cmp = Sa.compare(Sb);
  Result = Value::makeInt(C.intTy(),
                          static_cast<uint64_t>(Cmp < 0 ? -1 : Cmp > 0 ? 1 : 0));
  return true;
}

bool builtinStrchr(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(2))
    return false;
  SymPointer S;
  if (!C.argPointer(0, S))
    return false;
  int Wanted = static_cast<int>(C.argInt(1)) & 0xff;
  std::string Str;
  if (!C.M.readCString(S, Str, C.Loc))
    return false;
  // The result points into the argument string but with a plain char*
  // type -- the paper's const-laundering example (section 4.2.2).
  for (size_t I = 0; I <= Str.size(); ++I) {
    int Ch = I < Str.size() ? static_cast<unsigned char>(Str[I]) : 0;
    if (Ch == Wanted) {
      SymPointer At = S;
      At.Offset += static_cast<int64_t>(I);
      Result = Value::makePointer(C.charPtrTy(), At);
      return true;
    }
  }
  Result = Value::makePointer(C.charPtrTy(), SymPointer::null());
  return true;
}

bool builtinStrcat(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(2))
    return false;
  SymPointer Dst, Src;
  if (!C.argPointer(0, Dst) || !C.argPointer(1, Src))
    return false;
  std::string Head, Tail;
  if (!C.M.readCString(Dst, Head, C.Loc) ||
      !C.M.readCString(Src, Tail, C.Loc))
    return false;
  for (uint64_t I = 0; I <= Tail.size(); ++I) {
    SymPointer At = Dst;
    At.Offset += static_cast<int64_t>(Head.size() + I);
    uint8_t Ch = I < Tail.size() ? static_cast<uint8_t>(Tail[I]) : 0;
    if (!C.M.setBytes(At, Ch, 1, C.Loc))
      return false;
  }
  Result = C.Args[0];
  return true;
}

/// The printf formatting core, shared by printf/sprintf/snprintf:
/// renders the conversion of Fmt against the arguments starting at
/// C.Args[FirstArg] into \p Out, checking argument types against the
/// conversion specifications (UB 34/72/73/74).
bool formatPrintf(BuiltinCtx &C, SymPointer FmtPtr, size_t FirstArg,
                  std::string &Out) {
  std::string Fmt;
  if (!C.M.readCString(FmtPtr, Fmt, C.Loc))
    return false;

  const TypeContext &Types = C.types();
  size_t ArgIdx = FirstArg;
  auto NextArg = [&](Value &V) -> bool {
    if (ArgIdx >= C.Args.size()) {
      C.M.flagUbCode(72, C.Loc); // no corresponding argument
      return false;
    }
    V = C.Args[ArgIdx++];
    return true;
  };

  for (size_t I = 0; I < Fmt.size(); ++I) {
    char Ch = Fmt[I];
    if (Ch != '%') {
      Out += Ch;
      continue;
    }
    // Collect the conversion specification.
    std::string Spec = "%";
    ++I;
    while (I < Fmt.size() &&
           (std::string("-+ #0123456789.*").find(Fmt[I]) !=
            std::string::npos)) {
      if (Fmt[I] == '*') {
        Value W;
        if (!NextArg(W))
          return false;
        if (!W.isInt() || W.Ty != Types.intTy()) {
          C.M.flagUbCode(74, C.Loc); // width or precision is not int
          return false;
        }
        Spec += strFormat("%lld", (long long)W.asSigned(Types));
      } else {
        Spec += Fmt[I];
      }
      ++I;
    }
    int Longs = 0;
    bool SizeT = false;
    while (I < Fmt.size() && (Fmt[I] == 'l' || Fmt[I] == 'z' ||
                              Fmt[I] == 'h')) {
      if (Fmt[I] == 'l')
        ++Longs;
      if (Fmt[I] == 'z')
        SizeT = true;
      ++I;
    }
    if (I >= Fmt.size()) {
      C.M.flagUbCode(204, C.Loc); // malformed conversion
      return false;
    }
    char Conv = Fmt[I];
    switch (Conv) {
    case '%':
      Out += '%';
      break;
    case 'd':
    case 'i': {
      Value V;
      if (!NextArg(V))
        return false;
      if (!V.isInt()) {
        C.M.flagUb(UbKind::VaArgTypeMismatch, C.Loc);
        return false;
      }
      Out += strFormat((Spec + "lld").c_str(), (long long)V.asSigned(Types));
      break;
    }
    case 'u':
    case 'x':
    case 'X':
    case 'o': {
      Value V;
      if (!NextArg(V))
        return false;
      if (!V.isInt()) {
        C.M.flagUb(UbKind::VaArgTypeMismatch, C.Loc);
        return false;
      }
      std::string Full = Spec + "ll" + Conv;
      Out += strFormat(Full.c_str(),
                       (unsigned long long)V.asUnsigned(Types));
      break;
    }
    case 'c': {
      Value V;
      if (!NextArg(V))
        return false;
      if (!V.isInt()) {
        C.M.flagUb(UbKind::VaArgTypeMismatch, C.Loc);
        return false;
      }
      Out += static_cast<char>(V.asUnsigned(Types) & 0xff);
      break;
    }
    case 'f':
    case 'g':
    case 'e': {
      Value V;
      if (!NextArg(V))
        return false;
      if (!V.isFloat()) {
        C.M.flagUb(UbKind::VaArgTypeMismatch, C.Loc);
        return false;
      }
      std::string Full = Spec + Conv;
      Out += strFormat(Full.c_str(), V.F);
      break;
    }
    case 's': {
      Value V;
      if (!NextArg(V))
        return false;
      if (!V.isPointer()) {
        C.M.flagUb(UbKind::VaArgTypeMismatch, C.Loc);
        return false;
      }
      std::string Str;
      if (!C.M.readCString(V.Ptr, Str, C.Loc))
        return false;
      Out += Str;
      break;
    }
    case 'p': {
      Value V;
      if (!NextArg(V))
        return false;
      if (!V.isPointer()) {
        C.M.flagUb(UbKind::VaArgTypeMismatch, C.Loc);
        return false;
      }
      Out += strFormat("0x%llx", (unsigned long long)C.M.absAddr(V.Ptr));
      break;
    }
    default:
      C.M.flagUbCode(204, C.Loc); // invalid conversion specifier
      return false;
    }
    (void)Longs;
    (void)SizeT;
  }
  return true;
}

bool builtinPrintf(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(1))
    return false;
  SymPointer FmtPtr;
  if (!C.argPointer(0, FmtPtr))
    return false;
  std::string Out;
  if (!formatPrintf(C, FmtPtr, 1, Out))
    return false;
  C.M.writeOutput(Out);
  Result = Value::makeInt(C.intTy(), Out.size());
  return true;
}

/// sprintf/snprintf: format into a caller buffer. sprintf's writes are
/// bounds-checked like any other store, so overflowing the destination
/// is caught (the classic CWE-787 via sprintf). snprintf truncates and
/// returns the untruncated length (C11 7.21.6.5).
bool builtinSprintf(BuiltinCtx &C, Value &Result, bool Bounded) {
  size_t FmtIdx = Bounded ? 2 : 1;
  if (!C.wantArgs(FmtIdx + 1))
    return false;
  SymPointer Dst, FmtPtr;
  if (!C.argPointer(0, Dst) || !C.argPointer(FmtIdx, FmtPtr))
    return false;
  uint64_t Limit = Bounded ? C.argUInt(1) : UINT64_MAX;
  std::string Out;
  if (!formatPrintf(C, FmtPtr, FmtIdx + 1, Out))
    return false;
  uint64_t Write = Out.size();
  if (Bounded && Limit == 0) {
    Result = Value::makeInt(C.intTy(), Out.size());
    return true;
  }
  if (Bounded && Write > Limit - 1)
    Write = Limit - 1;
  for (uint64_t I = 0; I <= Write; ++I) {
    SymPointer At = Dst;
    At.Offset += static_cast<int64_t>(I);
    uint8_t Ch = I < Write ? static_cast<uint8_t>(Out[I]) : 0;
    if (!C.M.setBytes(At, Ch, 1, C.Loc))
      return false;
  }
  Result = Value::makeInt(C.intTy(), Out.size());
  return true;
}

bool builtinAbs(BuiltinCtx &C, Value &Result, bool Long) {
  if (!C.wantArgs(1))
    return false;
  int64_t V = C.argInt(0);
  const Type *Ty = Long ? C.types().longTy() : C.intTy();
  int64_t Min = C.types().minValueOf(Ty);
  if (V == Min) {
    // abs(INT_MIN) overflows (C11 7.22.6.1p2).
    C.M.flagUb(UbKind::SignedOverflow, C.Loc);
    if (C.M.options().Strict)
      return false;
  }
  Result = Value::makeInt(Ty, static_cast<uint64_t>(V < 0 ? -V : V));
  return true;
}

bool builtinAtoi(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(1))
    return false;
  SymPointer S;
  if (!C.argPointer(0, S))
    return false;
  std::string Str;
  if (!C.M.readCString(S, Str, C.Loc))
    return false;
  Result = Value::makeInt(C.intTy(),
                          static_cast<uint64_t>(std::atoll(Str.c_str())));
  return true;
}

/// __cundef_va_arg(index): materializes the index-th variadic argument
/// of the innermost call into a fresh cell whose effective type is the
/// argument's actual (default-promoted) type, and returns its address.
/// va_arg's cast then reads it: an incompatible type trips the
/// effective-type rule (C11 7.16.1.1p2, catalog row 95); walking past
/// the last argument is row 98.
bool builtinVaArg(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(1))
    return false;
  int64_t Index = C.argInt(0);
  const std::vector<Value> &Tail = C.M.varArgs();
  if (Index < 0 || static_cast<uint64_t>(Index) >= Tail.size()) {
    C.M.flagUbCode(98, C.Loc); // no next argument
    return false;
  }
  const Value &Arg = Tail[static_cast<size_t>(Index)];
  const Type *Ty = Arg.Ty;
  if (!Ty) {
    C.M.flagUb(UbKind::VaArgTypeMismatch, C.Loc);
    return false;
  }
  uint64_t Size = C.types().sizeOf(QualType(Ty));
  uint32_t Cell = C.M.allocHeap(Size);
  if (!Cell)
    return false;
  if (!C.M.storeScalar(SymPointer(Cell, 0), QualType(Ty), Arg, C.Loc,
                       /*IsInit=*/true))
    return false;
  C.M.config().HeapEffectiveTy[{Cell, 0}] = Ty;
  Result = Value::makePointer(C.voidPtrTy(), SymPointer(Cell, 0));
  return true;
}

/// Shared comparator invocation for qsort/bsearch: calls back into the
/// user's function with two element pointers (catalog rows 93/94/140
/// are about misusing exactly this interface).
bool callComparator(BuiltinCtx &C, const FunctionDecl *Cmp, SymPointer A,
                    SymPointer B, int &Out) {
  const Type *ConstVoidPtr = C.types().constVoidPtrTy();
  Value Args[] = {Value::makePointer(ConstVoidPtr, A),
                  Value::makePointer(ConstVoidPtr, B)};
  Value R;
  if (!C.M.callFunctionSync(Cmp, ValueSpan(Args, 2), C.Loc, R))
    return false;
  if (!R.isInt()) {
    C.M.flagUb(UbKind::CallTypeMismatch, C.Loc);
    return false;
  }
  Out = static_cast<int>(R.asSigned(C.types()));
  return true;
}

bool builtinQsort(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(4))
    return false;
  SymPointer Base;
  if (!C.argPointer(0, Base))
    return false;
  uint64_t Count = C.argUInt(1);
  uint64_t Size = C.argUInt(2);
  const FunctionDecl *Cmp = C.M.functionFor(C.Args[3]);
  if (!Cmp || !Cmp->Body) {
    C.M.flagUb(UbKind::CallTypeMismatch, C.Loc);
    return false;
  }
  if (Size == 0 || Count <= 1) {
    Result = Value::empty();
    return true;
  }
  // Scratch storage for swaps (modelled internal buffer).
  uint32_t Scratch = C.M.allocHeap(Size);
  if (!Scratch) {
    C.M.flagUbCode(70, C.Loc); // absurd element size
    return false;
  }
  auto ElemAt = [&](uint64_t I) {
    SymPointer P = Base;
    P.Offset += static_cast<int64_t>(I * Size);
    return P;
  };
  // Insertion sort: quadratic but oblivious to comparator quality,
  // which keeps inconsistent comparators (row 93) from corrupting the
  // machine itself.
  for (uint64_t I = 1; I < Count; ++I) {
    for (uint64_t J = I; J > 0; --J) {
      int Order = 0;
      if (!callComparator(C, Cmp, ElemAt(J - 1), ElemAt(J), Order))
        return false;
      if (Order <= 0)
        break;
      if (!C.M.copyBytes(SymPointer(Scratch, 0), ElemAt(J - 1), Size, C.Loc,
                         false) ||
          !C.M.copyBytes(ElemAt(J - 1), ElemAt(J), Size, C.Loc, false) ||
          !C.M.copyBytes(ElemAt(J), SymPointer(Scratch, 0), Size, C.Loc,
                         false))
        return false;
      // Swaps within one call are internally sequenced.
      C.M.seqPoint();
    }
  }
  C.M.config().Mem.markFreed(Scratch);
  Result = Value::empty();
  return true;
}

bool builtinBsearch(BuiltinCtx &C, Value &Result) {
  if (!C.wantArgs(5))
    return false;
  SymPointer Key, Base;
  if (!C.argPointer(0, Key) || !C.argPointer(1, Base))
    return false;
  uint64_t Count = C.argUInt(2);
  uint64_t Size = C.argUInt(3);
  const FunctionDecl *Cmp = C.M.functionFor(C.Args[4]);
  if (!Cmp || !Cmp->Body) {
    C.M.flagUb(UbKind::CallTypeMismatch, C.Loc);
    return false;
  }
  uint64_t Lo = 0, Hi = Count;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    SymPointer At = Base;
    At.Offset += static_cast<int64_t>(Mid * Size);
    int Order = 0;
    if (!callComparator(C, Cmp, Key, At, Order))
      return false;
    if (Order == 0) {
      Result = Value::makePointer(C.voidPtrTy(), At);
      return true;
    }
    if (Order < 0)
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  Result = makeNullPtr(C);
  return true;
}

} // namespace

bool cundef::runBuiltin(Machine &M, uint16_t Id, ValueSpan Args,
                        const CallExpr *Site, Value &Result) {
  BuiltinCtx C{M, Args, Site, Site ? Site->Loc : SourceLoc()};
  switch (static_cast<BuiltinId>(Id)) {
  case BuiltinMalloc:
    return builtinMalloc(C, Result);
  case BuiltinCalloc:
    return builtinCalloc(C, Result);
  case BuiltinRealloc:
    return doRealloc(C, Result);
  case BuiltinFree:
    return builtinFree(C, Result);
  case BuiltinMemcpy:
    return builtinMemcpy(C, Result, /*CheckOverlap=*/true);
  case BuiltinMemmove:
    return builtinMemcpy(C, Result, /*CheckOverlap=*/false);
  case BuiltinMemset:
    return builtinMemset(C, Result);
  case BuiltinMemcmp:
    return builtinMemcmp(C, Result);
  case BuiltinStrlen:
    return builtinStrlen(C, Result);
  case BuiltinStrcpy:
    return builtinStrcpy(C, Result);
  case BuiltinStrncpy:
    return builtinStrncpy(C, Result);
  case BuiltinStrcmp:
    return builtinStrcmp(C, Result, /*Bounded=*/false);
  case BuiltinStrncmp:
    return builtinStrcmp(C, Result, /*Bounded=*/true);
  case BuiltinStrchr:
    return builtinStrchr(C, Result);
  case BuiltinStrcat:
    return builtinStrcat(C, Result);
  case BuiltinPrintf:
    return builtinPrintf(C, Result);
  case BuiltinPutchar: {
    if (!C.wantArgs(1))
      return false;
    char Ch = static_cast<char>(C.argUInt(0) & 0xff);
    M.writeOutput(std::string(1, Ch));
    Result = Value::makeInt(C.intTy(), C.argUInt(0));
    return true;
  }
  case BuiltinPuts: {
    if (!C.wantArgs(1))
      return false;
    SymPointer S;
    if (!C.argPointer(0, S))
      return false;
    std::string Str;
    if (!M.readCString(S, Str, C.Loc))
      return false;
    M.writeOutput(Str + "\n");
    Result = Value::makeInt(C.intTy(), 0);
    return true;
  }
  case BuiltinAbort:
    M.config().Status = RunStatus::Completed;
    M.config().ExitCode = 134; // SIGABRT-style
    M.config().Values.clear();
    return false;
  case BuiltinExit:
    M.config().Status = RunStatus::Completed;
    M.config().ExitCode = static_cast<int>(C.argInt(0));
    M.config().Values.clear();
    return false;
  case BuiltinAbs:
    return builtinAbs(C, Result, /*Long=*/false);
  case BuiltinLabs:
    return builtinAbs(C, Result, /*Long=*/true);
  case BuiltinRand: {
    uint32_t &State = M.config().RandState;
    State = State * 1103515245u + 12345u;
    Result = Value::makeInt(C.intTy(), (State >> 16) & 0x7fff);
    return true;
  }
  case BuiltinSrand: {
    if (!C.wantArgs(1))
      return false;
    M.config().RandState = static_cast<uint32_t>(C.argUInt(0));
    Result = Value::empty();
    return true;
  }
  case BuiltinAtoi:
    return builtinAtoi(C, Result);
  case BuiltinQsort:
    return builtinQsort(C, Result);
  case BuiltinBsearch:
    return builtinBsearch(C, Result);
  case BuiltinVaArg:
    return builtinVaArg(C, Result);
  case BuiltinSprintf:
    return builtinSprintf(C, Result, /*Bounded=*/false);
  case BuiltinSnprintf:
    return builtinSprintf(C, Result, /*Bounded=*/true);
  case BuiltinNone:
    break;
  }
  M.config().Status = RunStatus::Internal;
  return false;
}
