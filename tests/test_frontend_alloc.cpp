//===- tests/test_frontend_alloc.cpp - Frontend allocation gates ---------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// A compile allocates a small number of times: AST nodes and per-unit
// types are bump-allocated in the unit's slabs (support/SlabArena.h),
// identifiers are interned without temporaries, and the token vectors
// are reused by the thread across compiles. This suite counts operator
// new over a fixed Juliet corpus to keep it that way, and checks that
// the slabs destroy what their objects own.
//
//===----------------------------------------------------------------------===//

#include "ast/Ast.h"
#include "frontend/Frontend.h"
#include "libc/Headers.h"
#include "suites/JulietGen.h"
#include "support/SlabArena.h"
#include "text/Preprocessor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace cundef;

namespace {

/// Heap allocations made through operator new while counting is on.
std::atomic<bool> CountAllocations{false};
std::atomic<uint64_t> Allocations{0};

} // namespace

void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  if (CountAllocations.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
// The flow layer's stable_sort takes its buffer through the nothrow form,
// and a sanitizer's own operator new must never meet this delete.
void *operator new(std::size_t Size) {
  if (void *P = operator new(Size, std::nothrow))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace {

TEST(Frontend, AllocationsPerCompileStayBounded) {
  // Both halves of every JulietGenerator(4) test (2052 units), compiled
  // once to warm the header preludes and the thread's token buffers,
  // then counted. 253 per compile before slabs; about 107 now.
  HeaderRegistry Headers;
  registerStandardHeaders(Headers);
  std::vector<std::string> Sources;
  for (const TestCase &T : JulietGenerator(4).generate()) {
    Sources.push_back(T.Bad);
    Sources.push_back(T.Good);
  }
  ASSERT_GT(Sources.size(), 2000u);
  FrontendOptions FO;
  for (const std::string &Source : Sources)
    ASSERT_TRUE(compileTranslationUnit(FO, Source, "juliet.c", Headers)->ok());

  Allocations = 0;
  CountAllocations = true;
  for (const std::string &Source : Sources)
    compileTranslationUnit(FO, Source, "juliet.c", Headers);
  CountAllocations = false;
  const double PerCompile =
      static_cast<double>(Allocations.load()) / Sources.size();
  RecordProperty("allocations_per_compile", std::to_string(PerCompile));
  EXPECT_LE(PerCompile, 120.0);
}

/// Counts the destructor calls of a slab object that owns heap memory.
struct Owner {
  static inline int Live = 0;
  std::string Text;
  std::vector<int> Items;
  explicit Owner(int N) : Text(64, 'x'), Items(N, N) { ++Live; }
  ~Owner() { --Live; }
};

TEST(SlabArena, DestroysObjectsThatOwnMemory) {
  // Owners interleaved with trivially destructible objects across many
  // slabs and one object larger than any slab: the arena runs every
  // owner's destructor (a leak sanitizer also sees their heap blocks
  // freed) and hands out aligned, distinct storage.
  {
    SlabArena A;
    std::vector<const Owner *> Owners;
    for (int I = 0; I < 2000; ++I) {
      Owners.push_back(A.create<Owner>(I % 7));
      auto *D = A.create<double>(I);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(D) % alignof(double), 0u);
      A.create<char>('c');
    }
    struct Big {
      char Bytes[3 * SlabArena::MaxSlabBytes];
    };
    A.create<Big>();
    A.create<Owner>(100000);
    EXPECT_EQ(Owner::Live, 2001);
    for (int I = 0; I < 2000; ++I)
      EXPECT_EQ(Owners[I]->Items.size(), static_cast<size_t>(I % 7));
  }
  EXPECT_EQ(Owner::Live, 0);
}

TEST(SlabArena, AstNodesOwningStringsAndVectorsAreDestroyed) {
  // String literals, calls and compound statements own heap blocks
  // beside their slab storage; destroying the context frees them (run
  // under CUNDEF_ASAN, where the leak checker sees any it missed).
  StringInterner Interner;
  AstContext Ctx(TargetConfig::lp64(), Interner);
  std::vector<Expr *> Args;
  for (int I = 0; I < 64; ++I)
    Args.push_back(Ctx.create<StringLitExpr>(SourceLoc(),
                                             std::string(100, 'a' + I % 26)));
  auto *Call = Ctx.create<CallExpr>(SourceLoc(), Args[0], Args);
  auto *Body = Ctx.create<CompoundStmt>(
      SourceLoc(), std::vector<Stmt *>{Ctx.create<ExprStmt>(SourceLoc(), Call)});
  EXPECT_EQ(Call->Args.size(), 64u);
  EXPECT_EQ(Body->Body.size(), 1u);
  EXPECT_EQ(cast<StringLitExpr>(Call->Args[63])->Bytes, std::string(100, 'l'));
}

} // namespace
