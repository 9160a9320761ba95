//===- bench/BenchUtil.h - Shared workload generators -----------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// Program shapes shared by perfbench and the search, engine and serve
// tests, so they all exercise the same searches.
//
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_BENCHUTIL_H
#define CUNDEF_BENCHUTIL_H

#include <cstdio>
#include <string>

namespace cundef_bench {

/// The deep-tree workload: K commuting pairs whose calls write into a
/// sizable global array. Wide waves with uneven run lengths and a
/// memory-heavy configuration — the shape where prefix replay,
/// full-state rehashing, and wave barriers all hurt. \p Salt offsets
/// the array indexing so batched fleets get distinct (non-dedupable
/// across programs) variants of the same shape.
inline std::string deepTreeProgram(unsigned K, unsigned Cells,
                                   unsigned Salt = 0) {
  char Head[160];
  std::snprintf(Head, sizeof(Head),
                "int buf[%u];\n"
                "static int g(int x) { buf[(x + %u) %% %u] += x; "
                "return x + 1; }\n"
                "int main(void) {\n  int t = 0;\n",
                Cells, Salt, Cells);
  std::string S = Head;
  for (unsigned I = 0; I < K; ++I) {
    char Line[64];
    std::snprintf(Line, sizeof(Line), "  t += g(%u) + g(%u);\n", 2 * I,
                  2 * I + 1);
    S += Line;
  }
  S += "  return t > 0 ? 0 : 1;\n}\n";
  return S;
}

/// K statements of commuting pure-call sums: 2^K interleavings,
/// linearly many distinct states — the worst honest case for
/// enumeration and the best for deduplication. \p HiddenUb appends the
/// paper's order-dependent division by zero (section 2.5.2), which the
/// search must survive the exponential prefix space to reach.
inline std::string symmetricSums(unsigned K, bool HiddenUb = false) {
  std::string S = HiddenUb ? "int d = 5;\n" : "";
  S += "static int g(int x) { return x + 1; }\n";
  if (HiddenUb)
    S += "static int setDenom(int x) { return d = x; }\n";
  S += "int main(void) {\n  int t = 0;\n";
  for (unsigned I = 0; I < K; ++I) {
    char Line[64];
    std::snprintf(Line, sizeof(Line), "  t += g(%u) + g(%u);\n", 2 * I,
                  2 * I + 1);
    S += Line;
  }
  if (HiddenUb)
    S += "  t += (10 / d) + setDenom(0);\n";
  S += "  return t > 0 ? 0 : 1;\n}\n";
  return S;
}

} // namespace cundef_bench

#endif // CUNDEF_BENCHUTIL_H
