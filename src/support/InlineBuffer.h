//===- support/InlineBuffer.h - Fixed-size scratch buffer -------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An array of a size fixed at construction that is stored inline while
/// the size is at most InlineCap and in one heap block beyond it. As a
/// local variable it keeps a machine step's short temporaries (an
/// operand list's values, a scalar's bytes) off the allocator; as a
/// member it keeps a k item's operand order inline (core/EvalOrder.h).
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_INLINEBUFFER_H
#define CUNDEF_SUPPORT_INLINEBUFFER_H

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

namespace cundef {

template <typename T, size_t InlineCap> class InlineBuffer {
public:
  InlineBuffer() = default;
  explicit InlineBuffer(size_t N) : N(N) {
    if (N > InlineCap)
      Spill.reset(new T[N]());
  }
  InlineBuffer(const InlineBuffer &Other) : InlineBuffer(Other.N) {
    std::copy(Other.begin(), Other.end(), data());
  }
  InlineBuffer(InlineBuffer &&Other) noexcept { *this = std::move(Other); }
  InlineBuffer &operator=(const InlineBuffer &Other) {
    if (this != &Other)
      *this = InlineBuffer(Other);
    return *this;
  }
  /// Leaves \p Other empty.
  InlineBuffer &operator=(InlineBuffer &&Other) noexcept {
    Spill = std::move(Other.Spill);
    N = std::exchange(Other.N, 0);
    if (N <= InlineCap)
      std::move(Other.Inline, Other.Inline + N, Inline);
    return *this;
  }

  T *data() { return N > InlineCap ? Spill.get() : Inline; }
  const T *data() const { return N > InlineCap ? Spill.get() : Inline; }
  T &operator[](size_t I) { return data()[I]; }
  const T &operator[](size_t I) const { return data()[I]; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + N; }
  size_t size() const { return N; }

private:
  std::unique_ptr<T[]> Spill;
  size_t N = 0;
  T Inline[InlineCap];
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_INLINEBUFFER_H
