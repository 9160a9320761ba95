//===- support/SlabArena.h - Bump allocation in growing slabs ---*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One translation unit's node memory: objects are placed in slabs by a
/// bump pointer and live until the arena dies. Slabs are small until
/// the arena holds a few of them, and then grow with it up to a cap, so a
/// small unit costs a few allocations and little slack, and a large one
/// few allocations per node. An object that is not trivially destructible is preceded in
/// its slab by a finalizer, and the finalizers form an intrusive list
/// the destructor runs, newest first, before it frees the slabs.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_SLABARENA_H
#define CUNDEF_SUPPORT_SLABARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace cundef {

class SlabArena {
public:
  /// Slabs are SlabBytes until the arena holds GrowAfterBytes; each next
  /// one is then as large as all before it, up to MaxSlabBytes. Most
  /// units stay below the threshold (the nodes and types of a Juliet
  /// unit take 6 to 10 KiB, a deep-search tree 11 KiB, a desktop program
  /// 5 KiB), so at most 2 KiB of each is slack: with slabs doubling from
  /// 3 KiB, a deep-search tree held 21 KiB of slabs, and an artifact
  /// retained 25 KB against 20 KB with one heap block per node.
  static constexpr size_t SlabBytes = 2048;
  static constexpr size_t GrowAfterBytes = 16 * 1024;
  static constexpr size_t MaxSlabBytes = 64 * 1024;

  SlabArena() = default;
  SlabArena(const SlabArena &) = delete;
  SlabArena &operator=(const SlabArena &) = delete;
  ~SlabArena();

  /// Constructs a T in the arena; it is destroyed with the arena.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned types need their own allocation");
    if constexpr (std::is_trivially_destructible_v<T>) {
      return new (allocate(sizeof(T), alignof(T)))
          T(std::forward<ArgTs>(Args)...);
    } else {
      constexpr size_t Offset =
          (sizeof(Finalizer) + alignof(T) - 1) / alignof(T) * alignof(T);
      constexpr size_t Align =
          alignof(T) > alignof(Finalizer) ? alignof(T) : alignof(Finalizer);
      char *Mem = static_cast<char *>(allocate(Offset + sizeof(T), Align));
      T *Obj = new (Mem + Offset) T(std::forward<ArgTs>(Args)...);
      // Linked only once constructed: a throwing constructor leaves
      // nothing to destroy.
      Finalizers = new (Mem) Finalizer{Finalizers, [](Finalizer *F) {
        reinterpret_cast<T *>(reinterpret_cast<char *>(F) + Offset)->~T();
      }};
      return Obj;
    }
  }

private:
  struct Finalizer {
    Finalizer *Next;
    void (*Destroy)(Finalizer *);
  };
  struct alignas(std::max_align_t) Slab {
    Slab *Prev;
  };

  void *allocate(size_t Size, size_t Align) {
    size_t Pad = -reinterpret_cast<uintptr_t>(Cur) & (Align - 1);
    if (Size + Pad <= static_cast<size_t>(End - Cur)) {
      char *P = Cur + Pad;
      Cur = P + Size;
      return P;
    }
    return allocateSlow(Size, Align);
  }
  void *allocateSlow(size_t Size, size_t Align);

  Slab *Last = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t Held = 0; ///< bytes of all slabs
  Finalizer *Finalizers = nullptr;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_SLABARENA_H
