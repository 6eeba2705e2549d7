// A per-thread cap on single allocations, for decoder tests: a length field
// that the input does not back must never size an allocation.
//
// This header replaces the global operator new/delete, so include it from
// exactly one translation unit per test binary (every tests/test_*.cc is its
// own binary).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace mpcspan::test_alloc {

// While nonzero, any single allocation on this thread above this many bytes
// throws std::bad_alloc instead of happening (see operator new below). Per
// thread, so engine threads and forked workers never see it.
inline thread_local std::size_t tAllocCap = 0;

/// Caps every allocation on this thread while in scope.
struct AllocCap {
  explicit AllocCap(std::size_t bytes) { tAllocCap = bytes; }
  ~AllocCap() { tAllocCap = 0; }
  AllocCap(const AllocCap&) = delete;
  AllocCap& operator=(const AllocCap&) = delete;
};

}  // namespace mpcspan::test_alloc

// Kept out of line so the compiler does not pair an inlined malloc/free
// with new/delete expressions (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  const std::size_t cap = mpcspan::test_alloc::tAllocCap;
  if (cap != 0 && n > cap) throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
