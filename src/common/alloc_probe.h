// Shared allocation probe for the zero-allocation regression tests.
//
// The TANGRAM_HOT_PATH annotation (common/hot_path.h) states the contract
// statically; this header is the runtime half: a process-wide operator-new
// call counter plus an RAII sampler, so every allocation-counting test pins
// the SAME contract through the same instrument instead of each rolling its
// own counter (test_dispatch_alloc and test_sim_stress both run on it).
//
// Usage, in a TEST BINARY only (never the library — replacing global
// operator new in one translation unit hooks the whole program):
//
//   #include "common/alloc_probe.h"
//   TANGRAM_DEFINE_ALLOC_PROBE_HOOK();   // once, at namespace scope
//   ...
//   common::AllocationProbe probe;       // start of the measured region
//   hot_loop();
//   EXPECT_EQ(probe.allocations(), 0u);
//
// The counter is an inline atomic with relaxed ordering: the hook is
// process-wide, so it counts every thread's operator new, and relaxed
// increments keep it cheap enough that warm-up phases are not distorted.
// Without the hook macro instantiated anywhere in the binary, the counter
// simply never moves and AllocationProbe::allocations() reports 0 — the
// probe is inert, not wrong, which is why it is safe to keep in a shared
// header.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace tangram::common {

namespace detail {
inline std::atomic<std::size_t> g_alloc_probe_calls{0};
}  // namespace detail

// Total operator-new calls observed by the hook so far (0 when no hook is
// instantiated in this binary).
inline std::size_t alloc_probe_calls() {
  return detail::g_alloc_probe_calls.load(std::memory_order_relaxed);
}

// Called by the hook on every operator new; exposed so a custom hook (e.g.
// one that also tracks bytes) can feed the same counter.
inline void alloc_probe_note() {
  detail::g_alloc_probe_calls.fetch_add(1, std::memory_order_relaxed);
}

// RAII sampler over the counter: allocations() is the number of operator-new
// calls since construction.  Scope one around the measured region only —
// gtest's own bookkeeping allocates, so the region must exclude it.
class AllocationProbe {
 public:
  AllocationProbe() : start_(alloc_probe_calls()) {}

  [[nodiscard]] std::size_t allocations() const {
    return alloc_probe_calls() - start_;
  }

 private:
  std::size_t start_;
};

}  // namespace tangram::common

// noinline keeps GCC from inlining the malloc/free bodies into container
// code, where it would flag the (correct) malloc-backed new / free-backed
// delete pairing as -Wmismatched-new-delete.
#if defined(__GNUC__) || defined(__clang__)
#define TANGRAM_ALLOC_PROBE_NOINLINE [[gnu::noinline]]
#else
#define TANGRAM_ALLOC_PROBE_NOINLINE
#endif

// Counting replacements for the global allocation functions.  Expand ONCE at
// namespace scope in the test binary that wants allocation counting.  The
// matching operator delete overloads are required: mixing a replaced new
// with the default delete is undefined behaviour.
#define TANGRAM_DEFINE_ALLOC_PROBE_HOOK()                                  \
  TANGRAM_ALLOC_PROBE_NOINLINE void* operator new(std::size_t size) {      \
    ::tangram::common::alloc_probe_note();                                 \
    if (void* p = std::malloc(size)) return p;                             \
    throw std::bad_alloc();                                                \
  }                                                                        \
  TANGRAM_ALLOC_PROBE_NOINLINE void* operator new(                         \
      std::size_t size, const std::nothrow_t&) noexcept {                  \
    ::tangram::common::alloc_probe_note();                                 \
    return std::malloc(size);                                              \
  }                                                                        \
  void* operator new[](std::size_t size) { return ::operator new(size); }  \
  void* operator new[](std::size_t size, const std::nothrow_t&) noexcept { \
    return ::operator new(size, std::nothrow);                             \
  }                                                                        \
  TANGRAM_ALLOC_PROBE_NOINLINE void operator delete(void* p) noexcept {    \
    std::free(p);                                                          \
  }                                                                        \
  void operator delete[](void* p) noexcept { std::free(p); }               \
  TANGRAM_ALLOC_PROBE_NOINLINE void operator delete(                       \
      void* p, std::size_t) noexcept {                                     \
    std::free(p);                                                          \
  }                                                                        \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }  \
  void operator delete(void* p, const std::nothrow_t&) noexcept {          \
    std::free(p);                                                          \
  }                                                                        \
  void operator delete[](void* p, const std::nothrow_t&) noexcept {        \
    std::free(p);                                                          \
  }                                                                        \
  static_assert(true, "require a trailing semicolon")
