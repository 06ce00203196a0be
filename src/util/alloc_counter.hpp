#pragma once

// Global operator-new counter for zero-allocation assertions.
//
// Including this header replaces the global allocation functions of the
// whole binary with counting variants, so it must be included in exactly
// ONE translation unit per executable (a second inclusion is a duplicate-
// symbol link error by design — replacement allocation functions must not
// be inline), and never from library code: a library TU would silently
// swap the allocator of every binary that happens to link it. Executables
// include it — bench/perf_micro.cpp, bench/chaos_soak.cpp, the *_alloc_test
// and faults tests, ... — to pin the "0 allocations per episode / event at
// steady state" contracts, handing util::allocation_count to library code
// that needs a probe (serve::ChaosFleetParams::allocation_count).
//
// The set is complete: plain, nothrow, sized and std::align_val_t forms of
// new/new[]/delete/delete[]. Every form allocates with std::malloc or
// std::aligned_alloc and releases with std::free, so a pointer from any
// new is freed by the matching replacement delete — a partial set pairs,
// e.g., the runtime's nothrow new (std::stable_sort's temporary buffer)
// with this file's free, which AddressSanitizer reports as
// alloc-dealloc-mismatch.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace coreda::util {

namespace alloc_counter_detail {
inline std::atomic<std::uint64_t> g_allocations{0};

/// Counts one allocation; nullptr on exhaustion (callers decide to throw).
inline void* allocate(
    std::size_t size,
    std::size_t alignment = alignof(std::max_align_t)) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) / alignment * alignment);
}

inline void* allocate_or_throw(
    std::size_t size, std::size_t alignment = alignof(std::max_align_t)) {
  if (void* p = allocate(size, alignment)) return p;
  throw std::bad_alloc();
}
}  // namespace alloc_counter_detail

/// Number of operator-new calls since process start (monotonic).
inline std::uint64_t allocation_count() noexcept {
  return alloc_counter_detail::g_allocations.load(std::memory_order_relaxed);
}

}  // namespace coreda::util

// GCC pairs new/delete lexically and flags std::free on a new-ed pointer;
// here free IS the matching deallocator because every replacement new
// above allocates with std::malloc / std::aligned_alloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  return coreda::util::alloc_counter_detail::allocate_or_throw(size);
}
void* operator new[](std::size_t size) {
  return coreda::util::alloc_counter_detail::allocate_or_throw(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return coreda::util::alloc_counter_detail::allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return coreda::util::alloc_counter_detail::allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return coreda::util::alloc_counter_detail::allocate_or_throw(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return coreda::util::alloc_counter_detail::allocate_or_throw(
      size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return coreda::util::alloc_counter_detail::allocate(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return coreda::util::alloc_counter_detail::allocate(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
