// The counting allocator must replace every global allocation form, so a
// pointer from any new — including the nothrow and over-aligned forms the
// standard library uses internally — is counted and released by the
// matching replacement delete. A partial set makes AddressSanitizer report
// alloc-dealloc-mismatch (std::stable_sort's nothrow temporary buffer).
//
// alloc_counter.hpp replaces the global allocation functions of this whole
// test binary; it is included in this one TU only.
#include "util/alloc_counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <vector>

namespace coreda::util {
namespace {

TEST(AllocCounterTest, CountsEveryNewForm) {
  constexpr std::size_t kWide = 64;
  const auto wide = static_cast<std::align_val_t>(kWide);
  const std::uint64_t before = allocation_count();
  // Direct calls, not new-expressions, so no pair can be elided.
  ::operator delete(::operator new(8));
  ::operator delete[](::operator new[](8));
  ::operator delete(::operator new(8, std::nothrow), std::nothrow);
  ::operator delete[](::operator new[](8, std::nothrow), std::nothrow);
  void* aligned[4] = {::operator new(100, wide), ::operator new[](100, wide),
                      ::operator new(100, wide, std::nothrow),
                      ::operator new[](100, wide, std::nothrow)};
  for (void* p : aligned) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kWide, 0u);
  }
  ::operator delete(aligned[0], 100, wide);
  ::operator delete[](aligned[1], wide);
  ::operator delete(aligned[2], wide, std::nothrow);
  ::operator delete[](aligned[3], 100, wide);
  EXPECT_EQ(allocation_count() - before, 8u);
}

TEST(AllocCounterTest, StableSortBufferIsCountedAndFreed) {
  std::vector<int> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>((i * 7919) % 1024);
  }
  const std::uint64_t before = allocation_count();
  std::stable_sort(values.begin(), values.end());
  EXPECT_GE(allocation_count() - before, 1u);  // the temporary buffer
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

}  // namespace
}  // namespace coreda::util
