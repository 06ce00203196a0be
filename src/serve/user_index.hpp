#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace coreda::serve {

// ---------------------------------------------------------------------------
// UserIndex — the fleet tier's user -> record-location map: a flat
// open-addressed robin-hood table in one contiguous slab, 8 bytes per slot,
// zero node allocations ever.
//
// Each occupied slot packs one u64:
//
//   [user:30][seg:14][off8:20]
//
//   user  key; dense fleet ids (< 2^30 - 1, ~1.07B registered users)
//   seg   store-global segment id (< 2^14)
//   off8  record byte offset / 8 inside the segment (records are 8-aligned,
//         so 20 bits address an 8 MiB segment file)
//
// Empty slots are all-ones (unreachable as an entry: user 2^30-1 is
// rejected). Keys are never deleted — a user's location is only ever
// updated in place — so probes need no tombstones. Robin-hood displacement
// keeps probe chains short at high load; the table runs at up to 7/8
// occupancy, i.e. ~9.15 bytes of slab per resident user.
//
// Concurrency contract: the SegmentStore keeps ONE UserIndex PER WRITER
// LANE (users are partitioned user % writers), so concurrent shard drains
// touch disjoint tables. A single shared open-addressed table would race:
// robin-hood insertion displaces neighbours that may belong to another
// writer's probe chain. Per-lane tables make the hot path lock-free by
// construction.
// ---------------------------------------------------------------------------
class UserIndex {
 public:
  /// Packed record location. seg is a store-global segment id, off8 the
  /// record's byte offset divided by 8.
  struct Loc {
    std::uint32_t seg = 0;
    std::uint32_t off8 = 0;
  };

  static constexpr std::uint64_t kMaxUsers = (std::uint64_t{1} << 30) - 1;
  static constexpr std::uint32_t kMaxSegments = std::uint32_t{1} << 14;
  static constexpr std::uint32_t kMaxOff8 = std::uint32_t{1} << 20;

  /// Grows the slab so `users` keys fit below the 7/8 load ceiling.
  /// Rehashes in place when growing; never shrinks. Setup / scan phase
  /// only — concurrent readers of the same lane must not be live.
  void reserve(std::uint64_t users);

  /// True when `user` has a location; writes it to `out`. Allocation-free.
  bool find(std::uint64_t user, Loc& out) const noexcept {
    if (slots_.empty()) return false;
    const std::size_t cap = slots_.size();
    std::size_t i = home(user, cap);
    std::size_t dist = 0;
    while (true) {
      const std::uint64_t e = slots_[i];
      if (e == kEmpty) return false;
      if ((e >> 34) == user) {
        out = unpack(e);
        return true;
      }
      // Robin-hood invariant: every resident sits no further from its home
      // than anything that probed past it, so once we out-distance the
      // resident the key cannot be further along.
      if (probe_distance(e, i, cap) < dist) return false;
      if (++i == cap) i = 0;
      ++dist;
    }
  }

  /// Inserts or updates `user`'s location. Never grows: inserting a NEW
  /// key above the load ceiling throws std::length_error (the caller
  /// violated the reserve() contract). Updates always succeed.
  /// Allocation-free — safe on the concurrent append hot path (each lane
  /// owns its table).
  void put(std::uint64_t user, Loc loc);

  /// Insert-or-update that grows the slab when needed (scan / import
  /// paths, where a reopened store may hold more users than any reserve
  /// promised). Amortised allocation-free once reserved correctly.
  void put_grow(std::uint64_t user, Loc loc);

  std::uint64_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t slab_bytes() const noexcept { return slots_.size() * 8; }

  /// Visits every (user, loc); slot order (unspecified but deterministic
  /// for a deterministic operation history).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint64_t e : slots_) {
      if (e != kEmpty) fn(e >> 34, unpack(e));
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::uint64_t pack(std::uint64_t user, Loc loc) noexcept {
    return (user << 34) | (std::uint64_t{loc.seg} << 20) |
           std::uint64_t{loc.off8};
  }
  static Loc unpack(std::uint64_t e) noexcept {
    return Loc{static_cast<std::uint32_t>((e >> 20) & (kMaxSegments - 1)),
               static_cast<std::uint32_t>(e & (kMaxOff8 - 1))};
  }

  /// Maps a user id onto [0, cap) without requiring a power-of-two
  /// capacity: util::mix64 spreads dense sequential ids so linear probing
  /// stays O(1) at 7/8 load, and fastrange (the high word of a 128-bit
  /// product) scales the hash.
  static std::size_t home(std::uint64_t user, std::size_t cap) noexcept {
    __extension__ typedef unsigned __int128 u128;
    return static_cast<std::size_t>(
        (static_cast<u128>(util::mix64(user)) * cap) >> 64);
  }

  static std::size_t probe_distance(std::uint64_t e, std::size_t slot,
                                    std::size_t cap) noexcept {
    const std::size_t h = home(e >> 34, cap);
    return slot >= h ? slot - h : slot + cap - h;
  }

  /// Places a packed entry known not to be present (rehash path).
  void place_new(std::uint64_t e) noexcept;

  std::vector<std::uint64_t> slots_;
  std::uint64_t size_ = 0;
  std::uint64_t limit_ = 0;  ///< insert ceiling: 7/8 of capacity
};

}  // namespace coreda::serve
