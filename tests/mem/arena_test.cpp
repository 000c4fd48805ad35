// SessionArena unit tests: size-class rounding, freelist recirculation,
// the hard ceiling (refusal + bad_alloc), high-water/footprint accounting,
// oversize blocks, and standard-container integration —
// the properties DESIGN.md §5i commits to.
#include "vqoe/mem/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <vector>

namespace vqoe::mem {
namespace {

TEST(SessionArena, BlockSizeRoundsToPowerOfTwoClasses) {
  const SessionArena arena;
  EXPECT_EQ(arena.block_size(0), 64u);
  EXPECT_EQ(arena.block_size(1), 64u);
  EXPECT_EQ(arena.block_size(64), 64u);
  EXPECT_EQ(arena.block_size(65), 128u);
  EXPECT_EQ(arena.block_size(128), 128u);
  EXPECT_EQ(arena.block_size(8000), 8192u);
  EXPECT_EQ(arena.block_size(8192), 8192u);
  EXPECT_EQ(arena.block_size(8193), 16384u);
}

TEST(SessionArena, SlabBytesClampedAndRounded) {
  SessionArena tiny{SessionArenaConfig{.slab_bytes = 100}};
  EXPECT_EQ(tiny.config().slab_bytes, 4096u);
  SessionArena odd{SessionArenaConfig{.slab_bytes = 5000}};
  EXPECT_EQ(odd.config().slab_bytes, 8192u);
}

TEST(SessionArena, FreedBlocksRecirculateThroughTheFreelist) {
  SessionArena arena;
  constexpr std::size_t kBlocks = 100;
  constexpr std::size_t kBytes = 100;  // class 128
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    blocks.push_back(arena.allocate(kBytes));
  }
  EXPECT_EQ(arena.stats().block_fresh, kBlocks);
  EXPECT_EQ(arena.stats().block_reuses, 0u);
  EXPECT_EQ(arena.bytes_in_use(), kBlocks * 128);
  const std::size_t slabs_before = arena.stats().slab_count;

  for (void* p : blocks) arena.deallocate(p, kBytes);
  EXPECT_EQ(arena.bytes_in_use(), 0u);

  // The second wave is served entirely from the freelist: no fresh carve,
  // no new slab, and the footprint does not move.
  for (std::size_t i = 0; i < kBlocks; ++i) {
    void* p = arena.allocate(kBytes);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(arena.stats().block_reuses, kBlocks);
  EXPECT_EQ(arena.stats().block_fresh, kBlocks);
  EXPECT_EQ(arena.stats().slab_count, slabs_before);
  EXPECT_DOUBLE_EQ(arena.stats().reuse_ratio(), 0.5);
}

TEST(SessionArena, HighWaterTracksPeakNotCurrent) {
  SessionArena arena;
  void* a = arena.allocate(1000);  // class 1024
  void* b = arena.allocate(1000);
  EXPECT_EQ(arena.high_water(), 2048u);
  arena.deallocate(a, 1000);
  arena.deallocate(b, 1000);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.high_water(), 2048u);  // sticky
  void* c = arena.allocate(1000);
  EXPECT_EQ(arena.high_water(), 2048u);  // under the old peak
  arena.deallocate(c, 1000);
}

TEST(SessionArena, HardCeilingRefusesAndThrows) {
  SessionArena arena{SessionArenaConfig{.max_bytes = 1024}};
  void* a = arena.try_allocate(512);
  ASSERT_NE(a, nullptr);
  // 512 in use; another 1024-class block would exceed the ceiling.
  EXPECT_EQ(arena.try_allocate(1000), nullptr);
  EXPECT_EQ(arena.stats().refusals, 1u);
  EXPECT_THROW((void)arena.allocate(1000), std::bad_alloc);
  EXPECT_EQ(arena.stats().refusals, 2u);
  // Freeing makes room again: the ceiling is occupancy, not throughput.
  arena.deallocate(a, 512);
  void* b = arena.try_allocate(1000);
  EXPECT_NE(b, nullptr);
  arena.deallocate(b, 1000);
}

TEST(SessionArena, OversizeBlocksBypassSlabsAndReturnToSystem) {
  SessionArena arena{SessionArenaConfig{.slab_bytes = 4096}};
  void* big = arena.allocate(10000);  // class 16384 > slab
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xab, 10000);  // really writable
  EXPECT_EQ(arena.bytes_in_use(), 16384u);
  EXPECT_EQ(arena.stats().slab_count, 0u);  // no slab was carved
  EXPECT_EQ(arena.stats().footprint_bytes, 16384u);
  arena.deallocate(big, 10000);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Oversize blocks are freed, not hoarded: the footprint shrinks back.
  EXPECT_EQ(arena.stats().footprint_bytes, 0u);
}

TEST(SessionArena, BlocksAreSixteenByteAligned) {
  SessionArena arena;
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{64},
                                  std::size_t{100}, std::size_t{1000},
                                  std::size_t{100000}}) {
    void* p = arena.allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u) << bytes;
    arena.deallocate(p, bytes);
  }
}

TEST(SessionArena, ZeroByteRequestsYieldDistinctFreeableBlocks) {
  SessionArena arena;
  void* a = arena.try_allocate(0);
  void* b = arena.try_allocate(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  arena.deallocate(a, 0);
  arena.deallocate(b, 0);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(SessionArena, StandardContainersRunOnTheArena) {
  SessionArena arena;
  {
    ArenaVector<std::uint64_t> v{ArenaAllocator<std::uint64_t>(arena)};
    for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_GT(arena.bytes_in_use(), 0u);
    for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i);

    ArenaString s{ArenaAllocator<char>(arena)};
    s.assign("a-subscriber-key-long-enough-to-defeat-SSO-for-sure");
    EXPECT_EQ(s.size(), 51u);
  }
  // Every byte the containers took came back.
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_GT(arena.high_water(), 0u);
}

TEST(SessionArena, ContainerMovesStayOnTheSameArena) {
  SessionArena arena;
  ArenaVector<int> a{ArenaAllocator<int>(arena)};
  a.assign({1, 2, 3, 4});
  ArenaVector<int> b{std::move(a)};
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.get_allocator().arena(), &arena);
  b.clear();
  b.shrink_to_fit();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace vqoe::mem
