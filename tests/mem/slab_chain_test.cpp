// SlabChain unit tests: segment-chained append, cross-segment indexing,
// zero-copy vs gathered views, and release back to the arena — the
// chunk-log container contract core::OnlineMonitor relies on.
#include "vqoe/mem/slab_chain.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vqoe/mem/arena.h"

namespace vqoe::mem {
namespace {

using Chain = SlabChain<std::uint64_t>;
// 8 KiB segments of u64: 1024 elements per segment.
static_assert(Chain::segment_capacity() == 1024);

TEST(SlabChain, AppendsAcrossSegmentsWithStableIndexing) {
  SessionArena arena;
  Chain chain{arena};
  EXPECT_TRUE(chain.empty());
  constexpr std::size_t kCount = 3000;  // three segments
  for (std::uint64_t i = 0; i < kCount; ++i) chain.push_back(i * 7);
  EXPECT_EQ(chain.size(), kCount);
  EXPECT_EQ(arena.stats().slab_count, 1u);  // three 8K blocks fit one slab
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(chain[i], i * 7);
}

TEST(SlabChain, ViewIsZeroCopyWithinOneSegment) {
  SessionArena arena;
  Chain chain{arena};
  for (std::uint64_t i = 0; i < 2000; ++i) chain.push_back(i);
  std::vector<std::uint64_t> scratch;
  // [100, 600) sits inside segment 0: the span aliases the segment.
  const auto span = chain.view(100, 600, scratch);
  ASSERT_EQ(span.size(), 500u);
  EXPECT_EQ(span.data(), &chain[100]);
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(span[0], 100u);
  EXPECT_EQ(span[499], 599u);
}

TEST(SlabChain, ViewGathersAcrossSegmentBoundaries) {
  SessionArena arena;
  Chain chain{arena};
  for (std::uint64_t i = 0; i < 2500; ++i) chain.push_back(i);
  std::vector<std::uint64_t> scratch;
  // [1000, 2100) straddles segments 0→2: gathered into scratch.
  const auto span = chain.view(1000, 2100, scratch);
  ASSERT_EQ(span.size(), 1100u);
  EXPECT_EQ(span.data(), scratch.data());
  for (std::size_t i = 0; i < span.size(); ++i) {
    ASSERT_EQ(span[i], 1000 + i);
  }
}

TEST(SlabChain, EmptyAndInvertedViewsAreEmpty) {
  SessionArena arena;
  Chain chain{arena};
  chain.push_back(1);
  std::vector<std::uint64_t> scratch;
  EXPECT_TRUE(chain.view(0, 0, scratch).empty());
  EXPECT_TRUE(chain.view(1, 1, scratch).empty());
}

TEST(SlabChain, ReleaseReturnsEverythingToTheArena) {
  SessionArena arena;
  Chain chain{arena};
  for (std::uint64_t i = 0; i < 1500; ++i) chain.push_back(i);
  ASSERT_GT(arena.bytes_in_use(), 0u);

  chain.release();
  EXPECT_EQ(chain.size(), 0u);
  EXPECT_EQ(arena.bytes_in_use(), 0u);

  // The released segments recirculate: regrowing reuses freed blocks.
  const std::uint64_t fresh_before = arena.stats().block_fresh;
  for (std::uint64_t i = 0; i < 1500; ++i) chain.push_back(i);
  EXPECT_GT(arena.stats().block_reuses, 0u);
  EXPECT_EQ(arena.stats().block_fresh, fresh_before);
  for (std::uint64_t i = 0; i < 1500; ++i) ASSERT_EQ(chain[i], i);
}

}  // namespace
}  // namespace vqoe::mem
