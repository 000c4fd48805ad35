// Correctness gate of the live feed: an order-independent digest of the
// session reports and window verdicts a run emitted, compared against the
// digest of one sequential core::OnlineMonitor over the same records.
//
// Each report or verdict hashes to 64 bits over every field, doubles by
// their exact bit pattern (the engine-vs-sequential invariant is bit
// identity, not closeness). The digest is the sorted multiset of those
// hashes, so harvest order and shard interleaving do not matter, and a
// comparison can count how many verdicts differ rather than just whether
// any did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/window/window.h"

namespace livebench {

[[nodiscard]] std::uint64_t item_hash(const vqoe::core::CompletedSession& s);
[[nodiscard]] std::uint64_t item_hash(const vqoe::window::WindowVerdict& v);

struct Digest {
  std::vector<std::uint64_t> items;  ///< ascending item hashes
  std::size_t sessions = 0;
  std::size_t verdicts = 0;

  [[nodiscard]] std::size_t size() const { return items.size(); }
};

[[nodiscard]] Digest make_digest(
    std::span<const vqoe::core::CompletedSession> sessions,
    std::span<const vqoe::window::WindowVerdict> verdicts);

/// Verdicts that differ between the two digests: the larger of (reference
/// items the run lacks) and (run items the reference lacks), counted as
/// multisets. One flipped verdict counts 1; a missing one counts 1.
[[nodiscard]] std::size_t mismatches(const Digest& reference,
                                     const Digest& run);

}  // namespace livebench
