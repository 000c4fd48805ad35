// Slab-chained append-only sequence — the chunk-log container.
//
// A session's chunk log only ever appends; a std::vector pays for that
// with log2(n) reallocations (each copying the whole log) and leaves up to
// half its capacity as slack that churn turns into fragmentation. A
// SlabChain appends into fixed-size segments allocated from a
// SessionArena: push_back never moves existing elements, and every segment
// is one size-class block, so freed logs tile perfectly into new ones. A
// chain is neither copied nor moved: it lives and dies in its session's
// map node.
//
// The detectors consume chunk spans contiguously (std::span), so view()
// returns a zero-copy span when the requested range sits inside one
// segment — the common case for window spans — and otherwise gathers into
// a caller-owned scratch vector. Scoring is the cold path (window and
// session close), so the occasional gather costs far less than the
// per-record reallocation it replaces.
//
// Threading: a chain inherits its arena's single-owner discipline — both
// belong to one shard worker thread, so the container is unsynchronized on
// purpose (no guarded members to annotate; see arena.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "vqoe/mem/arena.h"

namespace vqoe::mem {

template <typename T>
class SlabChain {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SlabChain elements are moved by segment, never destroyed "
                "individually");

 public:
  /// Elements per segment: segments target one 8 KiB size class so a
  /// chunk log grows in constant-size steps the freelists recirculate.
  static constexpr std::size_t kSegmentBytes = 8192;
  static constexpr std::size_t segment_capacity() {
    return kSegmentBytes / sizeof(T) > 0 ? kSegmentBytes / sizeof(T) : 1;
  }

  explicit SlabChain(SessionArena& arena)
      : arena_(&arena), segments_(ArenaAllocator<T*>(arena)) {}

  SlabChain(const SlabChain&) = delete;
  SlabChain& operator=(const SlabChain&) = delete;

  ~SlabChain() { release(); }

  void push_back(const T& value) {
    const std::size_t cap = segment_capacity();
    if (size_ == segments_.size() * cap) {
      segments_.push_back(
          static_cast<T*>(arena_->allocate(cap * sizeof(T))));
    }
    // vqoe-lint: allow(banned-api): placement new into an arena segment
    new (segments_[size_ / cap] + size_ % cap) T(value);
    ++size_;
  }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    return segments_[i / segment_capacity()][i % segment_capacity()];
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Contiguous view of [begin, end): zero-copy when the range lies in
  /// one segment, otherwise gathered into `scratch` (resized to fit).
  [[nodiscard]] std::span<const T> view(std::size_t begin, std::size_t end,
                                        std::vector<T>& scratch) const {
    if (begin >= end) return {};
    const std::size_t cap = segment_capacity();
    if (begin / cap == (end - 1) / cap) {
      return {segments_[begin / cap] + begin % cap, end - begin};
    }
    scratch.resize(end - begin);
    std::size_t out = 0;
    std::size_t i = begin;
    while (i < end) {
      const std::size_t in_segment =
          std::min(end - i, cap - i % cap);
      std::memcpy(scratch.data() + out, segments_[i / cap] + i % cap,
                  in_segment * sizeof(T));
      out += in_segment;
      i += in_segment;
    }
    return {scratch.data(), scratch.size()};
  }

  /// Returns every segment (and the directory's buffer) to the arena.
  void release() {
    const std::size_t cap = segment_capacity();
    for (T* segment : segments_) {
      arena_->deallocate(segment, cap * sizeof(T));
    }
    segments_.clear();
    segments_.shrink_to_fit();
    size_ = 0;
  }

 private:
  SessionArena* arena_;
  ArenaVector<T*> segments_;  ///< directory: O(1) random access
  std::size_t size_ = 0;
};

}  // namespace vqoe::mem
