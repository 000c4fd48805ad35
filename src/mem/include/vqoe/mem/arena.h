// Arena-backed session-state memory — vqoe::mem.
//
// The operator deployment (Section 8 of the paper) keeps per-subscriber
// reconstruction state alive for as long as a session runs. At millions of
// concurrent subscribers that state — chunk logs, session keys, pending
// window queues, the session map's nodes — cannot be plain heap
// allocations: the allocator dominates the ingest hot path at session
// churn, and nothing bounds the resident set. SessionArena is the
// per-shard answer, in the same design family as the wire layer's pooled
// receive slabs (vqoe::wire::BufferPool, DESIGN.md §5h):
//
//  * fixed-size slabs are carved into power-of-two size-class blocks;
//  * freed blocks go onto per-class freelists and are reused, never
//    returned to the system allocator — after warm-up a churning shard
//    ingests without calling malloc at all, and the arena's footprint is
//    its own high-water mark;
//  * occupancy is explicit (`bytes_in_use`, `high_water`) so a monitor can
//    enforce a memory ceiling by *evicting* idle sessions (the LRU logic
//    lives in core::OnlineMonitor — eviction routes through the normal
//    idle-gap close path, so an evicted session is a session boundary);
//  * an optional hard ceiling (`max_bytes`) makes allocation itself
//    refuse — try_allocate() returns nullptr, allocate() throws — the
//    backstop behind the soft eviction ceiling.
//
// ArenaAllocator<T> is the handle the standard containers use (no
// std::pmr, no virtual dispatch: one pointer, fully inlinable), and
// SlabChain<T> (slab_chain.h) is the segment-chained sequence the chunk
// logs use instead of reallocating vectors.
//
// Single-threaded by design: one arena belongs to one monitor shard, and
// every call is made from that shard's worker thread. That single-owner
// discipline is the synchronization story — there is deliberately no mutex
// or atomic in this header for the thread-safety annotations
// (vqoe/core/thread_annotations.h) to mark, and adding shared state here
// would first mean revisiting the shard ownership model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

namespace vqoe::mem {

struct SessionArenaConfig {
  /// Capacity of each pooled slab; clamped to >= 4096 and rounded up to a
  /// power of two so every size class tiles it exactly.
  std::size_t slab_bytes = 64 * 1024;
  /// Hard allocation ceiling in block bytes; 0 = unlimited. At the
  /// ceiling try_allocate() returns nullptr and allocate() throws
  /// std::bad_alloc. Monitors enforce their soft ceiling by eviction and
  /// normally leave this at 0.
  std::size_t max_bytes = 0;
};

/// Snapshot of arena behavior. `block_reuses / block_allocs` is the
/// fraction of requests the freelists absorbed — the reuse the arena
/// exists for.
struct SessionArenaStats {
  std::uint64_t block_allocs = 0;  ///< total block requests served
  std::uint64_t block_reuses = 0;  ///< served from a size-class freelist
  std::uint64_t block_fresh = 0;   ///< carved fresh, or an oversize heap block
  std::uint64_t refusals = 0;      ///< requests denied by max_bytes
  std::size_t bytes_in_use = 0;    ///< class-rounded bytes currently out
  std::size_t high_water = 0;      ///< peak bytes_in_use
  std::size_t slab_count = 0;      ///< pooled slabs owned (never shrinks)
  std::size_t footprint_bytes = 0; ///< slabs + live oversize blocks

  /// Fraction of block requests served without touching the allocator.
  [[nodiscard]] double reuse_ratio() const {
    return block_allocs == 0 ? 0.0
                             : static_cast<double>(block_reuses) /
                                   static_cast<double>(block_allocs);
  }
};

/// Per-shard slab/freelist allocator for session state. Not thread-safe.
class SessionArena {
 public:
  explicit SessionArena(SessionArenaConfig config = {});
  ~SessionArena();

  SessionArena(const SessionArena&) = delete;
  SessionArena& operator=(const SessionArena&) = delete;

  /// Returns a block of at least `bytes` (16-byte aligned), or nullptr
  /// when max_bytes would be exceeded. bytes == 0 is served as the
  /// smallest class so the pointer is always distinct and freeable.
  [[nodiscard]] void* try_allocate(std::size_t bytes) noexcept;

  /// try_allocate() that throws std::bad_alloc on refusal — the contract
  /// standard containers require of their allocator.
  [[nodiscard]] void* allocate(std::size_t bytes);

  /// Returns a block to its size-class freelist, or an oversize block to
  /// the system allocator. `bytes` must be the size the block was
  /// requested with (any value rounding to the same class works).
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// The size class `bytes` rounds up to (what the request actually costs
  /// against the ceiling). Exposed for tests and accounting.
  [[nodiscard]] std::size_t block_size(std::size_t bytes) const noexcept;

  [[nodiscard]] std::size_t bytes_in_use() const noexcept {
    return stats_.bytes_in_use;
  }
  [[nodiscard]] std::size_t high_water() const noexcept {
    return stats_.high_water;
  }
  [[nodiscard]] const SessionArenaStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const SessionArenaConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Free blocks are chained through their own first bytes.
  struct FreeNode {
    FreeNode* next = nullptr;
  };

  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kMaxClasses = 32;

  [[nodiscard]] std::size_t class_of(std::size_t block) const noexcept;

  SessionArenaConfig config_;
  std::size_t class_count_ = 0;
  FreeNode* free_[kMaxClasses] = {};
  std::vector<std::unique_ptr<std::uint8_t[]>> slabs_;
  std::size_t slab_off_ = 0;  ///< bump offset into slabs_.back()
  std::size_t oversize_live_bytes_ = 0;
  SessionArenaStats stats_;
};

/// Standard-container allocator handle over a SessionArena: one raw
/// pointer, no polymorphism. Containers holding it must not outlive the
/// arena. Propagates on move/copy/swap so container moves stay O(1) and
/// cross-arena moves degrade to element copies (the defined-but-slow path).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  explicit ArenaAllocator(SessionArena& arena) noexcept : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= 16, "arena blocks are 16-byte aligned");
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc{};
    return static_cast<T*>(arena_->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena_->deallocate(p, n * sizeof(T));
  }

  [[nodiscard]] SessionArena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  SessionArena* arena_;
};

/// Arena-interned string: short keys stay in the SSO buffer (no
/// allocation at all), long ones live in the owning arena.
using ArenaString =
    std::basic_string<char, std::char_traits<char>, ArenaAllocator<char>>;

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace vqoe::mem
