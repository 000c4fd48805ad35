#include "vqoe/mem/arena.h"

#include <bit>

namespace vqoe::mem {
namespace {

std::size_t round_pow2(std::size_t v) { return std::bit_ceil(v); }

}  // namespace

SessionArena::SessionArena(SessionArenaConfig config) : config_(config) {
  if (config_.slab_bytes < 4096) config_.slab_bytes = 4096;
  config_.slab_bytes = round_pow2(config_.slab_bytes);
  // Classes: kMinBlock, 2*kMinBlock, ..., slab_bytes.
  class_count_ = static_cast<std::size_t>(
                     std::bit_width(config_.slab_bytes / kMinBlock));
}

SessionArena::~SessionArena() = default;

std::size_t SessionArena::block_size(std::size_t bytes) const noexcept {
  if (bytes <= kMinBlock) return kMinBlock;
  return round_pow2(bytes);  // oversize requests keep their rounded size
}

std::size_t SessionArena::class_of(std::size_t block) const noexcept {
  // block is a power of two in [kMinBlock, slab_bytes].
  return static_cast<std::size_t>(std::bit_width(block / kMinBlock)) - 1;
}

void* SessionArena::try_allocate(std::size_t bytes) noexcept {
  const std::size_t block = block_size(bytes);
  if (config_.max_bytes != 0 &&
      stats_.bytes_in_use + block > config_.max_bytes) {
    ++stats_.refusals;
    return nullptr;
  }

  void* p = nullptr;
  if (block > config_.slab_bytes) {
    // Oversize: one system allocation per block, same accounting as the
    // pooled path. Oversize blocks (a huge bucket array, a giant vector
    // doubling) are rare and unpredictable in size, so they are returned
    // to the system on deallocate instead of hoarded. The operator-new
    // form keeps the block untyped and the failure path explicit
    // (nothrow: refusal must not unwind through try_allocate).
    // vqoe-lint: allow(banned-api): arena internals own raw allocation
    p = ::operator new(block, std::nothrow);
    if (p == nullptr) return nullptr;
    ++stats_.block_fresh;
    oversize_live_bytes_ += block;
    stats_.footprint_bytes =
        slabs_.size() * config_.slab_bytes + oversize_live_bytes_;
  } else {
    const std::size_t cls = class_of(block);
    if (free_[cls] != nullptr) {
      FreeNode* node = free_[cls];
      free_[cls] = node->next;
      p = node;
      ++stats_.block_reuses;
    } else {
      if (slabs_.empty() || slab_off_ + block > config_.slab_bytes) {
        // Nothrow new keeps ceiling refusal exception-free.
        // vqoe-lint: allow(banned-api): arena internals own raw allocation
        std::uint8_t* raw = new (std::nothrow) std::uint8_t[config_.slab_bytes];
        if (raw == nullptr) return nullptr;
        auto slab = std::unique_ptr<std::uint8_t[]>(raw);
        slabs_.push_back(std::move(slab));
        slab_off_ = 0;
        stats_.slab_count = slabs_.size();
        stats_.footprint_bytes = slabs_.size() * config_.slab_bytes +
                                 oversize_live_bytes_;
      }
      p = slabs_.back().get() + slab_off_;
      slab_off_ += block;
      ++stats_.block_fresh;
    }
  }

  ++stats_.block_allocs;
  stats_.bytes_in_use += block;
  if (stats_.bytes_in_use > stats_.high_water) {
    stats_.high_water = stats_.bytes_in_use;
  }
  return p;
}

void* SessionArena::allocate(std::size_t bytes) {
  void* p = try_allocate(bytes);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void SessionArena::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  const std::size_t block = block_size(bytes);
  stats_.bytes_in_use -= block;
  if (block > config_.slab_bytes) {
    // Matches the operator new in try_allocate.
    // vqoe-lint: allow(banned-api): arena internals own raw allocation
    ::operator delete(p);
    oversize_live_bytes_ -= block;
    stats_.footprint_bytes =
        slabs_.size() * config_.slab_bytes + oversize_live_bytes_;
    return;
  }
  auto* node = static_cast<FreeNode*>(p);
  const std::size_t cls = class_of(block);
  node->next = free_[cls];
  free_[cls] = node;
}

}  // namespace vqoe::mem
