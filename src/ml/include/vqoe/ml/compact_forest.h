// Flattened, cache-optimized inference representation of a RandomForest.
//
// DecisionTree's pointer-style layout (32-byte nodes, two explicit child
// indices, double thresholds, per-leaf double distributions) is what
// training wants; serving wants the opposite. CompactForest::compile()
// renumbers every tree depth-first left-first and packs the whole forest
// into structure-of-arrays form inside ONE allocation:
//
//   threshold[i]   float    split value of node i
//   feature[i]     int32    split column; < 0 marks a leaf, and the leaf's
//                           class-distribution offset is recovered as
//                           ~feature[i] (the sign-bit space carries it)
//   right[i]       uint32   forest-global index of the right child; the
//                           left child is implicit at i + 1 because of the
//                           depth-first left-first numbering
//   probas[..]     float    per-leaf class distributions, in leaf
//                           visitation order (num_classes() each)
//   roots[t]       uint32   forest-global root index of tree t
//
// A root-to-leaf walk therefore touches three parallel 4-byte streams that
// advance mostly by +1, instead of chasing 32-byte nodes scattered over
// num_trees heap blocks — and the left-branch step is branch-light
// (idx + 1 vs a loaded index). Single-row predict() does no heap work;
// the batch kernels walk row-blocks x tree-tiles so a tile's node arrays
// stay in L1/L2 across the whole row block (rows partitioned on vqoe::par,
// votes accumulated per row in tree order, so results are bit-identical to
// single-row calls and to every thread count).
//
// compile() validates tree shape — in-bounds children and feature indices,
// in-bounds leaf distributions, no cycles or shared subtrees — and throws
// instead of mirroring a malformed tree into the flat arrays; a walk over
// a compiled forest cannot go out of bounds or fail to terminate.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vqoe/ml/dataset.h"

namespace vqoe::ml {

class RandomForest;

/// Immutable inference-only forest. Cheap to copy relative to the trees it
/// was compiled from; prediction is const and thread-compatible.
class CompactForest {
 public:
  CompactForest() = default;

  /// Flattens a trained forest. Throws std::invalid_argument when the
  /// forest is untrained or any tree is malformed (out-of-range child,
  /// feature or probability index; cycle; shared subtree).
  static CompactForest compile(const RandomForest& forest);

  /// Majority (probability-summed) vote for one row. No heap traffic.
  [[nodiscard]] int predict(std::span<const double> features) const;

  /// Normalized class probabilities for one row, written into `out`
  /// (size must be num_classes()). Returns the class predict() returns for
  /// the same row, from the same walk. No heap traffic.
  int predict_proba_into(std::span<const double> features,
                         std::span<double> out) const;

  /// Blocked batch prediction over every dataset row (row width must match
  /// num_features(); name checking is the caller's concern). Rows are
  /// partitioned across the vqoe::par pool.
  [[nodiscard]] std::vector<int> predict_all(const Dataset& data) const;

  /// Row-major normalized probabilities (rows() x num_classes()), computed
  /// with the same blocked kernel.
  [[nodiscard]] std::vector<double> predict_proba_all(const Dataset& data) const;

  [[nodiscard]] bool compiled() const { return num_trees_ > 0; }
  [[nodiscard]] std::size_t num_trees() const { return num_trees_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const { return num_features_; }
  [[nodiscard]] std::size_t node_count() const { return num_nodes_; }
  /// Size of the one backing allocation in bytes.
  [[nodiscard]] std::size_t bytes() const {
    return arena_.size() * sizeof(std::uint32_t);
  }

 private:
  // The arena is a single uint32 buffer; floats live in it via bit_cast
  // (same size and alignment, no aliasing UB). Offsets index into it.
  [[nodiscard]] float threshold(std::size_t i) const {
    return std::bit_cast<float>(arena_[threshold_off_ + i]);
  }
  [[nodiscard]] std::int32_t feature(std::size_t i) const {
    return static_cast<std::int32_t>(arena_[feature_off_ + i]);
  }
  [[nodiscard]] std::uint32_t right(std::size_t i) const {
    return arena_[right_off_ + i];
  }
  [[nodiscard]] float proba(std::size_t i) const {
    return std::bit_cast<float>(arena_[proba_off_ + i]);
  }
  [[nodiscard]] std::uint32_t root(std::size_t t) const {
    return arena_[roots_off_ + t];
  }

  /// Index of the leaf the (float-narrowed) row reaches in the tree
  /// rooted at `idx`.
  [[nodiscard]] std::size_t walk(const float* row, std::size_t idx) const;

  /// Sums unnormalized votes for one row over all trees, in tree order.
  /// Narrows the row to float once (matching the stored thresholds) so no
  /// walk step widens on its dependency chain; every compact path narrows
  /// identically, keeping single-row and batch results bit-identical.
  void accumulate(std::span<const double> features,
                  std::span<double> votes) const;

  /// Core walk kernel: votes for one row over trees [t0, t1), accumulated
  /// in ascending tree order. Keeps four branch-free tree walks in
  /// flight, each slot refilling itself from its own strided queue of
  /// trees the moment it reaches a leaf, so four serial node-load chains
  /// overlap for the whole range.
  void accumulate_trees(const float* row, std::size_t t0, std::size_t t1,
                        std::span<double> votes) const;

  /// The blocked kernel: votes for rows [lo, hi) of `data`, accumulated in
  /// tree order per row into `votes` ((hi-lo) x num_classes(), zeroed).
  void accumulate_block(const Dataset& data, std::size_t lo, std::size_t hi,
                        std::span<double> votes) const;

  void check_width(const Dataset& data, const char* caller) const;

  std::vector<std::uint32_t> arena_;  ///< the forest's one allocation
  std::size_t threshold_off_ = 0;
  std::size_t feature_off_ = 0;
  std::size_t right_off_ = 0;
  std::size_t proba_off_ = 0;
  std::size_t roots_off_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_trees_ = 0;
  std::size_t num_classes_ = 0;
  std::size_t num_features_ = 0;
};

}  // namespace vqoe::ml
