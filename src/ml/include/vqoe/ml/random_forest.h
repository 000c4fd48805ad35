// Random Forest classifier (Breiman 2001).
//
// The paper's stall-detection and average-representation models are both
// Random Forests ("we use Machine Learning and in particular the Random
// Forest algorithm and 10-fold cross-validation", Section 4). This
// implementation bags histogram-based CART trees with per-node feature
// subsampling and offers out-of-bag accuracy and Gini feature importances.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "vqoe/ml/dataset.h"
#include "vqoe/ml/decision_tree.h"

namespace vqoe::ml {

class CompactForest;

struct ForestParams {
  int num_trees = 60;
  TreeParams tree;       ///< tree.mtry == 0 selects floor(sqrt(cols)).
  std::uint64_t seed = 1;
  bool compute_oob = false;  ///< track out-of-bag votes during fit()
};

// Training and batch prediction run on the vqoe::par pool (VQOE_THREADS /
// par::set_threads). Each tree draws its bootstrap and per-node feature
// subsets from an RNG derived from (seed, tree index), and all reductions
// (importance, OOB votes) are merged in tree order, so the fitted forest —
// down to the bytes save() writes — is identical for every thread count.
//
// Every predict* call walks the cached CompactForest (compact_forest.h);
// the DecisionTrees serve training, OOB estimation and persistence. On a
// forest with no trees every predict* call throws std::logic_error.

/// A trained forest. Copyable; prediction is const and thread-compatible.
class RandomForest {
 public:
  RandomForest() = default;

  /// Fits `params.num_trees` trees on bootstrap resamples of `data`.
  static RandomForest fit(const Dataset& data, const ForestParams& params);

  /// Majority (probability-averaged) vote over all trees.
  [[nodiscard]] int predict(std::span<const double> features) const;

  /// Averaged class-probability vector (size == num_classes()).
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> features) const;

  /// Allocation-free predict_proba: writes the normalized distribution into
  /// `out` (size must be num_classes()). Streaming callers keep one scratch
  /// buffer per monitor/shard instead of constructing a vector per session.
  /// Returns predict(features), taken from the same walk before the votes
  /// are normalized — one walk yields both the label and its confidence.
  int predict_proba_into(std::span<const double> features,
                         std::span<double> out) const;

  /// Predicts every row of a dataset that has the same column layout as the
  /// training data (checked by name). Rows are partitioned across the
  /// vqoe::par pool; each worker reuses one vote buffer for its whole
  /// partition (no per-row allocation).
  [[nodiscard]] std::vector<int> predict_all(const Dataset& data) const;

  /// Averaged class-probability vectors for every row, row-major
  /// (rows() * num_classes()), computed like predict_all.
  [[nodiscard]] std::vector<double> predict_proba_all(const Dataset& data) const;

  [[nodiscard]] std::size_t num_trees() const { return trees_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  [[nodiscard]] bool trained() const { return !trees_.empty(); }
  [[nodiscard]] const std::vector<DecisionTree>& trees() const { return trees_; }

  /// The flattened inference representation (compact_forest.h), compiled
  /// and cached by fit() and load(); null only on an untrained forest.
  /// Shared (immutable) across copies of this forest.
  [[nodiscard]] const CompactForest* compact() const { return compact_.get(); }

  /// Out-of-bag accuracy estimate; present only when params.compute_oob.
  [[nodiscard]] std::optional<double> oob_accuracy() const { return oob_accuracy_; }

  /// Mean decrease in Gini impurity per feature, normalized to sum to 1
  /// (all-zero if no split was ever made).
  [[nodiscard]] std::vector<double> feature_importance() const;

  /// Persists the trained forest as line-based text (train offline once,
  /// load on the monitoring path — the paper's Section 8 deployment).
  void save(std::ostream& os) const;
  /// Loads a forest written by save(). Throws std::runtime_error on
  /// malformed input.
  static RandomForest load(std::istream& is);

 private:
  /// Compiles and caches the CompactForest; fit()/load() epilogue. Throws
  /// std::invalid_argument when a loaded tree is malformed in a way the
  /// per-tree bounds checks cannot see (cycles, shared subtrees).
  void compile_compact();

  /// The cached CompactForest every predict* call walks. Throws
  /// std::logic_error on an untrained forest.
  [[nodiscard]] const CompactForest& compiled() const;

  std::vector<DecisionTree> trees_;
  std::vector<std::string> feature_names_;
  std::vector<double> importance_raw_;
  std::size_t num_classes_ = 0;
  std::optional<double> oob_accuracy_;
  std::shared_ptr<const CompactForest> compact_;
};

}  // namespace vqoe::ml
