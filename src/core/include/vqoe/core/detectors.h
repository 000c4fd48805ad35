// The three QoE impairment detectors of the paper.
//
//  * StallDetector (Section 4.1): Random Forest over the 70-feature stall
//    set, reduced by CFS + Best First feature selection, classifying
//    no/mild/severe stalling. Trained class-balanced.
//  * RepresentationDetector (Section 4.2): Random Forest over the
//    210-feature set, CFS-selected, classifying LD/SD/HD average quality.
//    Both are one algorithm, ForestDetector<Label>, whose label type picks
//    the feature space.
//  * SwitchDetector (Section 4.3): no learning — the standard deviation of
//    the CUSUM control chart of Δsize x Δt, thresholded at a fixed value
//    (500 KB·s in the paper, eq. 3) after dropping the first 10 s of the
//    session.
//
// Detectors are trained once on cleartext-derived labels and then applied
// unchanged to encrypted traffic (Section 5): nothing in their inputs
// requires cleartext.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vqoe/core/features.h"
#include "vqoe/core/labels.h"
#include "vqoe/ml/dataset.h"
#include "vqoe/ml/random_forest.h"

namespace vqoe::core {

/// Builds the 70-column stall ml::Dataset from per-session chunk views and
/// ground-truth labels. sessions.size() must equal labels.size().
[[nodiscard]] ml::Dataset build_stall_dataset(
    std::span<const std::vector<ChunkObs>> sessions,
    std::span<const StallLabel> labels);

/// Builds the 210-column representation ml::Dataset.
[[nodiscard]] ml::Dataset build_representation_dataset(
    std::span<const std::vector<ChunkObs>> sessions,
    std::span<const ReprLabel> labels);

/// Reusable buffers for the streaming classification path. Long-lived
/// scorers (OnlineMonitor, each engine shard, each shadow scorer) own one
/// DetectorScratch and pass it to every call, so per-session heap traffic
/// disappears. Not for concurrent sharing — one instance per scoring
/// thread.
struct DetectorScratch {
  /// The cells the last QoePipeline::assess_scored call built (a space
  /// it built nothing of is empty) — what a ScoreObserver reads.
  SessionFeatures features;
  std::vector<double> series;     ///< FeaturePlan::build's per-metric series
  std::vector<double> projected;  ///< selected columns, forest input order
  std::vector<double> proba;      ///< normalised class distribution
};

/// Shared configuration of the two forest-based detectors.
struct ForestDetectorConfig {
  ml::ForestParams forest{.num_trees = 60, .tree = {}, .seed = 1,
                          .compute_oob = false};
  /// Run CFS + Best First on the training set. When false and
  /// `fixed_features` is empty, all features are used.
  bool feature_selection = true;
  /// Overrides feature selection with a known-good feature list — the
  /// paper's Section 5 procedure, where the encrypted evaluation reuses the
  /// features selected on cleartext data.
  std::vector<std::string> fixed_features;
  /// Balance classes by undersampling before training (Section 4.1).
  bool balance_training = true;
  std::uint64_t seed = 99;
};

/// A Random-Forest detector over the CFS-selected columns of one feature
/// space. The label type selects the space: StallLabel the 70-feature
/// stall set, ReprLabel the 210-feature representation set.
template <typename Label>
class ForestDetector {
 public:
  /// Trains on a dataset of this label's feature space
  /// (build_stall_dataset / build_representation_dataset).
  static ForestDetector train(const ml::Dataset& data,
                              const ForestDetectorConfig& config = {});

  /// Classifies one session from its chunk view (offline evaluation:
  /// builds a fresh feature vector per call).
  [[nodiscard]] Label classify(std::span<const ChunkObs> chunks) const;

  /// Classifies a full-width feature vector of this detector's space:
  /// projects the selected columns into `scratch.projected` (no other cell
  /// is read, so a plan-built vector covering them will do) and walks the
  /// forest once. The label is the argmax of the summed votes (RandomForest::
  /// predict); `scratch.proba` is left holding the normalised distribution
  /// (RandomForest::predict_proba_into), so the label's confidence is
  /// `scratch.proba[label]`. Throws std::logic_error when untrained and
  /// std::invalid_argument when `full` is not exactly as wide as the space.
  [[nodiscard]] Label classify_features(std::span<const double> full,
                                        DetectorScratch& scratch) const;

  [[nodiscard]] const std::vector<std::string>& selected_features() const {
    return selected_;
  }
  /// Where selected_features() sit in this space's full vector — the
  /// cells a FeaturePlan must build for this detector.
  [[nodiscard]] const std::vector<std::size_t>& selected_columns() const {
    return selected_idx_;
  }
  [[nodiscard]] const ml::RandomForest& forest() const { return forest_; }
  [[nodiscard]] bool trained() const { return forest_.trained(); }

  /// Rebuilds a detector from persisted parts (model_io.h). The forest's
  /// feature layout must equal `selected`, and every name must belong to
  /// this detector's feature space.
  static ForestDetector from_parts(ml::RandomForest forest,
                                   std::vector<std::string> selected);

 private:
  ml::RandomForest forest_;
  std::vector<std::string> selected_;
  std::vector<std::size_t> selected_idx_;  ///< indices into the full vector
};

extern template class ForestDetector<StallLabel>;
extern template class ForestDetector<ReprLabel>;

/// Random-Forest stall severity detector (Section 4.1).
using StallDetector = ForestDetector<StallLabel>;
/// Random-Forest average-representation detector (Section 4.2).
using RepresentationDetector = ForestDetector<ReprLabel>;

/// CUSUM-based representation switch detector (eq. 3).
class SwitchDetector {
 public:
  struct Config {
    double threshold = 500.0;    ///< KB·s, the paper's fixed decision value
    double skip_initial_s = 10.0;
  };

  SwitchDetector() = default;
  explicit SwitchDetector(Config config) : config_(config) {}

  /// Detector statistic STD(CUSUM(Δsize x Δt)); 0 for very short sessions.
  [[nodiscard]] double score(std::span<const ChunkObs> chunks) const;

  /// True when the session is predicted to contain quality switches.
  [[nodiscard]] bool detect(std::span<const ChunkObs> chunks) const {
    return score(chunks) > config_.threshold;
  }

  [[nodiscard]] const Config& config() const { return config_; }

  /// Threshold that maximizes balanced accuracy between the two score
  /// populations (used to calibrate the fixed value on training data).
  [[nodiscard]] static double calibrate_threshold(
      std::span<const double> scores_without_switches,
      std::span<const double> scores_with_switches);

 private:
  Config config_;
};

}  // namespace vqoe::core
