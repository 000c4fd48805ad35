#include "vqoe/core/detectors.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "vqoe/ml/feature_selection.h"
#include "vqoe/ts/cusum.h"

namespace vqoe::core {

namespace {

/// The feature space a label type selects: column names, class names,
/// the full-vector builder, and the detector's name for error messages.
template <typename Label>
struct FeatureSpace;

template <>
struct FeatureSpace<StallLabel> {
  static constexpr const char* kDetector = "StallDetector";
  static constexpr auto names = &stall_feature_names;
  static constexpr auto classes = &stall_class_names;
  static constexpr auto build = &stall_features;
};

template <>
struct FeatureSpace<ReprLabel> {
  static constexpr const char* kDetector = "RepresentationDetector";
  static constexpr auto names = &representation_feature_names;
  static constexpr auto classes = &repr_class_names;
  static constexpr auto build = &representation_features;
};

template <typename Label>
ml::Dataset build_dataset(std::span<const std::vector<ChunkObs>> sessions,
                          std::span<const Label> labels) {
  using Space = FeatureSpace<Label>;
  if (sessions.size() != labels.size()) {
    throw std::invalid_argument{"build_dataset: sessions/labels size mismatch"};
  }
  ml::Dataset data{Space::names(), Space::classes()};
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    data.add(Space::build(sessions[i]), static_cast<int>(labels[i]));
  }
  return data;
}

std::vector<std::size_t> selection_indices(
    const std::vector<std::string>& all,
    const std::vector<std::string>& selected) {
  std::vector<std::size_t> idx;
  idx.reserve(selected.size());
  for (const std::string& name : selected) {
    const auto it = std::find(all.begin(), all.end(), name);
    if (it == all.end()) {
      throw std::invalid_argument{"unknown feature in selection: " + name};
    }
    idx.push_back(static_cast<std::size_t>(it - all.begin()));
  }
  return idx;
}

}  // namespace

ml::Dataset build_stall_dataset(std::span<const std::vector<ChunkObs>> sessions,
                                std::span<const StallLabel> labels) {
  return build_dataset(sessions, labels);
}

ml::Dataset build_representation_dataset(
    std::span<const std::vector<ChunkObs>> sessions,
    std::span<const ReprLabel> labels) {
  return build_dataset(sessions, labels);
}

template <typename Label>
ForestDetector<Label> ForestDetector<Label>::train(
    const ml::Dataset& data, const ForestDetectorConfig& config) {
  // Optional CFS feature selection (or a fixed feature list), class
  // balancing, forest fit.
  ForestDetector d;
  if (!config.fixed_features.empty()) {
    d.selected_ = config.fixed_features;
  } else if (config.feature_selection) {
    d.selected_ = ml::cfs_best_first_feature_names(data);
    if (d.selected_.empty()) d.selected_ = data.feature_names();
  } else {
    d.selected_ = data.feature_names();
  }

  ml::Dataset projected = data.project(d.selected_);
  if (config.balance_training) {
    std::mt19937_64 rng{config.seed};
    projected = projected.balanced_undersample(rng);
  }
  d.forest_ = ml::RandomForest::fit(projected, config.forest);
  d.selected_idx_ =
      selection_indices(FeatureSpace<Label>::names(), d.selected_);
  return d;
}

template <typename Label>
Label ForestDetector<Label>::classify(std::span<const ChunkObs> chunks) const {
  DetectorScratch scratch;
  return classify_features(FeatureSpace<Label>::build(chunks), scratch);
}

template <typename Label>
Label ForestDetector<Label>::classify_features(std::span<const double> full,
                                               DetectorScratch& scratch) const {
  using Space = FeatureSpace<Label>;
  if (!trained()) {
    throw std::logic_error{std::string{Space::kDetector} + ": not trained"};
  }
  if (full.size() != Space::names().size()) {
    throw std::invalid_argument{
        std::string{Space::kDetector} + ": feature vector has " +
        std::to_string(full.size()) + " columns, expected " +
        std::to_string(Space::names().size())};
  }
  scratch.projected.resize(selected_idx_.size());
  for (std::size_t i = 0; i < selected_idx_.size(); ++i) {
    scratch.projected[i] = full[selected_idx_[i]];
  }
  scratch.proba.resize(forest_.num_classes());
  return static_cast<Label>(
      forest_.predict_proba_into(scratch.projected, scratch.proba));
}

template <typename Label>
ForestDetector<Label> ForestDetector<Label>::from_parts(
    ml::RandomForest forest, std::vector<std::string> selected) {
  if (forest.feature_names() != selected) {
    throw std::invalid_argument{
        std::string{FeatureSpace<Label>::kDetector} +
        "::from_parts: forest/selection layout mismatch"};
  }
  ForestDetector d;
  d.selected_idx_ = selection_indices(FeatureSpace<Label>::names(), selected);
  d.forest_ = std::move(forest);
  d.selected_ = std::move(selected);
  return d;
}

template class ForestDetector<StallLabel>;
template class ForestDetector<ReprLabel>;

double SwitchDetector::score(std::span<const ChunkObs> chunks) const {
  const auto signal = switch_signal(chunks, config_.skip_initial_s);
  if (signal.size() < 2) return 0.0;
  return ts::cusum_std(signal);
}

double SwitchDetector::calibrate_threshold(
    std::span<const double> scores_without_switches,
    std::span<const double> scores_with_switches) {
  // Sweep candidate thresholds at every observed score; maximize balanced
  // accuracy (mean of the two per-population accuracies).
  std::vector<double> candidates;
  candidates.reserve(scores_without_switches.size() + scores_with_switches.size());
  candidates.insert(candidates.end(), scores_without_switches.begin(),
                    scores_without_switches.end());
  candidates.insert(candidates.end(), scores_with_switches.begin(),
                    scores_with_switches.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  double best_threshold = 0.0;
  double best_score = -1.0;
  for (const double t : candidates) {
    const auto below = static_cast<double>(
        std::count_if(scores_without_switches.begin(), scores_without_switches.end(),
                      [t](double s) { return s <= t; }));
    const auto above = static_cast<double>(
        std::count_if(scores_with_switches.begin(), scores_with_switches.end(),
                      [t](double s) { return s > t; }));
    const double balanced =
        0.5 * below / std::max<std::size_t>(1, scores_without_switches.size()) +
        0.5 * above / std::max<std::size_t>(1, scores_with_switches.size());
    if (balanced > best_score) {
      best_score = balanced;
      best_threshold = t;
    }
  }
  return best_threshold;
}

}  // namespace vqoe::core
