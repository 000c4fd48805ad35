// Shadow-model scoring.
//
// Before promoting a retrained model, an operator wants to know how it
// would have scored live traffic. ShadowScorer answers that without
// touching the verdict path: it holds a second pipeline and, for every
// session and window the active model scores, runs the shadow model over
// the same chunk span and counts (dis)agreements per detector. The active
// verdicts are what the monitor emits either way — a shadow model can
// never change an emitted label, only the divergence counters.
//
// Cost: one projection + forest walk per detector per scored
// session/window, nothing per record. The shadow scores through the same
// QoePipeline::assess_scored as the active model, handing it the capture
// the monitor just built. Feature values are model-independent — only
// which cells a model reads differs — and a monitor whose observer names
// the shadow (ShardLifecycle does) builds the union of both models'
// cells, so the shadow never repeats the percentile-sorting feature build.
// It reuses the active CUSUM switch score when the two models skip the
// same start-up interval.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "vqoe/core/online.h"
#include "vqoe/core/pipeline.h"

namespace vqoe::lifecycle {

struct ShadowStats {
  std::uint64_t sessions = 0;  ///< sessions shadow-scored
  std::uint64_t windows = 0;   ///< windows shadow-scored
  std::uint64_t stall_disagreements = 0;
  std::uint64_t repr_disagreements = 0;
  std::uint64_t switch_disagreements = 0;
  /// Scoring events (sessions + windows) where *any* label diverged.
  std::uint64_t disagreements = 0;

  [[nodiscard]] std::uint64_t scored() const { return sessions + windows; }
  /// Fraction of scoring events with any argmax divergence, in [0, 1].
  [[nodiscard]] double divergence() const {
    const std::uint64_t n = scored();
    return n != 0 ? static_cast<double>(disagreements) / static_cast<double>(n)
                  : 0.0;
  }
  /// 1 - divergence(): the headline agreement rate.
  [[nodiscard]] double agreement() const { return 1.0 - divergence(); }
};

/// Scores the shadow model alongside the active one. Single-threaded (one
/// per shard, on the monitor's scoring thread).
class ShadowScorer {
 public:
  /// Disabled scorer: score_* are no-ops.
  ShadowScorer() = default;

  explicit ShadowScorer(std::shared_ptr<const core::QoePipeline> shadow)
      : shadow_(std::move(shadow)) {}

  [[nodiscard]] bool enabled() const { return shadow_ != nullptr; }

  /// Shadow-scores one closed session against the active model's report.
  /// `features` is the monitor's capture for this span; a vector whose mask
  /// does not cover the shadow's selected cells (empty, or built for
  /// another model alone) falls back to rebuilding from `chunks`. A
  /// non-empty vector of the wrong width throws std::invalid_argument.
  void score_session(std::span<const core::ChunkObs> chunks,
                     const core::QoePipeline::SessionFeatures& features,
                     const core::QoeReport& active);

  /// Shadow-scores one window against the active model's verdict labels.
  void score_window(std::span<const core::ChunkObs> chunks,
                    const core::QoePipeline::SessionFeatures& features,
                    const window::WindowVerdict& active);

  [[nodiscard]] const ShadowStats& stats() const { return stats_; }

  /// Zeroes the counters (e.g. when the active model changes and the
  /// comparison baseline with it).
  void reset_stats() { stats_ = ShadowStats{}; }

  [[nodiscard]] const std::shared_ptr<const core::QoePipeline>& model() const {
    return shadow_;
  }

 private:
  /// Tallies one active-vs-shadow comparison into the counters.
  void tally(const core::QoeReport& active, const core::QoeReport& shadow);

  std::shared_ptr<const core::QoePipeline> shadow_;
  core::DetectorScratch scratch_;
  ShadowStats stats_;
};

}  // namespace vqoe::lifecycle
