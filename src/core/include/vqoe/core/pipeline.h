// End-to-end QoE measurement pipeline.
//
// Ties the framework together the way an operator would deploy it
// (Section 8): train the detectors once on a labelled (cleartext-derived)
// corpus, then assess any session — cleartext or encrypted, reconstructed
// or URI-grouped — from its chunk view alone, reporting the three
// impairment verdicts.
//
// Also hosts the evaluation drivers the bench harnesses share: confusion
// matrices for the two classifiers and the two-population accuracy of the
// switch detector.
#pragma once

#include <span>
#include <vector>

#include "vqoe/core/detectors.h"
#include "vqoe/core/features.h"
#include "vqoe/ml/metrics.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::core {

/// One labelled session: the operator-visible chunk view plus ground truth.
struct SessionRecord {
  std::vector<ChunkObs> chunks;
  trace::SessionGroundTruth truth;
};

/// Builds labelled sessions from a generated corpus by grouping cleartext
/// weblogs on the URI session ID (the paper's Section 3.3 preparation).
/// Sessions without media records are dropped.
[[nodiscard]] std::vector<SessionRecord> sessions_from_corpus(
    const workload::Corpus& corpus);

/// Builds labelled sessions from *encrypted* weblogs: reconstructs session
/// boundaries (Section 5.2) and joins the instrumented-client ground truth
/// by timestamp. Unmatched reconstructions are dropped. Pass the service's
/// host lists via `options` for non-YouTube corpora.
[[nodiscard]] std::vector<SessionRecord> sessions_from_encrypted(
    std::span<const trace::WeblogRecord> encrypted_records,
    std::span<const trace::SessionGroundTruth> truths,
    const session::ReconstructionOptions& options = {});

struct PipelineConfig {
  ForestDetectorConfig stall;
  ForestDetectorConfig representation;
  SwitchDetector::Config switches;
  /// Train the representation detector only on adaptive sessions (the
  /// paper keeps HAS sessions for the representation/switch models).
  bool representation_adaptive_only = true;
  /// Worker threads for forest training (vqoe::par pool). 0 leaves the
  /// process-wide setting (VQOE_THREADS / par::set_threads) untouched;
  /// any other value is applied via par::set_threads before training —
  /// a process-wide override, since the pool is shared. 1 trains fully
  /// sequentially. Results are identical for every value.
  int threads = 0;
};

/// A session's assessed QoE.
struct QoeReport {
  StallLabel stall = StallLabel::no_stalls;
  ReprLabel representation = ReprLabel::ld;
  bool quality_switches = false;
  double switch_score = 0.0;  ///< the CUSUM-std statistic behind the verdict
};

class QoePipeline {
 public:
  QoePipeline() = default;

  /// Trains all three detectors on labelled sessions.
  static QoePipeline train(std::span<const SessionRecord> sessions,
                           const PipelineConfig& config = {});

  /// Assembles a pipeline from already-trained detectors (model_io.h).
  static QoePipeline from_parts(StallDetector stall, RepresentationDetector repr,
                                SwitchDetector switches);

  /// Assesses one session from its chunk view: assess_scored() with a
  /// throwaway scratch, keeping the report.
  [[nodiscard]] QoeReport assess(std::span<const ChunkObs> chunks) const;

  /// assess_scored() through caller-owned scratch, keeping the report.
  [[nodiscard]] QoeReport assess(std::span<const ChunkObs> chunks,
                                 DetectorScratch& scratch) const;

  /// A report plus the forest confidences behind its two labels — each the
  /// label's share of the normalised forest vote.
  struct ScoredReport {
    QoeReport report;
    double stall_confidence = 0.0;
    double repr_confidence = 0.0;  ///< 0 when the detector is untrained
  };

  /// The feature cells behind one assessment (features.h); ScoreObserver
  /// and shadow scoring spell it this way.
  using SessionFeatures = core::SessionFeatures;

  /// The one scoring path: session close, window verdicts and shadow
  /// scoring all come through here, so a windowed verdict over a span is
  /// bit-identical to the session-close report over that span. Each
  /// detector walks its forest once for both label and confidence.
  ///
  /// The cells of `plan` — by default feature_plan(), the cells this
  /// pipeline's detectors read — are built into `scratch.features`, where
  /// an observer reads them; a monitor passes the union of its models'
  /// plans. Throws std::logic_error when `plan` misses a cell of
  /// feature_plan(). With `known` (another model's capture of the same
  /// span — it must not be `scratch.features` itself), a vector whose mask
  /// covers the detector's selected columns is classified instead of
  /// rebuilt; an uncovered one is rebuilt, and a non-empty vector of the
  /// wrong width throws std::invalid_argument. Its CUSUM score is reused
  /// when its skip matches this pipeline's. When nothing is rebuilt,
  /// `scratch.features` is left empty. Reusing scratch across calls avoids
  /// per-session heap traffic: one scratch per scoring thread.
  [[nodiscard]] ScoredReport assess_scored(
      std::span<const ChunkObs> chunks, DetectorScratch& scratch,
      const SessionFeatures* known = nullptr,
      const FeaturePlan* plan = nullptr) const;

  /// The cells this pipeline's detectors read, compiled by train() and
  /// from_parts().
  [[nodiscard]] const FeaturePlan& feature_plan() const { return plan_; }

  [[nodiscard]] const StallDetector& stall_detector() const { return stall_; }
  [[nodiscard]] const RepresentationDetector& representation_detector() const {
    return repr_;
  }
  [[nodiscard]] const SwitchDetector& switch_detector() const { return switch_; }

 private:
  StallDetector stall_;
  RepresentationDetector repr_;
  SwitchDetector switch_;
  FeaturePlan plan_;
};

/// Confusion matrix of a trained stall detector over labelled sessions.
[[nodiscard]] ml::ConfusionMatrix evaluate_stall(
    const StallDetector& detector, std::span<const SessionRecord> sessions);

/// Confusion matrix of a trained representation detector over the adaptive
/// sessions in `sessions` (non-adaptive ones are skipped when
/// `adaptive_only`).
[[nodiscard]] ml::ConfusionMatrix evaluate_representation(
    const RepresentationDetector& detector,
    std::span<const SessionRecord> sessions, bool adaptive_only = true);

/// Two-population evaluation of the switch detector (Section 4.3 / 5.6):
/// the fraction of no-switch sessions scored below the threshold and of
/// switch sessions scored above it.
struct SwitchEvaluation {
  double accuracy_without = 0.0;  ///< no-switch sessions correctly below
  double accuracy_with = 0.0;     ///< switch sessions correctly above
  std::size_t sessions_without = 0;
  std::size_t sessions_with = 0;
};
[[nodiscard]] SwitchEvaluation evaluate_switch(
    const SwitchDetector& detector, std::span<const SessionRecord> sessions,
    bool adaptive_only = true);

}  // namespace vqoe::core
