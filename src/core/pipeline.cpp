#include "vqoe/core/pipeline.h"

#include <algorithm>
#include <bitset>
#include <map>
#include <stdexcept>
#include <string>

#include "vqoe/par/parallel.h"
#include "vqoe/session/reconstruct.h"

namespace vqoe::core {

namespace {

/// The cells the two forest detectors read.
FeaturePlan plan_of(const StallDetector& stall,
                    const RepresentationDetector& repr) {
  StallMask stall_cells;
  for (const std::size_t c : stall.selected_columns()) stall_cells.set(c);
  ReprMask repr_cells;
  if (repr.trained()) {
    for (const std::size_t c : repr.selected_columns()) repr_cells.set(c);
  }
  return FeaturePlan{stall_cells, repr_cells};
}

/// Whether a capture's vector of one space holds every cell of `needed`.
/// Empty means "not captured"; any other width than the space's is refused.
template <std::size_t Width>
bool captured(const std::vector<double>& known, const std::bitset<Width>& mask,
              const std::bitset<Width>& needed, const char* space) {
  if (known.empty()) return false;
  if (known.size() != Width) {
    throw std::invalid_argument{
        std::string{"QoePipeline::assess_scored: known "} + space +
        " vector has " + std::to_string(known.size()) +
        " columns, expected " + std::to_string(Width)};
  }
  return (needed & ~mask).none();
}

}  // namespace

std::vector<SessionRecord> sessions_from_corpus(const workload::Corpus& corpus) {
  const auto groups = trace::group_by_session_id(corpus.weblogs);
  std::map<std::string, const trace::SessionGroundTruth*> truth_by_id;
  for (const trace::SessionGroundTruth& t : corpus.truths) {
    truth_by_id[t.session_id] = &t;
  }

  std::vector<SessionRecord> out;
  out.reserve(groups.size());
  for (const auto& [session_id, records] : groups) {
    const auto it = truth_by_id.find(session_id);
    if (it == truth_by_id.end()) continue;
    SessionRecord rec;
    rec.chunks = chunks_from_weblogs(records);
    if (rec.chunks.empty()) continue;
    rec.truth = *it->second;
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<SessionRecord> sessions_from_encrypted(
    std::span<const trace::WeblogRecord> encrypted_records,
    std::span<const trace::SessionGroundTruth> truths,
    const session::ReconstructionOptions& options) {
  const auto reconstructed = session::reconstruct(encrypted_records, options);
  const auto matches = session::match_ground_truth(reconstructed, truths);

  std::vector<SessionRecord> out;
  for (std::size_t i = 0; i < reconstructed.size(); ++i) {
    if (!matches[i]) continue;
    SessionRecord rec;
    rec.chunks = chunks_from_session(reconstructed[i]);
    if (rec.chunks.empty()) continue;
    rec.truth = truths[*matches[i]];
    out.push_back(std::move(rec));
  }
  return out;
}

QoePipeline QoePipeline::train(std::span<const SessionRecord> sessions,
                               const PipelineConfig& config) {
  if (sessions.empty()) {
    throw std::invalid_argument{"QoePipeline::train: no sessions"};
  }
  if (config.threads > 0) par::set_threads(config.threads);

  std::vector<std::vector<ChunkObs>> stall_sessions;
  std::vector<StallLabel> stall_labels;
  std::vector<std::vector<ChunkObs>> repr_sessions;
  std::vector<ReprLabel> repr_labels;
  for (const SessionRecord& rec : sessions) {
    stall_sessions.push_back(rec.chunks);
    stall_labels.push_back(stall_label(rec.truth));
    if (!config.representation_adaptive_only || rec.truth.adaptive) {
      repr_sessions.push_back(rec.chunks);
      repr_labels.push_back(repr_label(rec.truth));
    }
  }

  QoePipeline p;
  p.stall_ = StallDetector::train(build_stall_dataset(stall_sessions, stall_labels),
                                  config.stall);
  if (!repr_sessions.empty()) {
    p.repr_ = RepresentationDetector::train(
        build_representation_dataset(repr_sessions, repr_labels),
        config.representation);
  }
  p.switch_ = SwitchDetector{config.switches};
  p.plan_ = plan_of(p.stall_, p.repr_);
  return p;
}

QoePipeline QoePipeline::from_parts(StallDetector stall,
                                    RepresentationDetector repr,
                                    SwitchDetector switches) {
  QoePipeline p;
  p.stall_ = std::move(stall);
  p.repr_ = std::move(repr);
  p.switch_ = switches;
  p.plan_ = plan_of(p.stall_, p.repr_);
  return p;
}

QoeReport QoePipeline::assess(std::span<const ChunkObs> chunks) const {
  DetectorScratch scratch;
  return assess_scored(chunks, scratch).report;
}

QoeReport QoePipeline::assess(std::span<const ChunkObs> chunks,
                              DetectorScratch& scratch) const {
  return assess_scored(chunks, scratch).report;
}

QoePipeline::ScoredReport QoePipeline::assess_scored(
    std::span<const ChunkObs> chunks, DetectorScratch& scratch,
    const SessionFeatures* known, const FeaturePlan* plan) const {
  if (plan != nullptr && !plan->covers(plan_)) {
    throw std::logic_error{
        "QoePipeline::assess_scored: the feature plan misses a cell this "
        "pipeline's detectors read"};
  }
  const bool use_repr = repr_.trained();
  const bool stall_known =
      known != nullptr &&
      captured(known->stall, known->stall_mask, plan_.stall(), "stall");
  const bool repr_known =
      use_repr && known != nullptr &&
      captured(known->repr, known->repr_mask, plan_.repr(), "representation");
  SessionFeatures& built = scratch.features;
  if (stall_known && (repr_known || !use_repr)) {
    built.stall.clear();
    built.repr.clear();
    built.stall_mask.reset();
    built.repr_mask.reset();
  } else {
    (plan != nullptr ? *plan : plan_).build(chunks, scratch.series, built);
  }

  ScoredReport scored;
  scored.report.stall = stall_.classify_features(
      stall_known ? known->stall : built.stall, scratch);
  scored.stall_confidence =
      scratch.proba[static_cast<std::size_t>(scored.report.stall)];
  if (use_repr) {
    scored.report.representation = repr_.classify_features(
        repr_known ? known->repr : built.repr, scratch);
    scored.repr_confidence =
        scratch.proba[static_cast<std::size_t>(scored.report.representation)];
  }
  const SwitchDetector::Config& switches = switch_.config();
  built.switch_skip_s = switches.skip_initial_s;
  built.switch_score =
      known != nullptr && known->switch_skip_s == switches.skip_initial_s
          ? known->switch_score
          : switch_.score(chunks);
  scored.report.switch_score = built.switch_score;
  scored.report.quality_switches = built.switch_score > switches.threshold;
  return scored;
}

ml::ConfusionMatrix evaluate_stall(const StallDetector& detector,
                                   std::span<const SessionRecord> sessions) {
  ml::ConfusionMatrix cm{stall_class_names()};
  for (const SessionRecord& rec : sessions) {
    cm.add(static_cast<int>(stall_label(rec.truth)),
           static_cast<int>(detector.classify(rec.chunks)));
  }
  return cm;
}

ml::ConfusionMatrix evaluate_representation(
    const RepresentationDetector& detector,
    std::span<const SessionRecord> sessions, bool adaptive_only) {
  ml::ConfusionMatrix cm{repr_class_names()};
  for (const SessionRecord& rec : sessions) {
    if (adaptive_only && !rec.truth.adaptive) continue;
    cm.add(static_cast<int>(repr_label(rec.truth)),
           static_cast<int>(detector.classify(rec.chunks)));
  }
  return cm;
}

SwitchEvaluation evaluate_switch(const SwitchDetector& detector,
                                 std::span<const SessionRecord> sessions,
                                 bool adaptive_only) {
  SwitchEvaluation eval;
  std::size_t correct_without = 0;
  std::size_t correct_with = 0;
  for (const SessionRecord& rec : sessions) {
    if (adaptive_only && !rec.truth.adaptive) continue;
    const bool predicted = detector.detect(rec.chunks);
    const bool actual = variation_label(rec.truth) != VariationLabel::none;
    if (actual) {
      ++eval.sessions_with;
      if (predicted) ++correct_with;
    } else {
      ++eval.sessions_without;
      if (!predicted) ++correct_without;
    }
  }
  if (eval.sessions_without > 0) {
    eval.accuracy_without = static_cast<double>(correct_without) /
                            static_cast<double>(eval.sessions_without);
  }
  if (eval.sessions_with > 0) {
    eval.accuracy_with = static_cast<double>(correct_with) /
                         static_cast<double>(eval.sessions_with);
  }
  return eval;
}

}  // namespace vqoe::core
