#include "vqoe/core/pipeline.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "vqoe/par/parallel.h"
#include "vqoe/session/reconstruct.h"

namespace vqoe::core {

namespace {

/// The full vector one detector classifies: `known` when it holds one,
/// else a fresh build into `built` (emptied when unused, so a capture never
/// outlives its call).
std::span<const double> full_vector(
    std::span<const ChunkObs> chunks,
    void (*build)(std::span<const ChunkObs>, std::vector<double>&),
    const std::vector<double>* known, std::vector<double>& built) {
  if (known != nullptr && !known->empty()) {
    built.clear();
    return *known;
  }
  build(chunks, built);
  return built;
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
  return p;
}

QoePipeline QoePipeline::from_parts(StallDetector stall,
                                    RepresentationDetector repr,
                                    SwitchDetector switches) {
  QoePipeline p;
  p.stall_ = std::move(stall);
  p.repr_ = std::move(repr);
  p.switch_ = switches;
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
    const SessionFeatures* known) const {
  SessionFeatures& built = scratch.features;
  ScoredReport scored;
  scored.report.stall = stall_.classify_features(
      full_vector(chunks, &stall_features_into,
                  known != nullptr ? &known->stall : nullptr, built.stall),
      scratch);
  scored.stall_confidence =
      scratch.proba[static_cast<std::size_t>(scored.report.stall)];
  if (repr_.trained()) {
    scored.report.representation = repr_.classify_features(
        full_vector(chunks, &representation_features_into,
                    known != nullptr ? &known->repr : nullptr, built.repr),
        scratch);
    scored.repr_confidence =
        scratch.proba[static_cast<std::size_t>(scored.report.representation)];
  } else {
    built.repr.clear();
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
