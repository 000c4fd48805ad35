#include "vqoe/core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace vqoe::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto options = workload::has_corpus_options(500, 33);
    corpus_ = std::make_unique<workload::Corpus>(workload::generate_corpus(options));
    sessions_ = std::make_unique<std::vector<SessionRecord>>(
        sessions_from_corpus(*corpus_));
  }
  static void TearDownTestSuite() {
    corpus_.reset();
    sessions_.reset();
  }
  static std::unique_ptr<workload::Corpus> corpus_;
  static std::unique_ptr<std::vector<SessionRecord>> sessions_;
};

std::unique_ptr<workload::Corpus> PipelineTest::corpus_;
std::unique_ptr<std::vector<SessionRecord>> PipelineTest::sessions_;

TEST_F(PipelineTest, SessionsFromCorpusCoverAllTruths) {
  EXPECT_EQ(sessions_->size(), corpus_->truths.size());
  for (const auto& s : *sessions_) {
    EXPECT_FALSE(s.chunks.empty());
    EXPECT_EQ(s.chunks.size(), s.truth.media_chunk_count);
  }
}

TEST_F(PipelineTest, TrainAndAssessRoundTrip) {
  const auto pipeline = QoePipeline::train(*sessions_);
  EXPECT_TRUE(pipeline.stall_detector().trained());
  EXPECT_TRUE(pipeline.representation_detector().trained());

  const auto report = pipeline.assess(sessions_->front().chunks);
  EXPECT_GE(static_cast<int>(report.stall), 0);
  EXPECT_LE(static_cast<int>(report.stall), 2);
  EXPECT_GE(report.switch_score, 0.0);
  EXPECT_EQ(report.quality_switches,
            report.switch_score > pipeline.switch_detector().config().threshold);
}

/// The forest input an independent reader builds: the detector's selected
/// columns, looked up by name in the full feature vector.
std::vector<double> selected_row(const std::vector<double>& full,
                                 const std::vector<std::string>& names,
                                 const std::vector<std::string>& selected) {
  std::vector<double> row;
  for (const std::string& name : selected) {
    const auto it = std::find(names.begin(), names.end(), name);
    row.push_back(full.at(static_cast<std::size_t>(it - names.begin())));
  }
  return row;
}

TEST_F(PipelineTest, ScoredVerdictsMatchIndependentForestReference) {
  // Labels and confidences against the forest's own predict/predict_proba
  // over a row this test projects itself, so a scoring path that read the
  // wrong column or class index cannot agree with itself and pass.
  const auto pipeline = QoePipeline::train(*sessions_);
  const StallDetector& stall = pipeline.stall_detector();
  const RepresentationDetector& repr = pipeline.representation_detector();
  ASSERT_TRUE(repr.trained());
  DetectorScratch scratch;
  for (const auto& s : *sessions_) {
    const std::span<const ChunkObs> whole{s.chunks};
    const std::size_t half = std::max<std::size_t>(1, whole.size() / 2);
    for (const std::span<const ChunkObs> span : {whole, whole.first(half)}) {
      const auto scored = pipeline.assess_scored(span, scratch);

      const auto stall_row =
          selected_row(stall_features(span), stall_feature_names(),
                       stall.selected_features());
      const auto stall_label = static_cast<std::size_t>(scored.report.stall);
      EXPECT_EQ(static_cast<int>(stall_label),
                stall.forest().predict(stall_row));
      EXPECT_EQ(scored.stall_confidence,
                stall.forest().predict_proba(stall_row)[stall_label]);

      const auto repr_row =
          selected_row(representation_features(span),
                       representation_feature_names(),
                       repr.selected_features());
      const auto repr_label =
          static_cast<std::size_t>(scored.report.representation);
      EXPECT_EQ(static_cast<int>(repr_label), repr.forest().predict(repr_row));
      EXPECT_EQ(scored.repr_confidence,
                repr.forest().predict_proba(repr_row)[repr_label]);
    }
  }
}

TEST_F(PipelineTest, TrainRejectsEmptyInput) {
  EXPECT_THROW(QoePipeline::train({}), std::invalid_argument);
}

TEST_F(PipelineTest, AssessmentsTrackGroundTruthBetterThanChance) {
  const auto pipeline = QoePipeline::train(*sessions_);
  std::size_t repr_correct = 0;
  for (const auto& s : *sessions_) {
    const auto report = pipeline.assess(s.chunks);
    if (report.representation == repr_label(s.truth)) ++repr_correct;
  }
  EXPECT_GT(static_cast<double>(repr_correct) /
                static_cast<double>(sessions_->size()),
            0.6);
}

TEST_F(PipelineTest, EvaluateHelpersCountCorrectly) {
  const auto pipeline = QoePipeline::train(*sessions_);
  const auto stall_cm = evaluate_stall(pipeline.stall_detector(), *sessions_);
  EXPECT_EQ(stall_cm.total(), sessions_->size());
  const auto repr_cm =
      evaluate_representation(pipeline.representation_detector(), *sessions_);
  EXPECT_EQ(repr_cm.total(), sessions_->size());  // all-adaptive corpus
  const auto sw = evaluate_switch(pipeline.switch_detector(), *sessions_);
  EXPECT_EQ(sw.sessions_with + sw.sessions_without, sessions_->size());
}

TEST_F(PipelineTest, EncryptedSessionsRoundTrip) {
  auto options = workload::encrypted_corpus_options(60, 44);
  options.keep_session_results = false;
  auto encrypted_corpus = workload::generate_corpus(options);
  encrypted_corpus.weblogs = trace::encrypt_view(std::move(encrypted_corpus.weblogs));

  const auto encrypted_sessions =
      sessions_from_encrypted(encrypted_corpus.weblogs, encrypted_corpus.truths);
  EXPECT_GT(encrypted_sessions.size(), 45u);
  for (const auto& s : encrypted_sessions) {
    EXPECT_FALSE(s.chunks.empty());
    EXPECT_FALSE(s.truth.session_id.empty());
  }

  // Cleartext-trained detectors apply unchanged to encrypted sessions.
  const auto pipeline = QoePipeline::train(*sessions_);
  const auto cm = evaluate_stall(pipeline.stall_detector(), encrypted_sessions);
  EXPECT_EQ(cm.total(), encrypted_sessions.size());
}

TEST_F(PipelineTest, NonAdaptiveSessionsSkippedByReprEvaluation) {
  auto options = workload::cleartext_corpus_options(200, 55);
  options.adaptive_fraction = 0.0;  // all progressive
  const auto corpus = workload::generate_corpus(options);
  const auto sessions = sessions_from_corpus(corpus);

  const auto pipeline = QoePipeline::train(*sessions_);
  const auto cm = evaluate_representation(pipeline.representation_detector(),
                                          sessions, /*adaptive_only=*/true);
  EXPECT_EQ(cm.total(), 0u);
}

}  // namespace
}  // namespace vqoe::core
