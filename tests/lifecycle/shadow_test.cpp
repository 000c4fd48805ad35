// ShadowScorer invariants: a shadow identical to the active model never
// diverges, divergence counts argmax disagreements only, and the emitted
// verdicts are untouched (the scorer has no output path at all — these
// tests pin the counter semantics the engine exposes).
#include "vqoe/lifecycle/shadow.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "vqoe/core/pipeline.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::lifecycle {
namespace {

using core::QoePipeline;

/// Active-model capture: assess + the feature vectors behind it, the way
/// OnlineMonitor hands them to the observer.
core::QoeReport capture(const QoePipeline& model,
                        std::span<const core::ChunkObs> chunks,
                        QoePipeline::SessionFeatures& features) {
  core::DetectorScratch scratch;
  const core::QoeReport report = model.assess(chunks, scratch);
  features = scratch.features;
  return report;
}

class ShadowScorerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto train = [](std::uint64_t seed) {
      auto options = workload::has_corpus_options(250, seed);
      options.keep_session_results = false;
      return std::make_shared<const QoePipeline>(QoePipeline::train(
          core::sessions_from_corpus(workload::generate_corpus(options))));
    };
    model_a_ = train(31);
    model_b_ = train(77);

    auto live_options = workload::encrypted_corpus_options(60, 13);
    live_options.keep_session_results = false;
    sessions_ = std::make_unique<std::vector<core::SessionRecord>>(
        core::sessions_from_corpus(workload::generate_corpus(live_options)));
  }
  static void TearDownTestSuite() {
    model_a_.reset();
    model_b_.reset();
    sessions_.reset();
  }

  static std::shared_ptr<const QoePipeline> model_a_;
  static std::shared_ptr<const QoePipeline> model_b_;
  static std::unique_ptr<std::vector<core::SessionRecord>> sessions_;
};

std::shared_ptr<const QoePipeline> ShadowScorerTest::model_a_;
std::shared_ptr<const QoePipeline> ShadowScorerTest::model_b_;
std::unique_ptr<std::vector<core::SessionRecord>> ShadowScorerTest::sessions_;

TEST_F(ShadowScorerTest, DefaultConstructedIsDisabled) {
  ShadowScorer scorer;
  EXPECT_FALSE(scorer.enabled());
  ASSERT_FALSE(sessions_->empty());
  scorer.score_session((*sessions_)[0].chunks, QoePipeline::SessionFeatures{},
                       model_a_->assess((*sessions_)[0].chunks));
  EXPECT_EQ(scorer.stats().scored(), 0u);
}

TEST_F(ShadowScorerTest, IdenticalShadowNeverDiverges) {
  ShadowScorer scorer{model_a_};
  ASSERT_TRUE(scorer.enabled());
  QoePipeline::SessionFeatures features;
  for (const auto& session : *sessions_) {
    const core::QoeReport a = capture(*model_a_, session.chunks, features);
    scorer.score_session(session.chunks, features, a);
  }
  const ShadowStats& stats = scorer.stats();
  EXPECT_EQ(stats.sessions, sessions_->size());
  EXPECT_EQ(stats.disagreements, 0u);
  EXPECT_DOUBLE_EQ(stats.divergence(), 0.0);
  EXPECT_DOUBLE_EQ(stats.agreement(), 1.0);
}

TEST_F(ShadowScorerTest, DivergenceCountsExactLabelDisagreements) {
  ShadowScorer scorer{model_b_};
  std::uint64_t expected_any = 0;
  std::uint64_t expected_stall = 0;
  QoePipeline::SessionFeatures features;
  for (const auto& session : *sessions_) {
    const core::QoeReport a = capture(*model_a_, session.chunks, features);
    const core::QoeReport b = model_b_->assess(session.chunks);
    if (a.stall != b.stall) ++expected_stall;
    if (a.stall != b.stall || a.representation != b.representation ||
        a.quality_switches != b.quality_switches) {
      ++expected_any;
    }
    scorer.score_session(session.chunks, features, a);
  }
  const ShadowStats& stats = scorer.stats();
  EXPECT_EQ(stats.sessions, sessions_->size());
  EXPECT_EQ(stats.stall_disagreements, expected_stall);
  EXPECT_EQ(stats.disagreements, expected_any);
  EXPECT_GE(stats.divergence(), 0.0);
  EXPECT_LE(stats.divergence(), 1.0);
  EXPECT_DOUBLE_EQ(stats.agreement(), 1.0 - stats.divergence());
}

TEST_F(ShadowScorerTest, CapturedFeaturesMatchRebuildFromChunks) {
  // The projection-over-captured-vectors fast path and the
  // rebuild-from-chunks fallback must count the exact same disagreements:
  // feature construction is model-independent.
  ShadowScorer fast{model_b_};
  ShadowScorer slow{model_b_};
  QoePipeline::SessionFeatures features;
  for (const auto& session : *sessions_) {
    const core::QoeReport a = capture(*model_a_, session.chunks, features);
    fast.score_session(session.chunks, features, a);
    slow.score_session(session.chunks, QoePipeline::SessionFeatures{}, a);
  }
  EXPECT_EQ(fast.stats().disagreements, slow.stats().disagreements);
  EXPECT_EQ(fast.stats().stall_disagreements, slow.stats().stall_disagreements);
  EXPECT_EQ(fast.stats().repr_disagreements, slow.stats().repr_disagreements);
  EXPECT_EQ(fast.stats().switch_disagreements,
            slow.stats().switch_disagreements);
}

TEST_F(ShadowScorerTest, MisSizedCaptureIsRefusedNotRead) {
  // score_session is public: a caller's capture that is not a full 70-wide
  // stall vector must be refused, not indexed up to column 69.
  ShadowScorer scorer{model_b_};
  const auto& chunks = (*sessions_)[0].chunks;
  const core::QoeReport active = model_a_->assess(chunks);
  QoePipeline::SessionFeatures features;
  features.stall.assign(5, 0.0);
  EXPECT_THROW(scorer.score_session(chunks, features, active),
               std::invalid_argument);
  // An empty vector still means "not captured": rebuilt from the chunks.
  features.stall.clear();
  EXPECT_NO_THROW(scorer.score_session(chunks, features, active));
}

TEST_F(ShadowScorerTest, WindowScoringUsesVerdictLabels) {
  ShadowScorer scorer{model_a_};
  std::uint64_t scored = 0;
  for (const auto& session : *sessions_) {
    const core::QoeReport report = model_a_->assess(session.chunks);
    window::WindowVerdict verdict;
    verdict.stall = static_cast<std::uint8_t>(report.stall);
    verdict.representation = static_cast<std::uint8_t>(report.representation);
    verdict.quality_switches = report.quality_switches;
    // Empty capture: exercises the rebuild-from-chunks fallback path.
    scorer.score_window(session.chunks, QoePipeline::SessionFeatures{}, verdict);
    ++scored;
  }
  const ShadowStats& stats = scorer.stats();
  EXPECT_EQ(stats.windows, scored);
  EXPECT_EQ(stats.sessions, 0u);
  // Identical model scoring identical spans: the reconstructed labels
  // cannot disagree with the shadow's own argmax.
  EXPECT_EQ(stats.disagreements, 0u);
}

TEST_F(ShadowScorerTest, ResetStatsZeroes) {
  ShadowScorer scorer{model_b_};
  for (const auto& session : *sessions_) {
    scorer.score_session(session.chunks, QoePipeline::SessionFeatures{},
                         model_a_->assess(session.chunks));
  }
  ASSERT_GT(scorer.stats().scored(), 0u);
  scorer.reset_stats();
  EXPECT_EQ(scorer.stats().scored(), 0u);
  EXPECT_EQ(scorer.stats().disagreements, 0u);
}

TEST_F(ShadowScorerTest, ModelAccessorReturnsTheShadow) {
  ShadowScorer scorer{model_b_};
  EXPECT_EQ(scorer.model().get(), model_b_.get());
}

}  // namespace
}  // namespace vqoe::lifecycle
