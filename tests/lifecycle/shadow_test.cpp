// ShadowScorer invariants: a shadow identical to the active model never
// diverges, divergence counts argmax disagreements only, and the emitted
// verdicts are untouched (the scorer has no output path at all — these
// tests pin the counter semantics the engine exposes).
#include "vqoe/lifecycle/shadow.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/core/pipeline.h"
#include "vqoe/lifecycle/shard_lifecycle.h"
#include "vqoe/trace/weblog.h"
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
    auto live = workload::generate_corpus(live_options);
    sessions_ = std::make_unique<std::vector<core::SessionRecord>>(
        core::sessions_from_corpus(live));
    records_ = std::make_unique<std::vector<trace::WeblogRecord>>(
        trace::encrypt_view(std::move(live.weblogs)));
  }
  static void TearDownTestSuite() {
    model_a_.reset();
    model_b_.reset();
    sessions_.reset();
    records_.reset();
  }

  static std::shared_ptr<const QoePipeline> model_a_;
  static std::shared_ptr<const QoePipeline> model_b_;
  static std::unique_ptr<std::vector<core::SessionRecord>> sessions_;
  /// The same live corpus as an encrypted record stream.
  static std::unique_ptr<std::vector<trace::WeblogRecord>> records_;
};

std::shared_ptr<const QoePipeline> ShadowScorerTest::model_a_;
std::shared_ptr<const QoePipeline> ShadowScorerTest::model_b_;
std::unique_ptr<std::vector<core::SessionRecord>> ShadowScorerTest::sessions_;
std::unique_ptr<std::vector<trace::WeblogRecord>> ShadowScorerTest::records_;

/// Forwards every call to a ShardLifecycle and keeps each capture the
/// monitor hands over, with the active labels.
class Recorder final : public core::ScoreObserver {
 public:
  struct Capture {
    bool window = false;
    std::vector<core::ChunkObs> chunks;
    QoePipeline::SessionFeatures features;
    core::QoeReport active;
  };

  explicit Recorder(ShardLifecycle& inner) : inner_(inner) {}

  const QoePipeline* shadow_pipeline() const override {
    return inner_.shadow_pipeline();
  }
  void on_session(std::string_view subscriber,
                  std::span<const core::ChunkObs> chunks,
                  const QoePipeline::SessionFeatures& features,
                  const core::QoeReport& report) override {
    inner_.on_session(subscriber, chunks, features, report);
    captures.push_back({false, {chunks.begin(), chunks.end()}, features, report});
  }
  void on_window(std::string_view subscriber,
                 std::span<const core::ChunkObs> chunks,
                 const QoePipeline::SessionFeatures& features,
                 const window::WindowVerdict& verdict) override {
    inner_.on_window(subscriber, chunks, features, verdict);
    core::QoeReport active;
    active.stall = static_cast<core::StallLabel>(verdict.stall);
    active.representation = static_cast<core::ReprLabel>(verdict.representation);
    active.quality_switches = verdict.quality_switches;
    captures.push_back({true, {chunks.begin(), chunks.end()}, features, active});
  }
  void on_model_swap(std::uint64_t generation) override {
    inner_.on_model_swap(generation);
  }

  std::vector<Capture> captures;

 private:
  ShardLifecycle& inner_;
};

void expect_same_scores(const QoePipeline::ScoredReport& a,
                        const QoePipeline::ScoredReport& b) {
  EXPECT_EQ(a.report.stall, b.report.stall);
  EXPECT_EQ(a.report.representation, b.report.representation);
  EXPECT_EQ(a.report.quality_switches, b.report.quality_switches);
  EXPECT_EQ(a.report.switch_score, b.report.switch_score);
  EXPECT_EQ(a.stall_confidence, b.stall_confidence);
  EXPECT_EQ(a.repr_confidence, b.repr_confidence);
}

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

TEST_F(ShadowScorerTest, ModelsReadDifferentCells) {
  // A capture built for model A alone cannot serve model B, so the
  // fallback tests here really rebuild.
  EXPECT_FALSE(model_a_->feature_plan().covers(model_b_->feature_plan()));
  EXPECT_FALSE(model_b_->feature_plan().covers(model_a_->feature_plan()));
}

TEST_F(ShadowScorerTest, MonitorCaptureCoversTheNamedShadow) {
  // A ShardLifecycle names its shadow, so the monitor builds B's cells into
  // every capture alongside A's: B scores each span without a rebuild.
  ShardLifecycleConfig config;
  config.shadow = model_b_;
  ShardLifecycle lifecycle{config, 1};
  Recorder recorder{lifecycle};
  core::OnlineMonitorConfig monitor_config;
  monitor_config.window.length_s = 10.0;
  monitor_config.observer = &recorder;
  core::OnlineMonitor monitor{model_a_, monitor_config};
  for (const trace::WeblogRecord& record : *records_) {
    (void)monitor.ingest(record);
  }
  (void)monitor.flush();
  (void)monitor.take_verdicts();
  ASSERT_GT(recorder.captures.size(), 0u);

  const core::FeaturePlan& b = model_b_->feature_plan();
  ShadowScorer rebuilt{model_b_};
  for (const Recorder::Capture& c : recorder.captures) {
    EXPECT_TRUE((b.stall() & ~c.features.stall_mask).none());
    EXPECT_TRUE((b.repr() & ~c.features.repr_mask).none());
    core::DetectorScratch s;
    const auto fast = model_b_->assess_scored(c.chunks, s, &c.features);
    EXPECT_TRUE(s.features.stall.empty());
    EXPECT_TRUE(s.features.repr.empty());
    core::DetectorScratch fresh;
    expect_same_scores(fast, model_b_->assess_scored(c.chunks, fresh));
    if (c.window) {
      window::WindowVerdict verdict;
      verdict.stall = static_cast<std::uint8_t>(c.active.stall);
      verdict.representation =
          static_cast<std::uint8_t>(c.active.representation);
      verdict.quality_switches = c.active.quality_switches;
      rebuilt.score_window(c.chunks, {}, verdict);
    } else {
      rebuilt.score_session(c.chunks, {}, c.active);
    }
  }
  // The in-stream counters equal a rebuild-from-chunks replay.
  const ShadowStats& live = lifecycle.shadow().stats();
  EXPECT_EQ(live.sessions, rebuilt.stats().sessions);
  EXPECT_EQ(live.windows, rebuilt.stats().windows);
  EXPECT_EQ(live.stall_disagreements, rebuilt.stats().stall_disagreements);
  EXPECT_EQ(live.repr_disagreements, rebuilt.stats().repr_disagreements);
  EXPECT_EQ(live.switch_disagreements, rebuilt.stats().switch_disagreements);
  EXPECT_EQ(live.disagreements, rebuilt.stats().disagreements);
}

TEST_F(ShadowScorerTest, FullWidthCaptureWithoutMaskIsRebuiltNotRead) {
  for (const auto& session : *sessions_) {
    QoePipeline::SessionFeatures unmasked;
    unmasked.stall.assign(core::kStallWidth, 1e300);
    unmasked.repr.assign(core::kReprWidth, -1e300);
    core::DetectorScratch s;
    const auto got = model_b_->assess_scored(session.chunks, s, &unmasked);
    EXPECT_EQ(s.features.stall_mask, model_b_->feature_plan().stall());
    EXPECT_EQ(s.features.repr_mask, model_b_->feature_plan().repr());
    core::DetectorScratch fresh;
    expect_same_scores(got, model_b_->assess_scored(session.chunks, fresh));
  }
}

TEST_F(ShadowScorerTest, PlanMissingASelectedCellThrows) {
  const auto& chunks = (*sessions_)[0].chunks;
  core::DetectorScratch s;
  EXPECT_THROW((void)model_b_->assess_scored(chunks, s, nullptr,
                                             &model_a_->feature_plan()),
               std::logic_error);
  const core::FeaturePlan empty;
  EXPECT_THROW((void)model_b_->assess_scored(chunks, s, nullptr, &empty),
               std::logic_error);
  core::FeaturePlan both = model_a_->feature_plan();
  both |= model_b_->feature_plan();
  core::DetectorScratch fresh;
  expect_same_scores(model_b_->assess_scored(chunks, s, nullptr, &both),
                     model_b_->assess_scored(chunks, fresh));
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
