#include "vqoe/core/detectors.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>

#include "vqoe/core/pipeline.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::core {
namespace {

// Shared small corpus for detector tests (generation is fast but not free).
class DetectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto options = workload::cleartext_corpus_options(900, 21);
    corpus_ = std::make_unique<workload::Corpus>(workload::generate_corpus(options));
    sessions_ = std::make_unique<std::vector<SessionRecord>>(
        sessions_from_corpus(*corpus_));

    auto has_options = workload::has_corpus_options(700, 22);
    has_corpus_ =
        std::make_unique<workload::Corpus>(workload::generate_corpus(has_options));
    has_sessions_ = std::make_unique<std::vector<SessionRecord>>(
        sessions_from_corpus(*has_corpus_));
  }
  static void TearDownTestSuite() {
    corpus_.reset();
    sessions_.reset();
    has_corpus_.reset();
    has_sessions_.reset();
  }

  static std::unique_ptr<workload::Corpus> corpus_;
  static std::unique_ptr<std::vector<SessionRecord>> sessions_;
  static std::unique_ptr<workload::Corpus> has_corpus_;
  static std::unique_ptr<std::vector<SessionRecord>> has_sessions_;
};

std::unique_ptr<workload::Corpus> DetectorTest::corpus_;
std::unique_ptr<std::vector<SessionRecord>> DetectorTest::sessions_;
std::unique_ptr<workload::Corpus> DetectorTest::has_corpus_;
std::unique_ptr<std::vector<SessionRecord>> DetectorTest::has_sessions_;

std::pair<std::vector<std::vector<ChunkObs>>, std::vector<StallLabel>>
stall_training(const std::vector<SessionRecord>& sessions) {
  std::vector<std::vector<ChunkObs>> chunks;
  std::vector<StallLabel> labels;
  for (const auto& s : sessions) {
    chunks.push_back(s.chunks);
    labels.push_back(stall_label(s.truth));
  }
  return {chunks, labels};
}

TEST_F(DetectorTest, BuildStallDatasetShape) {
  const auto [chunks, labels] = stall_training(*sessions_);
  const auto data = build_stall_dataset(chunks, labels);
  EXPECT_EQ(data.rows(), sessions_->size());
  EXPECT_EQ(data.cols(), 70u);
  EXPECT_EQ(data.num_classes(), 3u);
}

TEST_F(DetectorTest, BuildDatasetRejectsMismatch) {
  const auto [chunks, labels] = stall_training(*sessions_);
  std::vector<StallLabel> short_labels(labels.begin(), labels.end() - 1);
  EXPECT_THROW(build_stall_dataset(chunks, short_labels), std::invalid_argument);
}

std::pair<std::vector<std::vector<ChunkObs>>, std::vector<ReprLabel>>
repr_training(const std::vector<SessionRecord>& sessions) {
  std::vector<std::vector<ChunkObs>> chunks;
  std::vector<ReprLabel> labels;
  for (const auto& s : sessions) {
    chunks.push_back(s.chunks);
    labels.push_back(repr_label(s.truth));
  }
  return {chunks, labels};
}

TEST_F(DetectorTest, ClassifyFeaturesRejectsWrongWidth) {
  // The projection reads selected columns by index into the full vector;
  // a vector of any other width must be refused, never read past its end.
  ForestDetectorConfig fast;
  fast.forest.num_trees = 4;
  fast.feature_selection = false;
  const auto [stall_chunks, stall_labels] = stall_training(*sessions_);
  const auto stall = StallDetector::train(
      build_stall_dataset(stall_chunks, stall_labels), fast);
  const auto [repr_chunks, repr_labels] = repr_training(*has_sessions_);
  const auto repr = RepresentationDetector::train(
      build_representation_dataset(repr_chunks, repr_labels), fast);

  DetectorScratch scratch;
  const auto check = [&scratch](const auto& detector, std::size_t space) {
    for (const std::size_t width : {std::size_t{5}, space - 1, space + 1}) {
      const std::vector<double> features(width, 1.0);
      EXPECT_THROW((void)detector.classify_features(features, scratch),
                   std::invalid_argument)
          << space << "-wide space, " << width << " columns";
    }
    const std::vector<double> exact(space, 1.0);
    EXPECT_NO_THROW((void)detector.classify_features(exact, scratch));
  };
  check(stall, stall_feature_names().size());
  check(repr, representation_feature_names().size());
}

TEST_F(DetectorTest, StallDetectorBeatsMajorityBaseline) {
  const auto [chunks, labels] = stall_training(*sessions_);
  const auto data = build_stall_dataset(chunks, labels);
  const auto detector = StallDetector::train(data);
  ASSERT_TRUE(detector.trained());
  EXPECT_FALSE(detector.selected_features().empty());
  EXPECT_LT(detector.selected_features().size(), 70u);

  const auto cm = evaluate_stall(detector, *sessions_);
  // Balanced training trades a little headline accuracy for minority-class
  // recall; the value of the detector over a majority-vote baseline is that
  // it actually finds the stalled sessions (where the baseline scores 0).
  EXPECT_GT(cm.accuracy(), 0.75);
  EXPECT_GT(cm.tp_rate(static_cast<int>(StallLabel::severe_stalls)), 0.5);
  EXPECT_GT(cm.tp_rate(static_cast<int>(StallLabel::mild_stalls)), 0.4);
}

TEST_F(DetectorTest, FixedFeaturesSkipSelection) {
  const auto [chunks, labels] = stall_training(*sessions_);
  const auto data = build_stall_dataset(chunks, labels);
  ForestDetectorConfig config;
  config.fixed_features = {"chunk_size:min", "chunk_size:std", "bdp:mean",
                           "retrans:max"};
  const auto detector = StallDetector::train(data, config);
  EXPECT_EQ(detector.selected_features(), config.fixed_features);
  // Must classify without throwing.
  (void)detector.classify(sessions_->front().chunks);
}

TEST_F(DetectorTest, UnknownFixedFeatureThrows) {
  const auto [chunks, labels] = stall_training(*sessions_);
  const auto data = build_stall_dataset(chunks, labels);
  ForestDetectorConfig config;
  config.fixed_features = {"not_a_feature:min"};
  EXPECT_THROW(StallDetector::train(data, config), std::out_of_range);
}

TEST_F(DetectorTest, ClassifyFeaturesMatchesClassify) {
  const auto [chunks, labels] = stall_training(*sessions_);
  const auto data = build_stall_dataset(chunks, labels);
  const auto detector = StallDetector::train(data);
  DetectorScratch scratch;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& session = (*sessions_)[i * 7 % sessions_->size()];
    EXPECT_EQ(detector.classify(session.chunks),
              detector.classify_features(stall_features(session.chunks),
                                         scratch));
  }
}

TEST_F(DetectorTest, UntrainedDetectorThrows) {
  const StallDetector detector;
  EXPECT_THROW((void)detector.classify(sessions_->front().chunks),
               std::logic_error);
  const RepresentationDetector repr;
  EXPECT_THROW((void)repr.classify(sessions_->front().chunks), std::logic_error);
}

TEST_F(DetectorTest, RepresentationDetectorLearns) {
  std::vector<std::vector<ChunkObs>> chunks;
  std::vector<ReprLabel> labels;
  for (const auto& s : *has_sessions_) {
    chunks.push_back(s.chunks);
    labels.push_back(repr_label(s.truth));
  }
  const auto data = build_representation_dataset(chunks, labels);
  EXPECT_EQ(data.cols(), 210u);
  const auto detector = RepresentationDetector::train(data);
  const auto cm = evaluate_representation(detector, *has_sessions_);
  EXPECT_GT(cm.accuracy(), 0.7);
  // Chunk-size statistics must dominate the selected set (Table 5).
  std::size_t size_features = 0;
  for (const auto& name : detector.selected_features()) {
    if (name.find("size") != std::string::npos) ++size_features;
  }
  EXPECT_GT(size_features, detector.selected_features().size() / 2);
}

TEST_F(DetectorTest, SwitchDetectorSeparatesPopulations) {
  const SwitchDetector detector;
  const auto eval = evaluate_switch(detector, *has_sessions_);
  EXPECT_GT(eval.sessions_with, 20u);
  EXPECT_GT(eval.sessions_without, 20u);
  EXPECT_GT(eval.accuracy_with, 0.6);
  EXPECT_GT(eval.accuracy_without, 0.6);
}

TEST(SwitchDetector, ScoreZeroOnShortSessions) {
  const SwitchDetector detector;
  EXPECT_DOUBLE_EQ(detector.score({}), 0.0);
  std::vector<ChunkObs> two(2);
  two[0].request_time_s = 0;
  two[0].arrival_time_s = 1;
  two[1].request_time_s = 11;
  two[1].arrival_time_s = 12;
  EXPECT_DOUBLE_EQ(detector.score(two), 0.0);
  EXPECT_FALSE(detector.detect(two));
}

TEST(SwitchDetector, CalibrateThresholdSeparatesPopulations) {
  std::mt19937_64 rng{31};
  std::normal_distribution<double> low(200.0, 50.0), high(900.0, 200.0);
  std::vector<double> without, with;
  for (int i = 0; i < 300; ++i) {
    without.push_back(std::max(0.0, low(rng)));
    with.push_back(std::max(0.0, high(rng)));
  }
  const double t = SwitchDetector::calibrate_threshold(without, with);
  EXPECT_GT(t, 250.0);
  EXPECT_LT(t, 800.0);
}

TEST(SwitchDetector, ConfigurableThreshold) {
  SwitchDetector::Config config;
  config.threshold = 1.0;
  const SwitchDetector sensitive{config};
  EXPECT_DOUBLE_EQ(sensitive.config().threshold, 1.0);
}

}  // namespace
}  // namespace vqoe::core
