#include "vqoe/ml/random_forest.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace vqoe::ml {
namespace {

Dataset three_blobs(std::size_t per_class, std::uint64_t seed,
                    double separation = 5.0) {
  Dataset d{{"f0", "f1", "noise"}, {"a", "b", "c"}};
  std::mt19937_64 rng{seed};
  std::normal_distribution<double> n(0.0, 1.0);
  for (std::size_t i = 0; i < per_class; ++i) {
    d.add({n(rng), n(rng), n(rng)}, 0);
    d.add({n(rng) + separation, n(rng), n(rng)}, 1);
    d.add({n(rng), n(rng) + separation, n(rng)}, 2);
  }
  return d;
}

double accuracy_on(const RandomForest& f, const Dataset& d) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.rows(); ++i) {
    if (f.predict(d.row(i)) == d.label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.rows());
}

TEST(RandomForest, ValidatesInputs) {
  const Dataset empty{{"f"}, {"x"}};
  EXPECT_THROW(RandomForest::fit(empty, {}), std::invalid_argument);
  const Dataset d = three_blobs(5, 1);
  ForestParams params;
  params.num_trees = 0;
  EXPECT_THROW(RandomForest::fit(d, params), std::invalid_argument);
}

TEST(RandomForest, LearnsSeparableMulticlass) {
  const Dataset train = three_blobs(150, 2);
  const Dataset test = three_blobs(100, 3);
  ForestParams params;
  params.num_trees = 30;
  const auto forest = RandomForest::fit(train, params);
  EXPECT_EQ(forest.num_trees(), 30u);
  EXPECT_GT(accuracy_on(forest, test), 0.97);
}

TEST(RandomForest, ProbaNormalized) {
  const Dataset d = three_blobs(50, 4);
  const auto forest = RandomForest::fit(d, {});
  const auto proba = forest.predict_proba(d.row(0));
  ASSERT_EQ(proba.size(), 3u);
  double sum = 0.0;
  for (double p : proba) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForest, DeterministicForFixedSeed) {
  const Dataset d = three_blobs(60, 5);
  ForestParams params;
  params.seed = 77;
  params.num_trees = 10;
  const auto f1 = RandomForest::fit(d, params);
  const auto f2 = RandomForest::fit(d, params);
  for (std::size_t i = 0; i < d.rows(); i += 3) {
    EXPECT_EQ(f1.predict(d.row(i)), f2.predict(d.row(i)));
  }
}

TEST(RandomForest, OobAccuracyTracksTestAccuracy) {
  const Dataset train = three_blobs(120, 6, /*separation=*/2.5);
  const Dataset test = three_blobs(120, 7, /*separation=*/2.5);
  ForestParams params;
  params.num_trees = 40;
  params.compute_oob = true;
  const auto forest = RandomForest::fit(train, params);
  ASSERT_TRUE(forest.oob_accuracy().has_value());
  const double oob = *forest.oob_accuracy();
  const double test_acc = accuracy_on(forest, test);
  EXPECT_NEAR(oob, test_acc, 0.08);
}

TEST(RandomForest, NoOobUnlessRequested) {
  const Dataset d = three_blobs(20, 8);
  const auto forest = RandomForest::fit(d, {});
  EXPECT_FALSE(forest.oob_accuracy().has_value());
}

TEST(RandomForest, ImportanceSumsToOneAndRanksSignal) {
  const Dataset d = three_blobs(200, 9);
  ForestParams params;
  params.num_trees = 25;
  const auto forest = RandomForest::fit(d, params);
  const auto imp = forest.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  double sum = 0.0;
  for (double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The pure-noise column must matter least.
  EXPECT_LT(imp[2], imp[0]);
  EXPECT_LT(imp[2], imp[1]);
}

TEST(RandomForest, UntrainedForestRefusesEveryPrediction) {
  // std::invalid_argument derives from std::logic_error, so the message is
  // what tells "not trained" apart from a span or layout mismatch.
  const RandomForest forest;
  const Dataset d = three_blobs(5, 13);
  std::vector<double> out(3);
  const std::vector<std::function<void()>> calls = {
      [&] { (void)forest.predict(d.row(0)); },
      [&] { (void)forest.predict_proba(d.row(0)); },
      [&] { forest.predict_proba_into(d.row(0), out); },
      [&] { (void)forest.predict_all(d); },
      [&] { (void)forest.predict_proba_all(d); },
  };
  for (std::size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    std::string what;
    try {
      calls[i]();
    } catch (const std::logic_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "RandomForest: not trained");
  }
}

TEST(RandomForest, PredictAllChecksLayout) {
  const Dataset d = three_blobs(20, 10);
  const auto forest = RandomForest::fit(d, {});
  const auto preds = forest.predict_all(d);
  EXPECT_EQ(preds.size(), d.rows());

  Dataset renamed{{"x0", "x1", "x2"}, {"a", "b", "c"}};
  renamed.add({0, 0, 0}, 0);
  EXPECT_THROW(forest.predict_all(renamed), std::invalid_argument);
}

// Property: more trees never dramatically hurt on held-out data.
class ForestSize : public ::testing::TestWithParam<int> {};

TEST_P(ForestSize, ReasonableAccuracyAcrossSizes) {
  const Dataset train = three_blobs(100, 11);
  const Dataset test = three_blobs(60, 12);
  ForestParams params;
  params.num_trees = GetParam();
  const auto forest = RandomForest::fit(train, params);
  // A single bootstrap tree sees only ~63% of the rows; its held-out
  // accuracy is noticeably noisier than any ensemble's.
  const double floor = GetParam() == 1 ? 0.85 : 0.9;
  EXPECT_GT(accuracy_on(forest, test), floor) << "trees=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSize, ::testing::Values(1, 5, 15, 40, 80));

}  // namespace
}  // namespace vqoe::ml
