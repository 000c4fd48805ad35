// CompactForest equivalence and validation suite (`compact` ctest label).
//
// The flattened representation must be a pure re-encoding: same class for
// every row as an independent walk over the forest's training trees,
// probabilities equal within float-storage tolerance, batch kernel
// bit-identical to single-row calls.
// compile() must also reject malformed trees (cycles, shared subtrees,
// out-of-range indices) instead of mirroring them into the flat arrays.
#include "vqoe/ml/compact_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "vqoe/ml/random_forest.h"
#include "vqoe/par/parallel.h"

namespace vqoe::ml {
namespace {

/// Gaussian blobs with `num_classes` classes, two informative columns and
/// one noise column — separable enough that vote totals are not knife-edge
/// ties, varied enough to exercise every split feature.
Dataset blobs(std::size_t per_class, std::size_t num_classes,
              std::uint64_t seed, double separation = 3.0) {
  std::vector<std::string> class_names;
  for (std::size_t c = 0; c < num_classes; ++c) {
    class_names.push_back("c" + std::to_string(c));
  }
  Dataset d{{"f0", "f1", "noise"}, class_names};
  std::mt19937_64 rng{seed};
  std::normal_distribution<double> n(0.0, 1.0);
  for (std::size_t i = 0; i < per_class; ++i) {
    for (std::size_t c = 0; c < num_classes; ++c) {
      const double angle = 2.0 * 3.14159265358979 * static_cast<double>(c) /
                           static_cast<double>(num_classes);
      d.add({n(rng) + separation * std::cos(angle),
             n(rng) + separation * std::sin(angle), n(rng)},
            static_cast<int>(c));
    }
  }
  return d;
}

/// The reference walk: every training tree's leaf distribution for `row`,
/// summed in tree order and normalized by the total — double precision
/// throughout and independent of the flattened layout under test.
std::vector<double> reference_proba(const RandomForest& forest,
                                    std::span<const double> row) {
  std::vector<double> votes(forest.num_classes(), 0.0);
  for (const DecisionTree& tree : forest.trees()) {
    const auto proba = tree.predict_proba(row);
    for (std::size_t c = 0; c < votes.size(); ++c) votes[c] += proba[c];
  }
  const double total = std::accumulate(votes.begin(), votes.end(), 0.0);
  if (total > 0.0) {
    for (double& v : votes) v /= total;
  }
  return votes;
}

void expect_equivalent(const RandomForest& forest, const Dataset& data) {
  const CompactForest* compact = forest.compact();
  ASSERT_NE(compact, nullptr);
  ASSERT_EQ(compact->num_trees(), forest.num_trees());
  ASSERT_EQ(compact->num_classes(), forest.num_classes());

  std::vector<double> proba_compact(forest.num_classes());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    compact->predict_proba_into(data.row(i), proba_compact);
    const auto proba_ref = reference_proba(forest, data.row(i));
    for (std::size_t c = 0; c < proba_ref.size(); ++c) {
      EXPECT_NEAR(proba_compact[c], proba_ref[c], 1e-6)
          << "row " << i << " class " << c;
    }
    // Leaf distributions are stored as float, so a vote total tied more
    // finely than float resolution may argmax to a different (equally
    // supported) class. Exact class agreement is required whenever the
    // reference top-2 margin is above that resolution; on genuine ties
    // the compact class must still be one of the tied leaders.
    const int cls_compact = compact->predict(data.row(i));
    const int cls_ref = static_cast<int>(
        std::max_element(proba_ref.begin(), proba_ref.end()) -
        proba_ref.begin());
    auto sorted = proba_ref;
    std::sort(sorted.begin(), sorted.end(), std::greater<>{});
    if (sorted[0] - sorted[1] > 1e-5) {
      EXPECT_EQ(cls_compact, cls_ref) << "row " << i;
    } else {
      EXPECT_NEAR(proba_ref[static_cast<std::size_t>(cls_compact)],
                  sorted[0], 1e-5)
          << "row " << i;
    }
  }

  // The blocked batch kernel accumulates votes per row in tree order, so
  // it must agree bit-for-bit with the single-row walk.
  const auto batch = compact->predict_all(data);
  const auto batch_proba = compact->predict_proba_all(data);
  ASSERT_EQ(batch.size(), data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(batch[i], compact->predict(data.row(i))) << "row " << i;
    compact->predict_proba_into(data.row(i), proba_compact);
    for (std::size_t c = 0; c < proba_compact.size(); ++c) {
      EXPECT_EQ(batch_proba[i * proba_compact.size() + c], proba_compact[c])
          << "row " << i << " class " << c;
    }
  }
}

TEST(CompactForest, EquivalentAcrossForestShapes) {
  struct Shape {
    std::size_t classes;
    int depth;
    int mtry;
    int trees;
  };
  const Shape shapes[] = {
      {2, 24, 0, 15}, {3, 3, 2, 40}, {3, 8, 1, 1}, {5, 24, 2, 25},
  };
  std::uint64_t seed = 100;
  for (const Shape& s : shapes) {
    const Dataset train = blobs(60, s.classes, seed++);
    const Dataset test = blobs(40, s.classes, seed++);
    ForestParams params;
    params.num_trees = s.trees;
    params.tree.max_depth = s.depth;
    params.tree.mtry = s.mtry;
    params.seed = seed;
    const auto forest = RandomForest::fit(train, params);
    SCOPED_TRACE("classes=" + std::to_string(s.classes) +
                 " depth=" + std::to_string(s.depth) +
                 " mtry=" + std::to_string(s.mtry) +
                 " trees=" + std::to_string(s.trees));
    expect_equivalent(forest, train);
    expect_equivalent(forest, test);
  }
}

TEST(CompactForest, EquivalentAfterSaveLoadRoundTrip) {
  const Dataset train = blobs(80, 3, 7);
  ForestParams params;
  params.num_trees = 20;
  params.seed = 11;
  const auto forest = RandomForest::fit(train, params);

  std::stringstream ss;
  forest.save(ss);
  const auto loaded = RandomForest::load(ss);
  ASSERT_NE(loaded.compact(), nullptr);

  // save() writes with enough precision that the round trip is exact: the
  // reloaded compact forest must match the original one bit-for-bit.
  const Dataset test = blobs(50, 3, 8);
  std::vector<double> pa(3), pb(3);
  for (std::size_t i = 0; i < test.rows(); ++i) {
    EXPECT_EQ(loaded.predict(test.row(i)), forest.predict(test.row(i)));
    loaded.compact()->predict_proba_into(test.row(i), pa);
    forest.compact()->predict_proba_into(test.row(i), pb);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(pa[c], pb[c]);
  }
  expect_equivalent(loaded, test);
}

TEST(CompactForest, BatchKernelDeterministicAcrossThreadCounts) {
  const Dataset train = blobs(80, 3, 21);
  const Dataset test = blobs(120, 3, 22);
  ForestParams params;
  params.num_trees = 30;
  const auto forest = RandomForest::fit(train, params);

  par::set_threads(1);
  const auto preds1 = forest.compact()->predict_all(test);
  const auto proba1 = forest.compact()->predict_proba_all(test);
  for (const int threads : {2, 4, 8}) {
    par::set_threads(threads);
    EXPECT_EQ(forest.compact()->predict_all(test), preds1);
    EXPECT_EQ(forest.compact()->predict_proba_all(test), proba1);
  }
  par::set_threads(0);
}

TEST(CompactForest, ProbaIntoReturnsThePredictLabel) {
  // One walk serves both the label and its confidence: the class
  // predict_proba_into returns is predict()'s, taken from the summed votes
  // before they are normalised.
  const Dataset train = blobs(60, 3, 47, 1.0);
  const Dataset test = blobs(40, 3, 48, 1.0);
  ForestParams params;
  params.num_trees = 25;
  const auto forest = RandomForest::fit(train, params);
  std::vector<double> proba(forest.num_classes());
  for (std::size_t i = 0; i < test.rows(); ++i) {
    EXPECT_EQ(forest.predict_proba_into(test.row(i), proba),
              forest.predict(test.row(i)))
        << "row " << i;
    EXPECT_EQ(proba, forest.predict_proba(test.row(i))) << "row " << i;
  }
}

TEST(CompactForest, OneAllocationLayout) {
  const Dataset train = blobs(50, 3, 31);
  ForestParams params;
  params.num_trees = 10;
  const auto forest = RandomForest::fit(train, params);
  const CompactForest* compact = forest.compact();
  ASSERT_NE(compact, nullptr);

  // threshold + feature + right per node, one float per leaf-class proba,
  // one root per tree — all 4-byte lanes of the single arena.
  std::size_t leaves = 0;
  for (const auto& tree : forest.trees()) leaves += tree.leaf_count();
  const std::size_t expected =
      4 * (3 * compact->node_count() + leaves * compact->num_classes() +
           compact->num_trees());
  EXPECT_EQ(compact->bytes(), expected);
  EXPECT_EQ(compact->num_features(), 3u);
}

TEST(CompactForest, RejectsWidthMismatchAndBadSpans) {
  const Dataset train = blobs(30, 2, 41);
  const auto forest = RandomForest::fit(train, {});
  const CompactForest* compact = forest.compact();
  ASSERT_NE(compact, nullptr);

  Dataset wide{{"a", "b", "c", "d"}, {"c0", "c1"}};
  wide.add({0, 0, 0, 0}, 0);
  EXPECT_THROW(compact->predict_all(wide), std::invalid_argument);

  std::vector<double> wrong(5);
  EXPECT_THROW(compact->predict_proba_into(train.row(0), wrong),
               std::invalid_argument);
  EXPECT_THROW(forest.predict_proba_into(train.row(0), wrong),
               std::invalid_argument);
  EXPECT_THROW(CompactForest::compile(RandomForest{}), std::invalid_argument);
}

// --- malformed-input validation ------------------------------------------
//
// DecisionTree::load bounds-checks child and proba indices, but cannot see
// graph shape (cycles, shared subtrees) or the forest's column count.
// Compilation runs as the RandomForest::load epilogue, so a malformed file
// must fail the load instead of producing a forest whose traversal hangs.

std::string forest_text(const std::string& tree_body) {
  return "vqoe-forest v1\n"
         "classes 2\n"
         "features 2\nf0\nf1\n"
         "importance 0 0\n"
         "oob -1\n"
         "trees 1\n" +
         tree_body;
}

RandomForest load_forest(const std::string& text) {
  std::istringstream is{text};
  return RandomForest::load(is);
}

TEST(CompactForest, CompileRejectsCyclicTree) {
  // Node 1 routes back to the root: in-bounds everywhere, but any walk
  // reaching it never terminates.
  const auto text = forest_text(
      "tree 3 2 2 2\n"
      "0 0.5 1 2 -1\n"
      "0 0.25 0 2 -1\n"
      "-1 0 -1 -1 0\n"
      "0.5 0.5\n"
      "0 0\n");
  EXPECT_THROW(load_forest(text), std::runtime_error);
}

TEST(CompactForest, CompileRejectsSharedSubtree) {
  // Both children of the root are node 2 — a DAG, not a tree.
  const auto text = forest_text(
      "tree 3 2 2 2\n"
      "0 0.5 2 2 -1\n"
      "-1 0 -1 -1 0\n"
      "-1 0 -1 -1 0\n"
      "0.5 0.5\n"
      "0 0\n");
  EXPECT_THROW(load_forest(text), std::runtime_error);
}

TEST(CompactForest, CompileRejectsFeatureOutOfRange) {
  // Split on column 7 of a 2-column forest; the per-tree load cannot know
  // the column count, so this is compile's check.
  const auto text = forest_text(
      "tree 3 4 2 2\n"
      "7 0.5 1 2 -1\n"
      "-1 0 -1 -1 0\n"
      "-1 0 -1 -1 2\n"
      "1 0 0 1\n"
      "0 0\n");
  EXPECT_THROW(load_forest(text), std::runtime_error);
}

TEST(CompactForest, WellFormedFileStillLoads) {
  const auto text = forest_text(
      "tree 3 4 2 2\n"
      "1 0.5 1 2 -1\n"
      "-1 0 -1 -1 0\n"
      "-1 0 -1 -1 2\n"
      "1 0 0 1\n"
      "0 0\n");
  const auto forest = load_forest(text);
  ASSERT_NE(forest.compact(), nullptr);
  const std::vector<double> low{0.0, 0.0}, high{0.0, 1.0};
  EXPECT_EQ(forest.predict(low), 0);
  EXPECT_EQ(forest.predict(high), 1);
}

}  // namespace
}  // namespace vqoe::ml
