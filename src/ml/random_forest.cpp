#include "vqoe/ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "vqoe/ml/binning.h"
#include "vqoe/ml/compact_forest.h"
#include "vqoe/par/parallel.h"

namespace vqoe::ml {

namespace {

/// Per-worker training scratch, reused across every tree a worker fits.
struct FitScratch {
  std::vector<std::size_t> bootstrap;
  std::vector<char> in_bag;
};

}  // namespace

RandomForest RandomForest::fit(const Dataset& data, const ForestParams& params) {
  if (data.empty()) throw std::invalid_argument{"RandomForest::fit: empty dataset"};
  if (params.num_trees <= 0) {
    throw std::invalid_argument{"RandomForest::fit: num_trees must be > 0"};
  }

  RandomForest forest;
  forest.feature_names_ = data.feature_names();
  forest.num_classes_ = data.num_classes();
  forest.importance_raw_.assign(data.cols(), 0.0);

  const BinnedMatrix binned = BinnedMatrix::build(data);

  TreeParams tree_params = params.tree;
  if (tree_params.mtry <= 0) {
    tree_params.mtry = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(data.cols()))));
  }

  const std::size_t n = data.rows();
  const std::size_t ncls = forest.num_classes_;
  const auto num_trees = static_cast<std::size_t>(params.num_trees);
  forest.trees_.resize(num_trees);

  // Trees are embarrassingly parallel: tree t draws its bootstrap and its
  // per-node feature subsets from an RNG seeded by (params.seed, t), so
  // the grown forest never depends on the schedule. OOB votes are written
  // to a per-tree buffer and merged below in strict tree order, which
  // keeps the floating-point sums bit-identical for any thread count.
  std::vector<std::vector<double>> oob_per_tree;
  if (params.compute_oob) oob_per_tree.resize(num_trees);
  par::WorkerLocal<FitScratch> scratch;

  const auto fit_one = [&](std::size_t lo, std::size_t hi, std::size_t slot) {
    FitScratch& s = scratch.at(slot);
    s.bootstrap.resize(n);
    s.in_bag.resize(n);
    for (std::size_t t = lo; t < hi; ++t) {
      std::mt19937_64 rng{par::derive_seed(params.seed, t)};
      std::uniform_int_distribution<std::size_t> pick_row(0, n - 1);
      std::fill(s.in_bag.begin(), s.in_bag.end(), 0);
      for (std::size_t i = 0; i < n; ++i) {
        s.bootstrap[i] = pick_row(rng);
        s.in_bag[s.bootstrap[i]] = 1;
      }
      forest.trees_[t] = DecisionTree::fit(data, binned, s.bootstrap,
                                           tree_params, rng, ncls);
      if (params.compute_oob) {
        auto& votes = oob_per_tree[t];
        votes.assign(n * ncls, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          if (s.in_bag[i]) continue;
          const auto proba = forest.trees_[t].predict_proba(data.row(i));
          for (std::size_t c = 0; c < ncls; ++c) votes[i * ncls + c] = proba[c];
        }
      }
    }
  };

  // OOB buffers cost n*classes doubles per tree; fitting in fixed-size
  // blocks (merge + release after each) bounds peak memory at large corpus
  // sizes. Block boundaries are thread-count independent.
  std::vector<double> oob_votes;
  if (params.compute_oob) oob_votes.assign(n * ncls, 0.0);
  const std::size_t block = params.compute_oob ? 32 : num_trees;
  for (std::size_t base = 0; base < num_trees; base += block) {
    const std::size_t limit = std::min(num_trees, base + block);
    par::parallel_for(base, limit, 1, fit_one);
    if (params.compute_oob) {
      for (std::size_t t = base; t < limit; ++t) {
        const auto& votes = oob_per_tree[t];
        for (std::size_t i = 0; i < oob_votes.size(); ++i) oob_votes[i] += votes[i];
        oob_per_tree[t] = {};
      }
    }
  }

  for (const DecisionTree& tree : forest.trees_) {
    const auto& imp = tree.impurity_importance();
    for (std::size_t c = 0; c < imp.size(); ++c) forest.importance_raw_[c] += imp[c];
  }

  if (params.compute_oob) {
    std::size_t correct = 0, counted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto row_votes =
          std::span{oob_votes.data() + i * forest.num_classes_, forest.num_classes_};
      const double total =
          std::accumulate(row_votes.begin(), row_votes.end(), 0.0);
      if (total == 0.0) continue;  // row was in every bag
      const int pred = static_cast<int>(
          std::max_element(row_votes.begin(), row_votes.end()) - row_votes.begin());
      ++counted;
      if (pred == data.label(i)) ++correct;
    }
    if (counted > 0) {
      forest.oob_accuracy_ =
          static_cast<double>(correct) / static_cast<double>(counted);
    }
  }
  forest.compile_compact();
  return forest;
}

void RandomForest::compile_compact() {
  compact_ = std::make_shared<const CompactForest>(CompactForest::compile(*this));
}

const CompactForest& RandomForest::compiled() const {
  if (compact_ == nullptr) throw std::logic_error{"RandomForest: not trained"};
  return *compact_;
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> features) const {
  std::vector<double> votes(num_classes_, 0.0);
  predict_proba_into(features, votes);
  return votes;
}

int RandomForest::predict_proba_into(std::span<const double> features,
                                     std::span<double> out) const {
  return compiled().predict_proba_into(features, out);
}

int RandomForest::predict(std::span<const double> features) const {
  return compiled().predict(features);
}

std::vector<int> RandomForest::predict_all(const Dataset& data) const {
  const CompactForest& compact = compiled();
  if (data.feature_names() != feature_names_) {
    throw std::invalid_argument{
        "RandomForest::predict_all: feature layout differs from training"};
  }
  return compact.predict_all(data);
}

std::vector<double> RandomForest::predict_proba_all(const Dataset& data) const {
  const CompactForest& compact = compiled();
  if (data.feature_names() != feature_names_) {
    throw std::invalid_argument{
        "RandomForest::predict_proba_all: feature layout differs from training"};
  }
  return compact.predict_proba_all(data);
}

std::vector<double> RandomForest::feature_importance() const {
  std::vector<double> imp = importance_raw_;
  const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}


void RandomForest::save(std::ostream& os) const {
  os << "vqoe-forest v1\n";
  os << "classes " << num_classes_ << '\n';
  os << "features " << feature_names_.size() << '\n';
  for (const std::string& name : feature_names_) os << name << '\n';
  os.precision(17);
  os << "importance";
  for (double v : importance_raw_) os << ' ' << v;
  os << '\n';
  os << "oob " << (oob_accuracy_ ? *oob_accuracy_ : -1.0) << '\n';
  os << "trees " << trees_.size() << '\n';
  for (const DecisionTree& tree : trees_) tree.save(os);
}

RandomForest RandomForest::load(std::istream& is) {
  std::string word, version;
  if (!(is >> word >> version) || word != "vqoe-forest" || version != "v1") {
    throw std::runtime_error{"RandomForest::load: bad header"};
  }
  RandomForest forest;
  std::size_t n_features = 0, n_trees = 0;
  if (!(is >> word >> forest.num_classes_) || word != "classes") {
    throw std::runtime_error{"RandomForest::load: missing classes"};
  }
  if (!(is >> word >> n_features) || word != "features") {
    throw std::runtime_error{"RandomForest::load: missing features"};
  }
  // Plausibility caps (mirroring DecisionTree::load): corrupted counts are
  // refused before they size a container.
  if (forest.num_classes_ > 4096 || n_features > (1u << 20)) {
    throw std::runtime_error{"RandomForest::load: implausible header counts"};
  }
  forest.feature_names_.resize(n_features);
  for (std::string& name : forest.feature_names_) {
    if (!(is >> name)) throw std::runtime_error{"RandomForest::load: truncated names"};
  }
  if (!(is >> word) || word != "importance") {
    throw std::runtime_error{"RandomForest::load: missing importance"};
  }
  forest.importance_raw_.resize(n_features);
  for (double& v : forest.importance_raw_) {
    if (!(is >> v)) throw std::runtime_error{"RandomForest::load: truncated importance"};
  }
  double oob = -1.0;
  if (!(is >> word >> oob) || word != "oob") {
    throw std::runtime_error{"RandomForest::load: missing oob"};
  }
  if (oob >= 0.0) forest.oob_accuracy_ = oob;
  if (!(is >> word >> n_trees) || word != "trees") {
    throw std::runtime_error{"RandomForest::load: missing trees"};
  }
  if (n_trees > (1u << 20)) {
    throw std::runtime_error{"RandomForest::load: implausible tree count"};
  }
  forest.trees_.reserve(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    forest.trees_.push_back(DecisionTree::load(is));
    if (forest.trees_.back().num_classes() != forest.num_classes_) {
      throw std::runtime_error{"RandomForest::load: tree class mismatch"};
    }
  }
  // Compiling also cross-checks what the per-tree loads cannot: feature
  // indices against this forest's column count, and graph shape (a cyclic
  // hand-edited tree would otherwise hang prediction).
  if (forest.trained()) {
    try {
      forest.compile_compact();
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error{std::string{"RandomForest::load: "} + e.what()};
    }
  }
  return forest;
}

}  // namespace vqoe::ml
