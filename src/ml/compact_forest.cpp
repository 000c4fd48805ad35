#include "vqoe/ml/compact_forest.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "vqoe/ml/random_forest.h"
#include "vqoe/par/parallel.h"

namespace vqoe::ml {

namespace {

[[noreturn]] void compile_error(const std::string& what) {
  throw std::invalid_argument{"CompactForest::compile: " + what};
}

int argmax_class(std::span<const double> votes) {
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

/// Node-array budget per tree tile of the blocked batch kernel: a tile's
/// threshold/feature/right/proba streams should stay L2-resident across
/// the whole 64-row block, so the tile width adapts to the per-tree
/// footprint (few wide-tiled shallow trees up to 64, deep corpus-scale
/// trees down to 4).
constexpr std::size_t kTileBudgetBytes = 256 * 1024;
/// Rows per parallel_for chunk (= rows sharing one tree tile sweep). The
/// whole model is streamed through cache once per row block, so larger
/// blocks amortize tile loads further; 256 rows of the widest feature set
/// still sit far under the tile budget.
constexpr std::size_t kRowBlock = 256;
/// Widest row converted on the stack; wider rows (none in this codebase —
/// the paper's large feature set is 210 columns) fall back to one heap
/// buffer per call.
constexpr std::size_t kMaxStackFeatures = 512;

/// Depth-first left-first visitation order over one tree, validating the
/// shape on the way: every child index in bounds, every split feature in
/// [0, num_features), every leaf distribution inside the proba array, and
/// no node reached twice (cycles and shared subtrees both surface as a
/// revisit on some DFS path).
std::vector<std::int32_t> dfs_order(const DecisionTree& tree,
                                    std::size_t num_features,
                                    std::size_t num_classes) {
  const auto nodes = tree.nodes();
  if (nodes.empty()) compile_error("empty tree");
  const auto limit = static_cast<std::int32_t>(nodes.size());

  std::vector<std::int32_t> order;
  order.reserve(nodes.size());
  std::vector<char> seen(nodes.size(), 0);
  std::vector<std::int32_t> stack{0};
  while (!stack.empty()) {
    const std::int32_t idx = stack.back();
    stack.pop_back();
    if (idx < 0 || idx >= limit) compile_error("child index out of range");
    if (seen[static_cast<std::size_t>(idx)]) {
      compile_error("cycle or shared subtree");
    }
    seen[static_cast<std::size_t>(idx)] = 1;
    order.push_back(idx);

    const DecisionTree::Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.feature >= 0) {
      if (static_cast<std::size_t>(node.feature) >= num_features) {
        compile_error("split feature out of range");
      }
      // Right first so the left child pops next and lands at parent + 1.
      stack.push_back(node.right);
      stack.push_back(node.left);
    } else {
      if (node.proba_offset < 0 ||
          static_cast<std::size_t>(node.proba_offset) + num_classes >
              tree.leaf_probas().size()) {
        compile_error("leaf probability offset out of range");
      }
    }
  }
  return order;
}

}  // namespace

CompactForest CompactForest::compile(const RandomForest& forest) {
  if (!forest.trained()) compile_error("untrained forest");
  const auto& trees = forest.trees();
  const std::size_t ncls = forest.num_classes();
  const std::size_t ncols = forest.feature_names().size();
  if (ncls == 0) compile_error("zero classes");

  // Pass 1: validate every tree and size the arena off the reachable node
  // set (a hand-edited model file may carry orphan nodes; they are not
  // mirrored into the flat arrays).
  std::vector<std::vector<std::int32_t>> orders;
  orders.reserve(trees.size());
  std::size_t total_nodes = 0;
  std::size_t total_leaves = 0;
  for (const DecisionTree& tree : trees) {
    orders.push_back(dfs_order(tree, ncols, ncls));
    total_nodes += orders.back().size();
    for (const std::int32_t old : orders.back()) {
      if (tree.nodes()[static_cast<std::size_t>(old)].feature < 0) {
        ++total_leaves;
      }
    }
  }

  const std::size_t total_probas = total_leaves * ncls;
  constexpr auto kMaxIndex =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  if (total_nodes > kMaxIndex || total_probas > kMaxIndex) {
    compile_error("forest too large for 32-bit indices");
  }

  CompactForest out;
  out.num_trees_ = trees.size();
  out.num_classes_ = ncls;
  out.num_features_ = ncols;
  out.num_nodes_ = total_nodes;
  out.threshold_off_ = 0;
  out.feature_off_ = total_nodes;
  out.right_off_ = 2 * total_nodes;
  out.proba_off_ = 3 * total_nodes;
  out.roots_off_ = 3 * total_nodes + total_probas;
  out.arena_.assign(out.roots_off_ + trees.size(), 0u);  // the one allocation

  // Pass 2: emit each tree in DFS order. `pos[old]` is a node's tree-local
  // new index, so child links resolve to base + pos once the order is known.
  std::vector<std::size_t> pos;
  std::size_t base = 0;
  std::size_t proba_cursor = 0;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const auto nodes = trees[t].nodes();
    const auto probas = trees[t].leaf_probas();
    const auto& order = orders[t];
    out.arena_[out.roots_off_ + t] = static_cast<std::uint32_t>(base);

    pos.assign(nodes.size(), 0);
    for (std::size_t k = 0; k < order.size(); ++k) {
      pos[static_cast<std::size_t>(order[k])] = k;
    }

    for (std::size_t k = 0; k < order.size(); ++k) {
      const DecisionTree::Node& node =
          nodes[static_cast<std::size_t>(order[k])];
      const std::size_t i = base + k;
      if (node.feature >= 0) {
        out.arena_[out.threshold_off_ + i] =
            std::bit_cast<std::uint32_t>(static_cast<float>(node.threshold));
        out.arena_[out.feature_off_ + i] =
            static_cast<std::uint32_t>(node.feature);
        out.arena_[out.right_off_ + i] = static_cast<std::uint32_t>(
            base + pos[static_cast<std::size_t>(node.right)]);
      } else {
        out.arena_[out.feature_off_ + i] = static_cast<std::uint32_t>(
            ~static_cast<std::int32_t>(proba_cursor));
        for (std::size_t c = 0; c < ncls; ++c) {
          out.arena_[out.proba_off_ + proba_cursor + c] =
              std::bit_cast<std::uint32_t>(static_cast<float>(
                  probas[static_cast<std::size_t>(node.proba_offset) + c]));
        }
        proba_cursor += ncls;
      }
    }
    base += order.size();
  }
  return out;
}

std::size_t CompactForest::walk(const float* row, std::size_t idx) const {
  std::int32_t f = feature(idx);
  while (f >= 0) {
    idx = row[static_cast<std::size_t>(f)] <= threshold(idx) ? idx + 1
                                                             : right(idx);
    f = feature(idx);
  }
  return idx;
}

void CompactForest::accumulate_trees(const float* row, std::size_t t0,
                                     std::size_t t1,
                                     std::span<double> votes) const {
  // A single walk is one serial dependent-load chain (node -> child ->
  // grandchild) punctuated by data-dependent direction branches that
  // mispredict on real splits. Walking four trees of the same row in
  // lockstep overlaps four such chains, and the step itself is branch-free
  // — no chain's in-flight loads are ever flushed by another's
  // misprediction: finished trees park on their leaf under a sign mask
  // (the dummy feature-0 load and discarded select are harmless — leaf
  // threshold and right lanes are zero-initialized), and the direction
  // select is a mask blend rather than a ?: the compiler would lower to a
  // skip-branch. Votes are added in ascending tree order after the group
  // drains, so results are bit-identical to one-tree-at-a-time
  // accumulation.
  constexpr std::size_t kWay = 4;
  const std::size_t ncls = votes.size();
  std::size_t t = t0;
  for (; t + kWay <= t1; t += kWay) {
    std::uint32_t cur[kWay];
    for (std::size_t w = 0; w < kWay; ++w) cur[w] = root(t + w);
    for (bool active = true; active;) {
      active = false;
      for (std::size_t w = 0; w < kWay; ++w) {
        const std::uint32_t at = cur[w];
        const std::int32_t f = feature(at);
        const auto parked = static_cast<std::uint32_t>(f >> 31);
        const auto fi = static_cast<std::size_t>(f & ~(f >> 31));
        const auto go_right = static_cast<std::uint32_t>(right(at));
        const auto take_left = static_cast<std::uint32_t>(
            -static_cast<std::int32_t>(row[fi] <= threshold(at)));
        const std::uint32_t next =
            ((at + 1) & take_left) | (go_right & ~take_left);
        cur[w] = (at & parked) | (next & ~parked);
        active |= parked == 0;
      }
    }
    for (std::size_t w = 0; w < kWay; ++w) {
      const auto off = static_cast<std::size_t>(~feature(cur[w]));
      for (std::size_t c = 0; c < ncls; ++c) votes[c] += proba(off + c);
    }
  }
  for (; t < t1; ++t) {
    const std::size_t leaf = walk(row, root(t));
    const auto off = static_cast<std::size_t>(~feature(leaf));
    for (std::size_t c = 0; c < ncls; ++c) votes[c] += proba(off + c);
  }
}

void CompactForest::accumulate(std::span<const double> features,
                               std::span<double> votes) const {
  // Thresholds are stored as float, so the row is narrowed to float once
  // here and every walk compares float-to-float — no per-step widening on
  // the serial dependency chain. Every compact path (single-row, batch,
  // reloaded) narrows identically, which is what keeps them bit-identical
  // to each other.
  float stack_row[kMaxStackFeatures];
  std::vector<float> heap_row(
      features.size() > kMaxStackFeatures ? features.size() : 0);
  float* row = heap_row.empty() ? stack_row : heap_row.data();
  for (std::size_t c = 0; c < features.size(); ++c) {
    row[c] = static_cast<float>(features[c]);
  }
  accumulate_trees(row, 0, num_trees_, votes);
}

int CompactForest::predict(std::span<const double> features) const {
  std::array<double, 16> stack_votes{};
  std::vector<double> heap_votes;
  std::span<double> votes;
  if (num_classes_ <= stack_votes.size()) {
    votes = std::span{stack_votes.data(), num_classes_};
  } else {
    heap_votes.assign(num_classes_, 0.0);
    votes = heap_votes;
  }
  accumulate(features, votes);
  return argmax_class(votes);
}

int CompactForest::predict_proba_into(std::span<const double> features,
                                      std::span<double> out) const {
  if (out.size() != num_classes_) {
    throw std::invalid_argument{
        "CompactForest::predict_proba_into: output span size mismatch"};
  }
  std::fill(out.begin(), out.end(), 0.0);
  accumulate(features, out);
  // The argmax is taken over the summed votes, before dividing: division
  // can round two votes one ulp apart to the same value, and predict()
  // never divides.
  const int label = argmax_class(out);
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  if (total > 0.0) {
    for (double& v : out) v /= total;
  }
  return label;
}

void CompactForest::accumulate_block(const Dataset& data, std::size_t lo,
                                     std::size_t hi,
                                     std::span<double> votes) const {
  // Interleaved tiles: each tree tile is swept over the whole row block
  // before the next tile, so the tile's threshold/feature/right streams
  // stay cache-hot across all 64 rows instead of being evicted and
  // re-missed once per row (a row-at-a-time walk's behavior when the
  // model outgrows L2). Within a row, accumulate_trees walks the tile's
  // trees four at a time in branch-free lockstep. Per row, tiles and in-tile
  // trees ascend — votes accumulate in tree order, identical to
  // accumulate() whatever the tile width.
  const std::size_t ncls = num_classes_;
  const std::size_t per_tree = bytes() / std::max<std::size_t>(num_trees_, 1);
  const std::size_t tile =
      std::clamp<std::size_t>(kTileBudgetBytes / std::max<std::size_t>(
                                                     per_tree, 1),
                              4, 64) &
      ~std::size_t{3};  // multiple of the lockstep width: no mid-tile tails
  float stack_row[kMaxStackFeatures];
  std::vector<float> heap_row(
      num_features_ > kMaxStackFeatures ? num_features_ : 0);
  float* row = heap_row.empty() ? stack_row : heap_row.data();
  for (std::size_t t0 = 0; t0 < num_trees_; t0 += tile) {
    const std::size_t t1 = std::min(num_trees_, t0 + tile);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto src = data.row(i);
      for (std::size_t c = 0; c < num_features_; ++c) {
        row[c] = static_cast<float>(src[c]);
      }
      accumulate_trees(row, t0, t1,
                       std::span{votes.data() + (i - lo) * ncls, ncls});
    }
  }
}

void CompactForest::check_width(const Dataset& data, const char* caller) const {
  if (!compiled()) {
    throw std::logic_error{std::string{caller} + ": forest not compiled"};
  }
  if (data.cols() != num_features_) {
    throw std::invalid_argument{std::string{caller} +
                                ": row width differs from compilation"};
  }
}

std::vector<int> CompactForest::predict_all(const Dataset& data) const {
  check_width(data, "CompactForest::predict_all");
  std::vector<int> out(data.rows());
  par::WorkerLocal<std::vector<double>> scratch;
  par::parallel_for(
      0, data.rows(), kRowBlock,
      [&](std::size_t lo, std::size_t hi, std::size_t slot) {
        auto& votes = scratch.at(slot);
        votes.assign((hi - lo) * num_classes_, 0.0);
        accumulate_block(data, lo, hi, votes);
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = argmax_class(
              std::span{votes.data() + (i - lo) * num_classes_, num_classes_});
        }
      });
  return out;
}

std::vector<double> CompactForest::predict_proba_all(const Dataset& data) const {
  check_width(data, "CompactForest::predict_proba_all");
  std::vector<double> out(data.rows() * num_classes_, 0.0);
  par::parallel_for(
      0, data.rows(), kRowBlock,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        // Output rows double as the vote accumulators: zero-initialized,
        // per-row disjoint, normalized in place after the block sweep.
        accumulate_block(
            data, lo, hi,
            std::span{out.data() + lo * num_classes_, (hi - lo) * num_classes_});
        for (std::size_t i = lo; i < hi; ++i) {
          const std::span row{out.data() + i * num_classes_, num_classes_};
          const double total = std::accumulate(row.begin(), row.end(), 0.0);
          if (total > 0.0) {
            for (double& v : row) v /= total;
          }
        }
      });
  return out;
}

}  // namespace vqoe::ml
