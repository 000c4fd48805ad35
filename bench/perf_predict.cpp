// Forest-inference benchmarks (google-benchmark, JSON to BENCH_predict.json
// by default): the CompactForest every RandomForest::predict* call walks.
//
// Two model scales, matching the two deployment hot paths:
//  * monitor scale — the standard stall-detector workload (1500 sessions,
//    60 trees, ~160 KB flattened): single-row latency, the per-session
//    cost inside OnlineMonitor / engine shards;
//  * operator scale — a corpus-scale model (12000 sessions, 160 trees,
//    several MB flattened, larger than L2): blocked batch throughput at
//    1/2/4/8 vqoe::par threads, the regime the tree-tiled kernel targets
//    (a row-at-a-time walk re-misses the whole model once per row there).
//
// The tracked numbers are single-row ns/row and batch rows/sec at one
// thread, plus batch scaling across threads. The forest_bytes counter
// records each flattened model footprint.
#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "vqoe/core/detectors.h"
#include "vqoe/core/pipeline.h"
#include "vqoe/ml/compact_forest.h"
#include "vqoe/ml/random_forest.h"
#include "vqoe/par/parallel.h"
#include "vqoe/workload/corpus.h"

namespace {

using namespace vqoe;

ml::Dataset make_stall_dataset(std::size_t sessions, std::uint64_t seed) {
  auto options = workload::cleartext_corpus_options(sessions, seed);
  options.keep_session_results = false;
  const auto corpus =
      core::sessions_from_corpus(workload::generate_corpus(options));
  std::vector<std::vector<core::ChunkObs>> chunks;
  std::vector<core::StallLabel> labels;
  for (const auto& s : corpus) {
    chunks.push_back(s.chunks);
    labels.push_back(core::stall_label(s.truth));
  }
  return core::build_stall_dataset(chunks, labels);
}

const ml::Dataset& stall_dataset() {
  static const auto data = make_stall_dataset(1500, 42);
  return data;
}

/// Scoring + training set of the operator-scale batch benchmarks.
const ml::Dataset& corpus_dataset() {
  static const auto data = make_stall_dataset(12000, 43);
  return data;
}

ml::RandomForest fit_forest(const ml::Dataset& data, int num_trees) {
  ml::ForestParams params;
  params.num_trees = num_trees;
  return ml::RandomForest::fit(data, params);
}

/// Monitor-scale forest shared by the single-row benchmarks.
const ml::RandomForest& compact_forest() {
  static const auto forest = fit_forest(stall_dataset(), 60);
  return forest;
}

/// Operator-scale forest shared by the batch benchmarks.
const ml::RandomForest& corpus_compact_forest() {
  static const auto forest = fit_forest(corpus_dataset(), 160);
  return forest;
}

void report_forest_size(benchmark::State& state,
                        const ml::RandomForest& forest) {
  state.counters["forest_bytes"] =
      static_cast<double>(forest.compact()->bytes());
}

void BM_SingleRowPredictCompact(benchmark::State& state) {
  const auto& forest = compact_forest();
  const auto& data = stall_dataset();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(data.row(i)));
    if (++i == data.rows()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  report_forest_size(state, compact_forest());
}
BENCHMARK(BM_SingleRowPredictCompact)->Apply(vqoe::bench::perf_defaults);

void BM_SingleRowProbaCompact(benchmark::State& state) {
  const auto& forest = compact_forest();
  const auto& data = stall_dataset();
  std::vector<double> proba(forest.num_classes());
  std::size_t i = 0;
  for (auto _ : state) {
    forest.predict_proba_into(data.row(i), proba);
    benchmark::DoNotOptimize(proba.data());
    if (++i == data.rows()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SingleRowProbaCompact)->Apply(vqoe::bench::perf_defaults);

void BM_BatchPredictCompact(benchmark::State& state) {
  par::set_threads(static_cast<int>(state.range(0)));
  const auto& forest = corpus_compact_forest();
  const auto& data = corpus_dataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_all(data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.rows()));
  state.counters["threads"] = static_cast<double>(state.range(0));
  report_forest_size(state, corpus_compact_forest());
  par::set_threads(0);
}
BENCHMARK(BM_BatchPredictCompact)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults);

void BM_BatchProbaCompact(benchmark::State& state) {
  par::set_threads(static_cast<int>(state.range(0)));
  const auto& forest = corpus_compact_forest();
  const auto& data = corpus_dataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba_all(data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.rows()));
  state.counters["threads"] = static_cast<double>(state.range(0));
  par::set_threads(0);
}
BENCHMARK(BM_BatchProbaCompact)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults);

void BM_CompileCompact(benchmark::State& state) {
  const auto& forest = corpus_compact_forest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::CompactForest::compile(forest));
  }
  report_forest_size(state, corpus_compact_forest());
}
BENCHMARK(BM_CompileCompact)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(vqoe::bench::perf_defaults);

}  // namespace

VQOE_BENCHMARK_MAIN_JSON("BENCH_predict.json")
