// Performance micro-benchmarks (google-benchmark): the operator-side cost
// of running the framework online — feature construction, model inference,
// the CUSUM statistic, session reconstruction, and simulation throughput.
//
// These back the paper's deployability claim (Section 8: models "can be
// then directly applied on the passively monitored traffic and report
// issues in real time").
#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "vqoe/core/detectors.h"
#include "vqoe/par/parallel.h"
#include "vqoe/core/features.h"
#include "vqoe/core/pipeline.h"
#include "vqoe/flow/export.h"
#include "vqoe/flow/reassembly.h"
#include "vqoe/session/reconstruct.h"
#include "vqoe/workload/corpus.h"

namespace {

using namespace vqoe;

const std::vector<core::SessionRecord>& training_sessions() {
  static const auto sessions = [] {
    auto options = workload::cleartext_corpus_options(1500, 42);
    options.keep_session_results = false;
    return core::sessions_from_corpus(workload::generate_corpus(options));
  }();
  return sessions;
}

const core::QoePipeline& trained_pipeline() {
  static const auto pipeline = core::QoePipeline::train(training_sessions());
  return pipeline;
}

const std::vector<core::ChunkObs>& sample_chunks() {
  static const auto chunks = [] {
    // A representative mid-length session.
    const auto& sessions = training_sessions();
    std::size_t best = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (sessions[i].chunks.size() > sessions[best].chunks.size()) best = i;
    }
    return sessions[best].chunks;
  }();
  return chunks;
}

void BM_StallFeatureConstruction(benchmark::State& state) {
  const auto& chunks = sample_chunks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::stall_features(chunks));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunks.size()));
}
BENCHMARK(BM_StallFeatureConstruction)->Apply(vqoe::bench::perf_defaults);

void BM_RepresentationFeatureConstruction(benchmark::State& state) {
  const auto& chunks = sample_chunks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::representation_features(chunks));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunks.size()));
}
BENCHMARK(BM_RepresentationFeatureConstruction)->Apply(vqoe::bench::perf_defaults);

void BM_StallInference(benchmark::State& state) {
  const auto& pipeline = trained_pipeline();
  const auto features = core::stall_features(sample_chunks());
  core::DetectorScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.stall_detector().classify_features(features, scratch));
  }
}
BENCHMARK(BM_StallInference)->Apply(vqoe::bench::perf_defaults);

void BM_FullSessionAssessment(benchmark::State& state) {
  const auto& pipeline = trained_pipeline();
  const auto& chunks = sample_chunks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.assess(chunks));
  }
}
BENCHMARK(BM_FullSessionAssessment)->Apply(vqoe::bench::perf_defaults);

void BM_CusumScore(benchmark::State& state) {
  const core::SwitchDetector detector;
  const auto& chunks = sample_chunks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.score(chunks));
  }
}
BENCHMARK(BM_CusumScore)->Apply(vqoe::bench::perf_defaults);

void BM_SessionReconstruction(benchmark::State& state) {
  static const auto weblogs = [] {
    auto options = workload::encrypted_corpus_options(100, 7);
    options.keep_session_results = false;
    auto corpus = workload::generate_corpus(options);
    return trace::encrypt_view(std::move(corpus.weblogs));
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session::reconstruct(weblogs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(weblogs.size()));
}
BENCHMARK(BM_SessionReconstruction)->Apply(vqoe::bench::perf_defaults);

void BM_FlowExport(benchmark::State& state) {
  static const auto weblogs = [] {
    auto options = workload::cleartext_corpus_options(200, 3);
    options.keep_session_results = false;
    return workload::generate_corpus(options).weblogs;
  }();
  flow::FlowExportOptions options;
  options.slice_s = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::export_flows(weblogs, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(weblogs.size()));
}
BENCHMARK(BM_FlowExport)->Unit(benchmark::kMillisecond)->Apply(vqoe::bench::perf_defaults);

void BM_BurstReassembly(benchmark::State& state) {
  static const auto slices = [] {
    auto options = workload::cleartext_corpus_options(200, 3);
    options.keep_session_results = false;
    flow::FlowExportOptions export_options;
    export_options.slice_s = 0.5;
    return flow::export_flows(workload::generate_corpus(options).weblogs,
                              export_options);
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::segment_bursts(slices, {}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(slices.size()));
}
BENCHMARK(BM_BurstReassembly)->Unit(benchmark::kMillisecond)->Apply(vqoe::bench::perf_defaults);

void BM_SimulateSession(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::demo_switch_session(seed++));
  }
}
BENCHMARK(BM_SimulateSession)->Apply(vqoe::bench::perf_defaults);

void BM_ForestTraining(benchmark::State& state) {
  par::set_threads(static_cast<int>(state.range(1)));
  std::vector<std::vector<core::ChunkObs>> chunks;
  std::vector<core::StallLabel> labels;
  for (const auto& s : training_sessions()) {
    chunks.push_back(s.chunks);
    labels.push_back(core::stall_label(s.truth));
  }
  const auto data = core::build_stall_dataset(chunks, labels);
  for (auto _ : state) {
    core::ForestDetectorConfig config;
    config.feature_selection = false;  // isolate forest cost
    config.forest.num_trees = static_cast<int>(state.range(0));
    benchmark::DoNotOptimize(core::StallDetector::train(data, config));
  }
  state.counters["threads"] = static_cast<double>(state.range(1));
  par::set_threads(0);
}
BENCHMARK(BM_ForestTraining)
    ->ArgsProduct({{10, 40}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()->Apply(vqoe::bench::perf_defaults);

}  // namespace

VQOE_BENCHMARK_MAIN_JSON("BENCH_pipeline.json")
