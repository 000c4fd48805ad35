// Windowed-inference cost benchmarks (google-benchmark, JSON to
// BENCH_window.json): what the vqoe::window machinery costs per ingested
// record on the streaming path.
//
// A windowed monitor keeps no per-window state. It opens windows on the
// schedule, and the call that closes one binary-searches the window's
// chunk span, scores it through QoePipeline::assess_scored and folds it
// through WindowSummary. BM_MonitorIngestWindowed times all of that: what
// a windowed monitor pays per record, against BM_MonitorIngestBaseline's
// session-only monitor. BM_MonitorIngestOverheadPaired keeps the <20%
// budget on what it always bounded, the window schedule and the span
// search on the ingest path: its windowed side runs with a min_chunks no
// window passes, so nothing is scored. BM_WindowAccumulatorAdd times the
// feature extractor of the window-length experiment, which the live path
// does not run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <limits>
#include <vector>

#include "bench_json.h"
#include "vqoe/core/online.h"
#include "vqoe/window/window.h"
#include "vqoe/workload/corpus.h"

namespace {

using namespace vqoe;

const core::QoePipeline& trained_pipeline() {
  static const auto pipeline = [] {
    auto options = workload::has_corpus_options(400, 42);
    options.keep_session_results = false;
    return core::QoePipeline::train(
        core::sessions_from_corpus(workload::generate_corpus(options)));
  }();
  return pipeline;
}

/// The same multi-subscriber encrypted feed perf_engine measures against,
/// so the windowed-vs-baseline delta reads off one corpus.
const std::vector<trace::WeblogRecord>& live_records() {
  static const auto records = [] {
    auto options = workload::cleartext_corpus_options(800, 99);
    options.adaptive_fraction = 1.0;
    options.subscribers = 64;
    options.keep_session_results = false;
    return trace::encrypt_view(workload::generate_corpus(options).weblogs);
  }();
  return records;
}

core::OnlineMonitorConfig windowed_config(double length_s) {
  core::OnlineMonitorConfig config;
  config.window.length_s = length_s;
  config.window.min_chunks = 2;
  return config;
}

/// The pre-window behaviour: session bookkeeping + one classification at
/// session close. The denominator of the overhead claim.
void BM_MonitorIngestBaseline(benchmark::State& state) {
  const auto& records = live_records();
  for (auto _ : state) {
    core::OnlineMonitor monitor{trained_pipeline(),
                                core::OnlineMonitorConfig{}};
    std::size_t completed = 0;
    for (const auto& record : records) {
      completed += monitor.ingest(record).size();
    }
    completed += monitor.flush().size();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_MonitorIngestBaseline)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults);

/// A windowed monitor with 2/10/60-second tumbling windows: the window
/// schedule per media chunk, and per closed window the span search, the
/// scoring and the window summary, all inside the ingest / flush call that
/// closes it. take_verdicts() hands the verdicts over once per pass.
void BM_MonitorIngestWindowed(benchmark::State& state) {
  const auto& records = live_records();
  const auto config = windowed_config(static_cast<double>(state.range(0)));
  std::uint64_t windows = 0;
  std::uint64_t verdicts = 0;
  for (auto _ : state) {
    core::OnlineMonitor monitor{trained_pipeline(), config};
    std::size_t completed = 0;
    for (const auto& record : records) {
      completed += monitor.ingest(record).size();
    }
    completed += monitor.flush().size();
    verdicts += monitor.take_verdicts().size();
    benchmark::DoNotOptimize(completed);
    windows += monitor.windows_closed();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  const auto per_pass = [&state](std::uint64_t total) {
    return static_cast<double>(total) /
           static_cast<double>(state.iterations());
  };
  state.counters["window_s"] = static_cast<double>(state.range(0));
  state.counters["windows"] = per_pass(windows);
  state.counters["verdicts"] = per_pass(verdicts);
}
BENCHMARK(BM_MonitorIngestWindowed)
    ->Arg(2)
    ->Arg(10)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults);

/// The <20% budget on the window schedule and span search, measured
/// noise-robustly: each iteration feeds the same records through a
/// baseline monitor and a windowed monitor back-to-back and reports the
/// ratio as overhead_pct. Machine-load noise hits both phases of a pair
/// roughly equally, so the ratio stays stable where the split benchmarks
/// above drift run-to-run. The windowed side's min_chunks is one no window
/// reaches, so every window is opened, closed and span-searched but none
/// is scored: scoring is BM_MonitorIngestWindowed's, which has no budget.
void BM_MonitorIngestOverheadPaired(benchmark::State& state) {
  const auto& records = live_records();
  auto config = windowed_config(static_cast<double>(state.range(0)));
  config.window.min_chunks = std::numeric_limits<std::size_t>::max();
  using clock = std::chrono::steady_clock;
  double baseline_s = 0.0;
  double windowed_s = 0.0;
  for (auto _ : state) {
    std::size_t completed = 0;
    const auto t0 = clock::now();
    {
      core::OnlineMonitor monitor{trained_pipeline(),
                                  core::OnlineMonitorConfig{}};
      for (const auto& record : records) {
        completed += monitor.ingest(record).size();
      }
      completed += monitor.flush().size();
    }
    const auto t1 = clock::now();
    {
      core::OnlineMonitor monitor{trained_pipeline(), config};
      for (const auto& record : records) {
        completed += monitor.ingest(record).size();
      }
      completed += monitor.flush().size();
      completed += monitor.take_verdicts().size();
    }
    const auto t2 = clock::now();
    baseline_s += std::chrono::duration<double>(t1 - t0).count();
    windowed_s += std::chrono::duration<double>(t2 - t1).count();
    benchmark::DoNotOptimize(completed);
  }
  state.counters["window_s"] = static_cast<double>(state.range(0));
  state.counters["overhead_pct"] =
      baseline_s > 0.0 ? 100.0 * (windowed_s / baseline_s - 1.0) : 0.0;
}
BENCHMARK(BM_MonitorIngestOverheadPaired)
    ->Arg(2)
    ->Arg(10)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults)
    ->Repetitions(9);  // the acceptance number: worth the extra samples

/// Raw per-chunk state update: every Table-1 metric under running
/// min/mean/max/std plus the incremental CUSUM, no scheduling or scoring.
/// The window-length experiment's feature extractor; the live ingest path
/// does not run it.
void BM_WindowAccumulatorAdd(benchmark::State& state) {
  constexpr std::size_t kChunks = 1 << 14;
  net::TransportStats transport;
  transport.rtt_min_ms = 32.0;
  transport.rtt_avg_ms = 48.0;
  transport.rtt_max_ms = 90.0;
  transport.bdp_bytes = 120'000.0;
  transport.bif_avg_bytes = 60'000.0;
  transport.bif_max_bytes = 140'000.0;
  transport.loss_pct = 0.4;
  transport.retrans_pct = 0.9;
  for (auto _ : state) {
    window::WindowAccumulator acc;
    double t = 0.0;
    for (std::size_t i = 0; i < kChunks; ++i) {
      const double size = 600'000.0 + 40'000.0 * static_cast<double>(i % 7);
      acc.add(t, t + 0.4, size, transport);
      t += 1.0;
    }
    benchmark::DoNotOptimize(acc.cusum_std());
    benchmark::DoNotOptimize(acc.bytes_kb());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kChunks));
}
BENCHMARK(BM_WindowAccumulatorAdd)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults);

}  // namespace

VQOE_BENCHMARK_MAIN_JSON("BENCH_window.json")
