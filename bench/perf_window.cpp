// Windowed-inference overhead benchmarks (google-benchmark, JSON to
// BENCH_window.json): what the vqoe::window machinery costs per ingested
// record on the streaming hot path.
//
// This backs the vqoe::window acceptance claim: enabling mid-session
// windowed verdicts must cost < ~20% per-record overhead on the ingest hot
// path. The monitor's design makes that a measurable property rather than
// a hope: ingest keeps no per-window state. It opens windows on the
// schedule, and when one closes it binary-searches the window's chunk span
// and queues it. The forest and the window summary run over the span at
// harvest (take_verdicts), on the shard workers' publish step in the
// engine. So the benchmarks split the two costs: BM_MonitorIngestWindowed
// times the ingest path alone (the <20% claim), BM_WindowVerdictScoring
// times the harvest-side scoring as verdicts/sec, and
// BM_MonitorWindowedEndToEnd reports the honest total for a single thread
// doing both. BM_WindowAccumulatorAdd times the feature extractor of the
// window-length experiment, which the live path does not run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
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

/// How often the windowed benchmarks harvest verdicts (in records) — the
/// deployed cadence: the engine drains each shard's verdicts periodically,
/// so pending windows never pile up to stream length.
constexpr std::size_t kHarvestEvery = 8192;

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

/// The ingest hot path with 2/10/60-second tumbling windows: the window
/// schedule per media chunk, the span search when a window closes, and the
/// move-only detach of unharvested windows when sessions close. Verdicts
/// are harvested every kHarvestEvery records with the clock paused — the
/// deployed cadence; their scoring cost is BM_WindowVerdictScoring's. The
/// per-record delta against the baseline is the windowing overhead the
/// <20% acceptance bound is about (BM_MonitorIngestOverheadPaired below
/// measures that ratio directly).
void BM_MonitorIngestWindowed(benchmark::State& state) {
  const auto& records = live_records();
  const auto config = windowed_config(static_cast<double>(state.range(0)));
  std::uint64_t windows = 0;
  for (auto _ : state) {
    core::OnlineMonitor monitor{trained_pipeline(), config};
    std::size_t completed = 0;
    std::size_t fed = 0;
    for (const auto& record : records) {
      completed += monitor.ingest(record).size();
      if (++fed % kHarvestEvery == 0) {
        state.PauseTiming();  // harvest-side inference measured separately
        benchmark::DoNotOptimize(monitor.take_verdicts());
        state.ResumeTiming();
      }
    }
    completed += monitor.flush().size();
    benchmark::DoNotOptimize(completed);
    state.PauseTiming();
    benchmark::DoNotOptimize(monitor.take_verdicts());
    windows += monitor.windows_closed();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  state.counters["window_s"] = static_cast<double>(state.range(0));
  state.counters["windows"] = static_cast<double>(windows) /
                              static_cast<double>(state.iterations());
}
BENCHMARK(BM_MonitorIngestWindowed)
    ->Arg(2)
    ->Arg(10)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults);

/// The <20% claim itself, measured noise-robustly: each iteration feeds
/// the same records through a baseline monitor and a windowed monitor
/// back-to-back and reports the ratio as overhead_pct. Machine-load noise
/// hits both phases of a pair roughly equally, so the ratio stays stable
/// where the split benchmarks above drift run-to-run (this host is a
/// single-core VM). Harvest-side scoring stays outside the windowed
/// phase's clock, as in BM_MonitorIngestWindowed.
void BM_MonitorIngestOverheadPaired(benchmark::State& state) {
  const auto& records = live_records();
  const auto config = windowed_config(static_cast<double>(state.range(0)));
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
    baseline_s += std::chrono::duration<double>(t1 - t0).count();
    core::OnlineMonitor monitor{trained_pipeline(), config};
    std::size_t fed = 0;
    auto segment = clock::now();
    for (const auto& record : records) {
      completed += monitor.ingest(record).size();
      if (++fed % kHarvestEvery == 0) {
        windowed_s += std::chrono::duration<double>(clock::now() - segment)
                          .count();
        benchmark::DoNotOptimize(monitor.take_verdicts());  // off the clock
        segment = clock::now();
      }
    }
    completed += monitor.flush().size();
    windowed_s += std::chrono::duration<double>(clock::now() - segment).count();
    benchmark::DoNotOptimize(monitor.take_verdicts());
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

/// The harvest side: forest inference over every pending window of the
/// stream, measured alone (the feed runs with the clock paused).
/// items_per_second is the verdict scoring rate one thread sustains — in
/// the engine this work lands on the shard workers, so it scales with
/// shard count, not with ingest rate.
void BM_WindowVerdictScoring(benchmark::State& state) {
  const auto& records = live_records();
  const auto config = windowed_config(static_cast<double>(state.range(0)));
  std::uint64_t verdicts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::OnlineMonitor monitor{trained_pipeline(), config};
    for (const auto& record : records) (void)monitor.ingest(record);
    (void)monitor.flush();
    state.ResumeTiming();
    const auto scored = monitor.take_verdicts();
    benchmark::DoNotOptimize(scored.data());
    verdicts += scored.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(verdicts));
  state.counters["window_s"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_WindowVerdictScoring)
    ->Arg(2)
    ->Arg(10)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults);

/// Full transparency row: one thread doing both the ingest path and the
/// harvest-side scoring (the single-core worst case; a sequential deploy
/// pays this, a sharded engine spreads the scoring over workers).
void BM_MonitorWindowedEndToEnd(benchmark::State& state) {
  const auto& records = live_records();
  const auto config = windowed_config(10.0);
  std::uint64_t verdicts = 0;
  for (auto _ : state) {
    core::OnlineMonitor monitor{trained_pipeline(), config};
    std::size_t completed = 0;
    for (const auto& record : records) {
      completed += monitor.ingest(record).size();
    }
    completed += monitor.flush().size();
    benchmark::DoNotOptimize(completed);
    const auto scored = monitor.take_verdicts();
    benchmark::DoNotOptimize(scored.data());
    verdicts += scored.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  state.counters["verdicts_per_s"] = benchmark::Counter(
      static_cast<double>(verdicts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MonitorWindowedEndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(vqoe::bench::perf_defaults);

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
