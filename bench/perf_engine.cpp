// Engine throughput benchmarks (google-benchmark, same JSON shape as
// perf_pipeline via --benchmark_format=json): records/sec of the sharded
// MonitorEngine at 1/2/4/8 shards against the single-threaded
// OnlineMonitor baseline, plus the raw SPSC ring transfer rate.
//
// This backs the ISSUE-1 scaling claim: the per-record monitor work
// (session bookkeeping + model inference at close) is what bounds a
// single ingest thread, and hash-sharding by subscriber parallelizes it
// without giving up the per-subscriber ordering the monitor needs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "bench_json.h"
#include "vqoe/core/online.h"
#include "vqoe/engine/engine.h"
#include "vqoe/lifecycle/drift.h"
#include "vqoe/mem/arena.h"
#include "vqoe/workload/corpus.h"

namespace {

using namespace vqoe;

const std::shared_ptr<const core::QoePipeline>& trained_pipeline() {
  static const auto pipeline = std::make_shared<const core::QoePipeline>([] {
    auto options = workload::has_corpus_options(400, 42);
    options.keep_session_results = false;
    return core::QoePipeline::train(
        core::sessions_from_corpus(workload::generate_corpus(options)));
  }());
  return pipeline;
}

/// A multi-subscriber encrypted day of traffic — the operator's live feed.
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

void BM_SingleThreadedMonitor(benchmark::State& state) {
  const auto& records = live_records();
  for (auto _ : state) {
    core::OnlineMonitor monitor{trained_pipeline()};
    std::size_t completed = 0;
    for (const auto& record : records) completed += monitor.ingest(record).size();
    completed += monitor.flush().size();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_SingleThreadedMonitor)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

void BM_EngineThroughput(benchmark::State& state) {
  const auto& records = live_records();
  std::size_t completed = 0;
  std::size_t queue_peak = 0;
  for (auto _ : state) {
    engine::EngineConfig config;
    config.shards = static_cast<std::size_t>(state.range(0));
    config.queue_capacity = 4096;
    config.backpressure = engine::BackpressurePolicy::Block;
    engine::MonitorEngine eng{trained_pipeline(), config};
    for (const auto& record : records) eng.ingest(record);
    completed += eng.drain().size();
    for (const auto& shard : eng.stats().shards) {
      queue_peak = std::max(queue_peak, shard.queue_peak);
    }
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  state.counters["shards"] = static_cast<double>(state.range(0));
  // How full the busiest shard queue got: capacity here means ingest was
  // fully backpressured, small numbers mean the workers kept up.
  state.counters["queue_peak"] = static_cast<double>(queue_peak);
}
BENCHMARK(BM_EngineThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// Engine throughput with the live verdict stream on: every shard's
/// monitor runs 10-second tumbling windows and a harvester thread drains
/// verdicts concurrently — the full operator deployment shape. The
/// windows/verdicts counters surface the ShardStats accounting so the JSON
/// row records how much mid-session output the run produced.
void BM_EngineThroughputWindowed(benchmark::State& state) {
  const auto& records = live_records();
  std::uint64_t windows = 0;
  std::uint64_t verdicts = 0;
  std::size_t harvested = 0;
  for (auto _ : state) {
    engine::EngineConfig config;
    config.shards = static_cast<std::size_t>(state.range(0));
    config.queue_capacity = 4096;
    config.backpressure = engine::BackpressurePolicy::Block;
    config.monitor.window.length_s = 10.0;
    config.monitor.window.min_chunks = 2;
    engine::MonitorEngine eng{trained_pipeline(), config};
    std::size_t fed = 0;
    for (const auto& record : records) {
      eng.ingest(record);
      if (++fed % 4096 == 0) harvested += eng.harvest_verdicts().size();
    }
    benchmark::DoNotOptimize(eng.drain().size());
    harvested += eng.harvest_verdicts().size();
    const auto stats = eng.stats();
    windows += stats.windows_emitted;
    verdicts += stats.verdicts_emitted;
  }
  benchmark::DoNotOptimize(harvested);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  const double per_iter = 1.0 / static_cast<double>(state.iterations());
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["windows"] = static_cast<double>(windows) * per_iter;
  state.counters["verdicts"] = static_cast<double>(verdicts) * per_iter;
}
BENCHMARK(BM_EngineThroughputWindowed)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// A second pipeline trained on a different corpus draw — the hot-swap /
/// shadow candidate.
std::shared_ptr<const core::QoePipeline> shadow_pipeline() {
  static const auto pipeline = std::make_shared<const core::QoePipeline>([] {
    auto options = workload::has_corpus_options(400, 43);
    options.keep_session_results = false;
    return core::QoePipeline::train(
        core::sessions_from_corpus(workload::generate_corpus(options)));
  }());
  return pipeline;
}

/// Paired baseline-vs-lifecycle ingest (ISSUE-9): the same sharded engine
/// over the same record stream with the model-lifecycle instrumentation on
/// — per-shard drift tracking against a load-time reference plus a shadow
/// model scoring every session/window alongside the active one. Budget:
/// items_per_second within 10% of BM_EngineThroughput at the same shard
/// count. The drift/divergence counters land in the JSON row so a
/// regression in *what* the instrumentation measures is as visible as a
/// regression in what it costs.
void BM_EngineThroughputLifecycle(benchmark::State& state) {
  const auto& records = live_records();
  std::size_t completed = 0;
  double drift = 0.0;
  double divergence = 0.0;
  std::uint64_t scored = 0;
  for (auto _ : state) {
    engine::EngineConfig config;
    config.shards = static_cast<std::size_t>(state.range(0));
    config.queue_capacity = 4096;
    config.backpressure = engine::BackpressurePolicy::Block;
    config.drift.enabled = true;
    config.shadow = shadow_pipeline();
    engine::MonitorEngine eng{trained_pipeline(), config};
    for (const auto& record : records) eng.ingest(record);
    completed += eng.drain().size();
    const auto stats = eng.stats();
    drift = stats.drift_distance;
    divergence = stats.shadow_divergence;
    scored += stats.shadow_scored;
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["drift_distance"] = drift;
  state.counters["shadow_divergence"] = divergence;
  state.counters["shadow_scored"] =
      static_cast<double>(scored) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_EngineThroughputLifecycle)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// The chunk views of 1200 seeded all-adaptive sessions: what a shard's
/// drift tracker is handed at session close.
const std::vector<std::vector<core::ChunkObs>>& drift_sessions() {
  static const auto sessions = [] {
    auto options = workload::cleartext_corpus_options(1200, 98);
    options.adaptive_fraction = 1.0;
    options.keep_session_results = false;
    std::vector<std::vector<core::ChunkObs>> out;
    for (auto& session :
         core::sessions_from_corpus(workload::generate_corpus(options))) {
      out.push_back(std::move(session.chunks));
    }
    return out;
  }();
  return sessions;
}

/// Drift's cost per closed session on its own (lifecycle::DriftMonitor,
/// default DriftConfig): each iteration starts from a tracker whose
/// reference is frozen and whose reservoirs are empty, and observes the
/// remaining sessions — the reservoirs fill, then start replacing, and
/// the KS distances are refreshed every recompute_every sessions.
/// us_per_session is the figure the livebench ledger reports as
/// lifecycle.drift_us_per_session.
void BM_DriftObserve(benchmark::State& state) {
  const auto& sessions = drift_sessions();
  lifecycle::DriftConfig config;
  config.enabled = true;
  lifecycle::DriftMonitor warm{config, 0};
  for (std::size_t i = 0; i < config.reference_sessions; ++i) {
    warm.observe(sessions[i]);
  }
  const std::size_t per_pass = sessions.size() - config.reference_sessions;
  double distance = 0.0;
  for (auto _ : state) {
    lifecycle::DriftMonitor drift = warm;
    for (std::size_t i = config.reference_sessions; i < sessions.size(); ++i) {
      drift.observe(sessions[i]);
    }
    distance = drift.distance();
    benchmark::DoNotOptimize(distance);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(per_pass));
  state.counters["us_per_session"] = benchmark::Counter(
      static_cast<double>(per_pass) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["drift_distance"] = distance;
}
BENCHMARK(BM_DriftObserve)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// Session churn on the per-monitor arena: 64 subscribers' sessions open
/// and close across the feed, and freed session state recirculates through
/// the arena's freelists. `allocs_per_krec` is fresh carves per 1000
/// records and `reuse_ratio` the share of block requests the freelists
/// served; after warm-up the freelists absorb churn almost entirely.
void monitor_churn(benchmark::State& state, std::size_t ceiling_bytes) {
  const auto& records = live_records();
  std::uint64_t fresh = 0;
  std::uint64_t reuses = 0;
  std::uint64_t allocs = 0;
  std::uint64_t evicted = 0;
  std::uint64_t footprint = 0;
  for (auto _ : state) {
    // Fresh monitor per iteration: the record stream restarts its clock, and
    // the intra-iteration session churn (64 subscribers x idle gaps) is what
    // exercises the freelists.
    core::OnlineMonitorConfig monitor_config;
    monitor_config.mem_ceiling_bytes = ceiling_bytes;
    core::OnlineMonitor monitor{trained_pipeline(), monitor_config};
    std::size_t completed = 0;
    for (const auto& record : records) {
      completed += monitor.ingest(record).size();
    }
    completed += monitor.flush().size();
    benchmark::DoNotOptimize(completed);
    const mem::SessionArenaStats& arena = monitor.arena().stats();
    fresh += arena.block_fresh;
    reuses += arena.block_reuses;
    allocs += arena.block_allocs;
    evicted += monitor.sessions_evicted();
    footprint = std::max(footprint, static_cast<std::uint64_t>(
                                        arena.footprint_bytes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  const double total_records = static_cast<double>(state.iterations()) *
                               static_cast<double>(records.size());
  state.counters["allocs_per_krec"] =
      1000.0 * static_cast<double>(fresh) / total_records;
  state.counters["reuse_ratio"] =
      allocs > 0
          ? static_cast<double>(reuses) / static_cast<double>(allocs)
          : 0.0;
  state.counters["footprint_kb"] = static_cast<double>(footprint) / 1024.0;
  if (ceiling_bytes > 0) {
    state.counters["evictions"] = static_cast<double>(evicted) /
                                  static_cast<double>(state.iterations());
  }
}

void BM_MonitorChurnArena(benchmark::State& state) {
  monitor_churn(state, 0);
}
BENCHMARK(BM_MonitorChurnArena)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// The bounded-memory deployment: a deliberately tight per-monitor ceiling
/// (256 KiB) forces LRU eviction through the close path under churn. The
/// interesting counters are evictions (how often the ceiling bit) and
/// footprint_kb (which must hold near the ceiling, not the unbounded high
/// water).
void BM_MonitorChurnArenaCeiling(benchmark::State& state) {
  monitor_churn(state, 256 * 1024);
}
BENCHMARK(BM_MonitorChurnArenaCeiling)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// Raw ring transfer rate: how fast the ingest channel itself moves items
/// (upper bound on per-shard routing throughput).
void BM_SpscQueueTransfer(benchmark::State& state) {
  constexpr std::size_t kBatch = 1 << 16;
  for (auto _ : state) {
    engine::SpscQueue<std::uint64_t> queue(1024);
    std::thread consumer([&queue] {
      std::uint64_t value = 0;
      std::size_t seen = 0;
      while (seen < kBatch) {
        if (queue.try_pop(value)) {
          ++seen;
        } else {
          std::this_thread::yield();
        }
      }
    });
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      std::uint64_t value = i;
      while (!queue.try_push(std::move(value))) std::this_thread::yield();
    }
    consumer.join();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SpscQueueTransfer)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

}  // namespace

VQOE_BENCHMARK_MAIN_JSON("BENCH_engine.json")
