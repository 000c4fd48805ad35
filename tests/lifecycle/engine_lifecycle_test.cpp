// Lifecycle under full-rate ingest: the production wire shape (Probe →
// Collector event loop → MonitorEngine zero-copy ingest) with drift
// tracking and a shadow model enabled and a hot swap landing mid-stream,
// while another thread concurrently reads stats() and harvests verdicts.
// This is the lifecycle's TSan acceptance: the swap path, the lifecycle
// observers, and the published stats snapshot must all be clean under
// real concurrency. Companion tests pin that enabling drift + shadow does
// not perturb a single emitted verdict or session, and that every engine
// total is its counter-table row's fold over the shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "vqoe/engine/engine.h"
#include "vqoe/wire/transport.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::engine {
namespace {

using core::CompletedSession;
using core::QoePipeline;
using window::WindowVerdict;

using VerdictKey =
    std::tuple<std::string, std::uint64_t, double, double, std::uint32_t,
               bool, int, int, bool, double, double, double, double, double>;

VerdictKey key_of(const WindowVerdict& v) {
  return {v.subscriber_id,
          v.window_index,
          v.start_s,
          v.end_s,
          v.chunk_count,
          v.final_window,
          static_cast<int>(v.stall),
          static_cast<int>(v.representation),
          v.quality_switches,
          v.switch_score,
          v.stall_confidence,
          v.repr_confidence,
          v.window_cusum,
          v.mean_goodput_kbps};
}

using SessionKey = std::tuple<std::string, double, double, std::size_t, int,
                              int, bool, double>;

SessionKey key_of(const CompletedSession& s) {
  return {s.subscriber_id,
          s.start_time_s,
          s.end_time_s,
          s.chunk_count,
          static_cast<int>(s.report.stall),
          static_cast<int>(s.report.representation),
          s.report.quality_switches,
          s.report.switch_score};
}

template <typename T>
std::vector<decltype(key_of(std::declval<const T&>()))> sorted_keys(
    const std::vector<T>& all) {
  std::vector<decltype(key_of(std::declval<const T&>()))> keys;
  keys.reserve(all.size());
  for (const auto& item : all) keys.push_back(key_of(item));
  std::sort(keys.begin(), keys.end());
  return keys;
}

class EngineLifecycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto train = [](std::uint64_t seed) {
      auto options = workload::has_corpus_options(250, seed);
      options.keep_session_results = false;
      return std::make_shared<const QoePipeline>(QoePipeline::train(
          core::sessions_from_corpus(workload::generate_corpus(options))));
    };
    model_a_ = train(31);
    model_b_ = train(77);

    auto live_options = workload::encrypted_corpus_options(40, 21);
    live_options.subscribers = 16;
    live_options.keep_session_results = false;
    auto corpus = workload::generate_corpus(live_options);
    records_ = std::make_unique<std::vector<trace::WeblogRecord>>(
        trace::encrypt_view(std::move(corpus.weblogs)));
  }
  static void TearDownTestSuite() {
    model_a_.reset();
    model_b_.reset();
    records_.reset();
  }

  static EngineConfig lifecycle_config(std::size_t shards) {
    EngineConfig config;
    config.shards = shards;
    config.backpressure = BackpressurePolicy::Block;
    config.monitor.window.length_s = 10.0;
    config.drift.enabled = true;
    config.drift.reference_sessions = 32;
    config.drift.min_current = 8;
    config.shadow = model_b_;
    return config;
  }

  static std::shared_ptr<const QoePipeline> model_a_;
  static std::shared_ptr<const QoePipeline> model_b_;
  static std::unique_ptr<std::vector<trace::WeblogRecord>> records_;
};

std::shared_ptr<const QoePipeline> EngineLifecycleTest::model_a_;
std::shared_ptr<const QoePipeline> EngineLifecycleTest::model_b_;
std::unique_ptr<std::vector<trace::WeblogRecord>>
    EngineLifecycleTest::records_;

TEST_F(EngineLifecycleTest, HotSwapUnderFullRateWireIngestIsClean) {
  MonitorEngine engine{model_a_, lifecycle_config(4)};

  wire::CollectorConfig collector_config;
  collector_config.port = 0;
  collector_config.expected_probes = 1;
  wire::Collector collector{collector_config};

  // The sink runs on the collector's event-loop thread — the engine's
  // ingest thread — so that is where the swap request belongs, exactly as
  // in vqoe_collector's --model-watch path.
  const std::size_t swap_at = records_->size() / 2;
  std::atomic<bool> server_done{false};
  wire::CollectorStats stats;
  std::thread server([&] {
    std::size_t seen = 0;
    stats =
        collector.run(wire::Collector::ViewSink([&](const auto& view) {
          if (seen++ == swap_at) engine.swap_model(model_b_);
          engine.ingest(view);
        }));
    server_done.store(true, std::memory_order_release);
  });

  std::thread sender([&] {
    wire::ProbeOptions options;
    options.port = collector.port();
    options.batch_records = 64;
    wire::Probe probe{options};
    probe.send(*records_);
    probe.finish();
  });

  // Concurrent observers: stats() and harvest_verdicts() from a thread
  // that is neither the ingest thread nor a worker. TSan referees.
  std::size_t verdicts_seen = 0;
  while (!server_done.load(std::memory_order_acquire)) {
    const EngineStats snapshot = engine.stats();
    EXPECT_LE(snapshot.records_out, snapshot.records_in);
    EXPECT_GE(snapshot.drift_distance, 0.0);
    EXPECT_LE(snapshot.drift_distance, 1.0);
    verdicts_seen += engine.harvest_verdicts().size();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sender.join();
  server.join();
  ASSERT_EQ(stats.records_emitted, records_->size());

  const auto sessions = engine.drain();
  verdicts_seen += engine.harvest_verdicts().size();
  const EngineStats final_stats = engine.stats();

  EXPECT_EQ(final_stats.records_out, records_->size());
  EXPECT_EQ(final_stats.dropped, 0u);
  EXPECT_GT(sessions.size() + final_stats.sessions_discarded, 0u);
  EXPECT_GT(verdicts_seen, 0u);

  // The swap landed on every shard.
  EXPECT_EQ(final_stats.model_generation, 1u);
  for (const auto& shard : final_stats.shards) {
    EXPECT_EQ(shard.model_generation, 1u);
  }

  // Lifecycle instrumentation actually ran.
  EXPECT_GT(final_stats.shadow_scored, 0u);
  EXPECT_LE(final_stats.shadow_disagreements, final_stats.shadow_scored);
  EXPECT_GE(final_stats.shadow_divergence, 0.0);
  EXPECT_LE(final_stats.shadow_divergence, 1.0);
  EXPECT_GE(final_stats.drift_distance, 0.0);
  EXPECT_LE(final_stats.drift_distance, 1.0);
}

TEST_F(EngineLifecycleTest, EveryTotalIsItsRowsFoldOverShards) {
  // stats() folds the shards by the counter table's merge rules; recompute
  // every row's fold from the per-shard breakdown of the same snapshot,
  // mid-stream and drained, with every counter source switched on.
  const auto expect_folded = [](const EngineStats& stats, const char* when) {
    for_each_counter([&](const char* name, auto ShardStats::*field,
                         Merge merge) {
      auto expected = stats.shards.front().*field;
      for (std::size_t i = 1; i < stats.shards.size(); ++i) {
        const auto v = stats.shards[i].*field;
        if (merge == Merge::sum) {
          expected += v;
        } else if (merge == Merge::max) {
          expected = std::max(expected, v);
        } else {
          expected = std::min(expected, v);
        }
      }
      EXPECT_EQ(stats.*field, expected) << name << ", " << when;
    });
  };

  const std::size_t swap_at = records_->size() / 2;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    MonitorEngine engine{model_a_, lifecycle_config(shards)};
    for (std::size_t i = 0; i < records_->size(); ++i) {
      if (i == swap_at) engine.swap_model(model_b_);
      ASSERT_TRUE(engine.ingest((*records_)[i]));
      if (i % 512 == 0) expect_folded(engine.stats(), "mid-stream");
    }
    (void)engine.drain();
    const EngineStats stats = engine.stats();
    ASSERT_EQ(stats.shards.size(), shards);
    expect_folded(stats, "drained");
    // The counters the fold covers actually moved.
    EXPECT_EQ(stats.records_out, records_->size());
    EXPECT_EQ(stats.model_generation, 1u);
    EXPECT_GT(stats.windows_emitted, 0u);
    EXPECT_GT(stats.shadow_scored, 0u);
    EXPECT_GT(stats.ingest_ns, 0u);
    EXPECT_GT(stats.arena_high_water, 0u);
  }
}

TEST_F(EngineLifecycleTest, DriftAndShadowNeverPerturbOutputs) {
  // Identical engines, identical stream; one carries the full lifecycle
  // apparatus. Every emitted verdict and session must be bit-identical —
  // the observers have no output path.
  auto run = [&](const EngineConfig& config) {
    MonitorEngine engine{model_a_, config};
    for (const auto& record : *records_) EXPECT_TRUE(engine.ingest(record));
    auto sessions = engine.drain();
    return std::make_pair(sorted_keys(sessions),
                          sorted_keys(engine.harvest_verdicts()));
  };

  EngineConfig plain;
  plain.shards = 2;
  plain.monitor.window.length_s = 10.0;
  const auto expected = run(plain);

  const auto observed = run(lifecycle_config(2));
  EXPECT_EQ(observed.first, expected.first);
  EXPECT_EQ(observed.second, expected.second);
}

TEST_F(EngineLifecycleTest, ShadowCountsCoverSessionsAndWindows) {
  MonitorEngine engine{model_a_, lifecycle_config(2)};
  for (const auto& record : *records_) ASSERT_TRUE(engine.ingest(record));
  (void)engine.drain();
  const EngineStats stats = engine.stats();
  // Every reported/discarded session and every scored window passed
  // through the shadow scorer.
  EXPECT_GE(stats.shadow_scored, stats.sessions_reported);
  EXPECT_EQ(stats.model_generation, 0u);
}

}  // namespace
}  // namespace vqoe::engine
