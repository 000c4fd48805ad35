// Hot-swap determinism (the ISSUE-9 acceptance): swapping the model at an
// epoch mid-stream is bit-identical — sessions and window verdicts, exact
// doubles — to a sequential run that splits scoring between model A and
// model B at the same epoch, at 1/2/4/8 shards. The sequential composite
// replicates the engine's watermark cadence and applies
// OnlineMonitor::swap_pipeline at the same stream position the engine's
// broadcast swap item lands (immediately before the epoch tick), so both
// paths run the identical code over identical chunk spans with the
// identical model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/engine/engine.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::engine {
namespace {

using core::CompletedSession;
using core::OnlineMonitor;
using core::OnlineMonitorConfig;
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

std::vector<VerdictKey> sorted_verdict_keys(
    const std::vector<WindowVerdict>& all) {
  std::vector<VerdictKey> keys;
  keys.reserve(all.size());
  for (const auto& v : all) keys.push_back(key_of(v));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Everything externally observable about a completed session, doubles
/// exact.
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

std::vector<SessionKey> sorted_session_keys(
    const std::vector<CompletedSession>& all) {
  std::vector<SessionKey> keys;
  keys.reserve(all.size());
  for (const auto& s : all) keys.push_back(key_of(s));
  std::sort(keys.begin(), keys.end());
  return keys;
}

class SwapDeterminismTest : public ::testing::Test {
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

    auto live_options = workload::encrypted_corpus_options(40, 37);
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

  static std::shared_ptr<const QoePipeline> model_a_;
  static std::shared_ptr<const QoePipeline> model_b_;
  static std::unique_ptr<std::vector<trace::WeblogRecord>> records_;
};

std::shared_ptr<const QoePipeline> SwapDeterminismTest::model_a_;
std::shared_ptr<const QoePipeline> SwapDeterminismTest::model_b_;
std::unique_ptr<std::vector<trace::WeblogRecord>>
    SwapDeterminismTest::records_;

/// Sequential ground truth: one OnlineMonitor on model A, the engine's
/// watermark cadence replicated, and swap_pipeline(B) applied exactly
/// where the engine's broadcast lands — before the first epoch tick at or
/// after `swap_index` (or before flush, mirroring stop_workers, if no tick
/// follows). With interval <= 0 the swap applies at the call position.
std::pair<std::vector<WindowVerdict>, std::vector<CompletedSession>>
composite_run(const std::shared_ptr<const QoePipeline>& model_a,
              const std::shared_ptr<const QoePipeline>& model_b,
              std::size_t swap_index, const OnlineMonitorConfig& config,
              const std::vector<trace::WeblogRecord>& records,
              double watermark_interval_s) {
  OnlineMonitor monitor{model_a, config};
  std::shared_ptr<const QoePipeline> pending;
  std::vector<CompletedSession> sessions;
  const auto take = [&sessions](std::vector<CompletedSession>&& done) {
    sessions.insert(sessions.end(), std::make_move_iterator(done.begin()),
                    std::make_move_iterator(done.end()));
  };
  bool saw_record = false;
  double last_watermark_s = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == swap_index) {
      pending = model_b;
      if (watermark_interval_s <= 0.0) {
        monitor.swap_pipeline(std::move(pending));
        pending = nullptr;
      }
    }
    const auto& record = records[i];
    if (watermark_interval_s > 0.0) {
      if (!saw_record) {
        saw_record = true;
        last_watermark_s = record.timestamp_s;
      } else if (record.timestamp_s - last_watermark_s >=
                 watermark_interval_s) {
        last_watermark_s = record.timestamp_s;
        if (pending) {
          monitor.swap_pipeline(std::move(pending));
          pending = nullptr;
        }
        take(monitor.advance_to(record.timestamp_s));
      }
    }
    take(monitor.ingest(record));
  }
  if (pending) monitor.swap_pipeline(std::move(pending));
  take(monitor.flush());
  return {monitor.take_verdicts(), std::move(sessions)};
}

TEST_F(SwapDeterminismTest, SwapMatchesSequentialSplitAcrossShardCounts) {
  OnlineMonitorConfig monitor_config;
  monitor_config.window.length_s = 10.0;
  const double interval = EngineConfig{}.watermark_interval_s;
  const std::size_t swap_at = records_->size() / 2;

  const auto [expected_verdicts, expected_sessions] = composite_run(
      model_a_, model_b_, swap_at, monitor_config, *records_, interval);
  ASSERT_FALSE(expected_verdicts.empty());
  ASSERT_FALSE(expected_sessions.empty());
  const auto expected_vkeys = sorted_verdict_keys(expected_verdicts);
  const auto expected_skeys = sorted_session_keys(expected_sessions);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    EngineConfig config;
    config.shards = shards;
    config.queue_capacity = 256;
    config.backpressure = BackpressurePolicy::Block;
    config.monitor = monitor_config;
    MonitorEngine engine{model_a_, config};

    std::vector<WindowVerdict> verdicts;
    for (std::size_t i = 0; i < records_->size(); ++i) {
      if (i == swap_at) engine.swap_model(model_b_);
      ASSERT_TRUE(engine.ingest((*records_)[i]));
      if (i % 1024 == 0) {
        auto got = engine.harvest_verdicts();
        verdicts.insert(verdicts.end(), std::make_move_iterator(got.begin()),
                        std::make_move_iterator(got.end()));
      }
    }
    const auto sessions = engine.drain();
    auto got = engine.harvest_verdicts();
    verdicts.insert(verdicts.end(), std::make_move_iterator(got.begin()),
                    std::make_move_iterator(got.end()));

    EXPECT_EQ(sorted_verdict_keys(verdicts), expected_vkeys)
        << shards << " shards";
    EXPECT_EQ(sorted_session_keys(sessions), expected_skeys)
        << shards << " shards";

    // The swap landed exactly once on every shard.
    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.model_generation, 1u) << shards << " shards";
    for (const auto& s : stats.shards) {
      EXPECT_EQ(s.model_generation, 1u);
    }
  }
}

TEST_F(SwapDeterminismTest, ImmediateSwapWithoutWatermarkClock) {
  OnlineMonitorConfig monitor_config;
  monitor_config.window.length_s = 10.0;
  const std::size_t swap_at = records_->size() / 3;

  const auto [expected_verdicts, expected_sessions] = composite_run(
      model_a_, model_b_, swap_at, monitor_config, *records_, 0.0);
  const auto expected_vkeys = sorted_verdict_keys(expected_verdicts);
  const auto expected_skeys = sorted_session_keys(expected_sessions);

  for (const std::size_t shards : {1u, 4u}) {
    EngineConfig config;
    config.shards = shards;
    config.queue_capacity = 256;
    config.backpressure = BackpressurePolicy::Block;
    config.watermark_interval_s = 0.0;  // swap applies at the call position
    config.monitor = monitor_config;
    MonitorEngine engine{model_a_, config};
    for (std::size_t i = 0; i < records_->size(); ++i) {
      if (i == swap_at) engine.swap_model(model_b_);
      ASSERT_TRUE(engine.ingest((*records_)[i]));
    }
    const auto sessions = engine.drain();
    EXPECT_EQ(sorted_verdict_keys(engine.harvest_verdicts()), expected_vkeys)
        << shards << " shards";
    EXPECT_EQ(sorted_session_keys(sessions), expected_skeys)
        << shards << " shards";
  }
}

TEST_F(SwapDeterminismTest, SwapJustBeforeDrainStillApplies) {
  // No watermark fires after the swap request: stop_workers must deliver
  // it so the final flush scores with the requested model.
  EngineConfig config;
  config.shards = 2;
  config.monitor.window.length_s = 10.0;
  MonitorEngine engine{model_a_, config};
  for (const auto& record : *records_) ASSERT_TRUE(engine.ingest(record));
  engine.swap_model(model_b_);
  (void)engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.model_generation, 1u);
}

TEST_F(SwapDeterminismTest, RepeatedSwapsAllLand) {
  EngineConfig config;
  config.shards = 4;
  config.watermark_interval_s = 0.0;
  MonitorEngine engine{model_a_, config};
  const std::size_t step = records_->size() / 4;
  std::size_t swaps = 0;
  for (std::size_t i = 0; i < records_->size(); ++i) {
    if (i > 0 && i % step == 0 && swaps < 3) {
      engine.swap_model((swaps % 2 == 0) ? model_b_ : model_a_);
      ++swaps;
    }
    ASSERT_TRUE(engine.ingest((*records_)[i]));
  }
  (void)engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.model_generation, swaps);
  EXPECT_EQ(stats.dropped, 0u);
}

}  // namespace
}  // namespace vqoe::engine
