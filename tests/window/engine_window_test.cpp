// MonitorEngine window-verdict invariants (the ISSUE acceptance): the
// engine emits per-window verdicts mid-session at 1/2/4/8 shards, the
// verdict stream is deterministically equivalent to a sequential
// OnlineMonitor fed the same records with the same watermark cadence, and
// a full-session window reproduces the session-close report bit-identically
// at every shard count.
#include "vqoe/engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "vqoe/workload/corpus.h"

namespace vqoe::engine {
namespace {

using core::CompletedSession;
using core::OnlineMonitor;
using core::OnlineMonitorConfig;
using core::QoePipeline;
using window::WindowVerdict;

/// Everything externally observable about a verdict. Doubles compared
/// exactly: both paths run the identical code on identical chunk spans.
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

std::vector<VerdictKey> sorted_keys(const std::vector<WindowVerdict>& all) {
  std::vector<VerdictKey> keys;
  keys.reserve(all.size());
  for (const auto& v : all) keys.push_back(key_of(v));
  std::sort(keys.begin(), keys.end());
  return keys;
}

class EngineWindowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto train_options = workload::has_corpus_options(300, 31);
    train_options.keep_session_results = false;
    pipeline_ = std::make_shared<const QoePipeline>(QoePipeline::train(
        core::sessions_from_corpus(workload::generate_corpus(train_options))));

    auto live_options = workload::encrypted_corpus_options(40, 37);
    live_options.subscribers = 16;
    live_options.keep_session_results = false;
    auto corpus = workload::generate_corpus(live_options);
    records_ = std::make_unique<std::vector<trace::WeblogRecord>>(
        trace::encrypt_view(std::move(corpus.weblogs)));
  }
  static void TearDownTestSuite() {
    pipeline_.reset();
    records_.reset();
  }

  static std::shared_ptr<const QoePipeline> pipeline_;
  static std::unique_ptr<std::vector<trace::WeblogRecord>> records_;
};

std::shared_ptr<const QoePipeline> EngineWindowTest::pipeline_;
std::unique_ptr<std::vector<trace::WeblogRecord>> EngineWindowTest::records_;

OnlineMonitorConfig windowed_monitor(double length_s, double hop_s = 0.0) {
  OnlineMonitorConfig config;
  config.window.length_s = length_s;
  config.window.hop_s = hop_s;
  return config;
}

/// Sequential ground truth with the engine's watermark cadence replicated:
/// the engine broadcasts a tick before routing the record whenever the
/// stream clock advanced a full interval, so the per-subscriber sequence
/// of (ticks, records) each monitor sees is shard-count invariant.
std::pair<std::vector<WindowVerdict>, std::vector<CompletedSession>>
sequential_run(const QoePipeline& pipeline, const OnlineMonitorConfig& config,
               const std::vector<trace::WeblogRecord>& records,
               double watermark_interval_s) {
  OnlineMonitor monitor{pipeline, config};
  std::vector<CompletedSession> sessions;
  bool saw_record = false;
  double last_watermark_s = 0.0;
  for (const auto& record : records) {
    if (watermark_interval_s > 0.0) {
      if (!saw_record) {
        saw_record = true;
        last_watermark_s = record.timestamp_s;
      } else if (record.timestamp_s - last_watermark_s >=
                 watermark_interval_s) {
        last_watermark_s = record.timestamp_s;
        auto done = monitor.advance_to(record.timestamp_s);
        sessions.insert(sessions.end(), std::make_move_iterator(done.begin()),
                        std::make_move_iterator(done.end()));
      }
    }
    auto done = monitor.ingest(record);
    sessions.insert(sessions.end(), std::make_move_iterator(done.begin()),
                    std::make_move_iterator(done.end()));
  }
  auto rest = monitor.flush();
  sessions.insert(sessions.end(), std::make_move_iterator(rest.begin()),
                  std::make_move_iterator(rest.end()));
  return {monitor.take_verdicts(), std::move(sessions)};
}

TEST_F(EngineWindowTest, VerdictStreamEquivalentAcrossShardCounts) {
  const OnlineMonitorConfig monitor_config = windowed_monitor(10.0);
  const double interval = EngineConfig{}.watermark_interval_s;
  const auto [expected_verdicts, expected_sessions] =
      sequential_run(*pipeline_, monitor_config, *records_, interval);
  ASSERT_FALSE(expected_verdicts.empty());
  const auto expected_keys = sorted_keys(expected_verdicts);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    EngineConfig config;
    config.shards = shards;
    config.queue_capacity = 256;
    config.backpressure = BackpressurePolicy::Block;
    config.monitor = monitor_config;
    MonitorEngine engine{pipeline_, config};

    std::vector<WindowVerdict> verdicts;
    std::size_t fed = 0;
    for (const auto& record : *records_) {
      ASSERT_TRUE(engine.ingest(record));
      if (++fed % 1024 == 0) {  // interleave mid-stream harvesting
        auto got = engine.harvest_verdicts();
        verdicts.insert(verdicts.end(), std::make_move_iterator(got.begin()),
                        std::make_move_iterator(got.end()));
      }
    }
    const auto sessions = engine.drain();
    auto got = engine.harvest_verdicts();
    verdicts.insert(verdicts.end(), std::make_move_iterator(got.begin()),
                    std::make_move_iterator(got.end()));

    EXPECT_EQ(sorted_keys(verdicts), expected_keys) << shards << " shards";
    EXPECT_EQ(sessions.size(), expected_sessions.size())
        << shards << " shards";

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.verdicts_emitted, expected_verdicts.size());
    std::uint64_t per_shard_sum = 0;
    for (const auto& s : stats.shards) per_shard_sum += s.verdicts_emitted;
    EXPECT_EQ(per_shard_sum, stats.verdicts_emitted);
    EXPECT_GE(stats.windows_emitted, stats.verdicts_emitted);
  }
}

TEST_F(EngineWindowTest, VerdictsArriveMidSession) {
  EngineConfig config;
  config.shards = 4;
  config.monitor = windowed_monitor(10.0);
  MonitorEngine engine{pipeline_, config};
  for (const auto& record : *records_) ASSERT_TRUE(engine.ingest(record));

  // All records are queued; the workers drain them asynchronously. Poll —
  // verdicts must surface while the engine is still live (before drain()).
  std::vector<WindowVerdict> live;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (live.empty() && std::chrono::steady_clock::now() < deadline) {
    auto got = engine.harvest_verdicts();
    live.insert(live.end(), std::make_move_iterator(got.begin()),
                std::make_move_iterator(got.end()));
    if (live.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(live.empty()) << "no verdicts before drain()";
  (void)engine.drain();
  const auto rest = engine.harvest_verdicts();
  EXPECT_GT(live.size() + rest.size(), 0u);
}

// ISSUE satellite 3 (engine half): hop = length = "longer than any
// session" makes every window a full-session window; its embedded report
// must equal the session-close report bit-identically at 1/2/4/8 shards.
TEST_F(EngineWindowTest, FullSessionWindowBitIdenticalAcrossShardCounts) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    EngineConfig config;
    config.shards = shards;
    config.queue_capacity = 256;
    config.monitor = windowed_monitor(1e9);
    MonitorEngine engine{pipeline_, config};

    for (const auto& record : *records_) ASSERT_TRUE(engine.ingest(record));
    const auto sessions = engine.drain();
    const auto verdicts = engine.harvest_verdicts();
    ASSERT_FALSE(sessions.empty()) << shards << " shards";
    ASSERT_EQ(verdicts.size(), sessions.size()) << shards << " shards";

    std::map<std::pair<std::string, double>, const WindowVerdict*> by_session;
    for (const auto& v : verdicts) {
      EXPECT_TRUE(v.final_window);
      by_session[{v.subscriber_id, v.end_s}] = &v;
    }
    for (const auto& s : sessions) {
      const auto it = by_session.find({s.subscriber_id, s.end_time_s});
      ASSERT_NE(it, by_session.end()) << shards << " shards";
      const WindowVerdict& v = *it->second;
      EXPECT_EQ(v.chunk_count, s.chunk_count);
      EXPECT_EQ(v.stall, static_cast<std::uint8_t>(s.report.stall));
      EXPECT_EQ(v.representation,
                static_cast<std::uint8_t>(s.report.representation));
      EXPECT_EQ(v.quality_switches, s.report.quality_switches);
      EXPECT_EQ(v.switch_score, s.report.switch_score);  // bit-identical
    }
  }
}

TEST_F(EngineWindowTest, SlidingWindowsAlsoEquivalent) {
  const OnlineMonitorConfig monitor_config = windowed_monitor(10.0, 5.0);
  const double interval = EngineConfig{}.watermark_interval_s;
  const auto [expected_verdicts, expected_sessions] =
      sequential_run(*pipeline_, monitor_config, *records_, interval);
  ASSERT_FALSE(expected_verdicts.empty());
  const auto expected_keys = sorted_keys(expected_verdicts);

  EngineConfig config;
  config.shards = 4;
  config.queue_capacity = 256;
  config.monitor = monitor_config;
  MonitorEngine engine{pipeline_, config};
  for (const auto& record : *records_) ASSERT_TRUE(engine.ingest(record));
  (void)engine.drain();
  EXPECT_EQ(sorted_keys(engine.harvest_verdicts()), expected_keys);
}

}  // namespace
}  // namespace vqoe::engine
