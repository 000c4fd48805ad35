// MonitorEngine invariants.
//
// The core one (ISSUE acceptance): with the lossless Block policy the
// engine is *deterministically equivalent* to a sequential OnlineMonitor —
// same records in, same multiset of CompletedSession reports out, for any
// shard count and for every ServiceTraits profile. Plus: the watermark
// clock closes sessions on idle shards mid-stream, and DropNewest sheds
// records while keeping counters consistent and reports well-formed.
#include "vqoe/engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "vqoe/workload/corpus.h"
#include "vqoe/workload/service.h"

namespace vqoe::engine {
namespace {

using core::CompletedSession;
using core::OnlineMonitor;
using core::OnlineMonitorConfig;
using core::QoePipeline;

/// Everything externally observable about a completed session. Doubles are
/// compared exactly: both paths run the identical code on identical chunks.
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

std::vector<SessionKey> sorted_keys(const std::vector<CompletedSession>& all) {
  std::vector<SessionKey> keys;
  keys.reserve(all.size());
  for (const auto& s : all) keys.push_back(key_of(s));
  std::sort(keys.begin(), keys.end());
  return keys;
}

OnlineMonitorConfig monitor_config_for(const workload::ServiceTraits& service) {
  OnlineMonitorConfig config;
  config.reconstruction.cdn_suffixes = service.cdn_suffixes();
  config.reconstruction.page_marker_hosts = service.page_marker_hosts();
  config.reconstruction.service_suffixes = service.service_suffixes();
  return config;
}

class MonitorEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto train_options = workload::has_corpus_options(300, 171);
    train_options.keep_session_results = false;
    pipeline_ = std::make_shared<const QoePipeline>(QoePipeline::train(
        core::sessions_from_corpus(workload::generate_corpus(train_options))));
  }
  static void TearDownTestSuite() { pipeline_.reset(); }

  static std::shared_ptr<const QoePipeline> pipeline_;
};

std::shared_ptr<const QoePipeline> MonitorEngineTest::pipeline_;

/// A hand-built media chunk on the default (YouTube) CDN.
trace::WeblogRecord media_record(const std::string& subscriber, double t_s,
                                 std::uint64_t bytes = 900'000) {
  trace::WeblogRecord r;
  r.subscriber_id = subscriber;
  r.timestamp_s = t_s;
  r.transaction_time_s = 0.0;
  r.object_size_bytes = bytes;
  r.host = "r3---sn-h5q7dne7.googlevideo.com";
  r.kind = trace::RecordKind::media;
  r.encrypted = true;
  return r;
}

TEST_F(MonitorEngineTest, RouterIsStableAndInRange) {
  const ShardRouter router(4);
  for (int i = 0; i < 100; ++i) {
    const std::string subscriber = "sub-" + std::to_string(i);
    const std::size_t shard = router.shard_of(subscriber);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, router.shard_of(subscriber));  // deterministic
  }
  // All four services' subscribers spread over more than one shard.
  std::vector<bool> hit(4, false);
  for (int i = 0; i < 100; ++i) hit[router.shard_of("sub-" + std::to_string(i))] = true;
  EXPECT_GT(std::count(hit.begin(), hit.end(), true), 1);
}

TEST_F(MonitorEngineTest, EquivalentToSequentialMonitorAcrossShardCountsAndServices) {
  const std::vector<workload::ServiceTraits> services = {
      workload::youtube_service(), workload::vimeo_like_service(),
      workload::dailymotion_like_service(), workload::netflix_like_service()};

  std::uint64_t seed = 1800;
  for (const auto& service : services) {
    auto live_options = workload::encrypted_corpus_options(40, seed++);
    live_options.service = service;
    live_options.subscribers = 16;  // spread load over the shards
    live_options.keep_session_results = false;
    auto corpus = workload::generate_corpus(live_options);
    const auto records = trace::encrypt_view(std::move(corpus.weblogs));
    ASSERT_FALSE(records.empty()) << service.name;

    const OnlineMonitorConfig monitor_config = monitor_config_for(service);

    // Sequential ground truth.
    OnlineMonitor sequential{*pipeline_, monitor_config};
    std::vector<CompletedSession> expected;
    for (const auto& record : records) {
      auto done = sequential.ingest(record);
      expected.insert(expected.end(), std::make_move_iterator(done.begin()),
                      std::make_move_iterator(done.end()));
    }
    auto rest = sequential.flush();
    expected.insert(expected.end(), std::make_move_iterator(rest.begin()),
                    std::make_move_iterator(rest.end()));
    ASSERT_FALSE(expected.empty()) << service.name;
    const auto expected_keys = sorted_keys(expected);

    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      EngineConfig config;
      config.shards = shards;
      config.queue_capacity = 256;
      config.backpressure = BackpressurePolicy::Block;
      config.monitor = monitor_config;
      MonitorEngine engine{pipeline_, config};

      std::vector<CompletedSession> actual;
      std::size_t fed = 0;
      for (const auto& record : records) {
        ASSERT_TRUE(engine.ingest(record));
        if (++fed % 1024 == 0) {  // interleave mid-stream harvesting
          auto got = engine.harvest();
          actual.insert(actual.end(), std::make_move_iterator(got.begin()),
                        std::make_move_iterator(got.end()));
        }
      }
      auto got = engine.drain();
      actual.insert(actual.end(), std::make_move_iterator(got.begin()),
                    std::make_move_iterator(got.end()));

      EXPECT_EQ(sorted_keys(actual), expected_keys)
          << service.name << " with " << shards << " shards";

      const EngineStats stats = engine.stats();
      EXPECT_EQ(stats.records_in, stats.records_out) << service.name;
      EXPECT_EQ(stats.dropped, 0u) << service.name;
      EXPECT_EQ(stats.sessions_reported, actual.size()) << service.name;
      EXPECT_EQ(stats.shards.size(), shards);
    }
  }
}

TEST_F(MonitorEngineTest, ViewIngestIsIdenticalToRecordIngest) {
  // The wire collector's zero-copy path feeds ingest(WeblogRecordView)
  // instead of ingest(WeblogRecord). Identical feed, identical outputs —
  // the view overload only changes where the materialization happens.
  auto live_options = workload::encrypted_corpus_options(40, 1866);
  live_options.subscribers = 16;
  live_options.keep_session_results = false;
  const auto records =
      trace::encrypt_view(workload::generate_corpus(live_options).weblogs);
  ASSERT_FALSE(records.empty());

  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineConfig config;
    config.shards = shards;
    MonitorEngine by_record{pipeline_, config};
    MonitorEngine by_view{pipeline_, config};
    for (const auto& record : records) {
      ASSERT_TRUE(by_record.ingest(record));
      ASSERT_TRUE(by_view.ingest(trace::WeblogRecordView::of(record)));
    }
    const auto expected = sorted_keys(by_record.drain());
    EXPECT_EQ(sorted_keys(by_view.drain()), expected);
    EXPECT_FALSE(expected.empty());

    const EngineStats record_stats = by_record.stats();
    const EngineStats view_stats = by_view.stats();
    EXPECT_EQ(view_stats.records_in, record_stats.records_in);
    EXPECT_EQ(view_stats.records_out, record_stats.records_out);
    for (std::size_t i = 0; i < shards; ++i) {
      EXPECT_EQ(view_stats.shards[i].records_out,
                record_stats.shards[i].records_out);
    }
  }
}

TEST_F(MonitorEngineTest, WatermarkClosesSessionsOnIdleShards) {
  EngineConfig config;
  config.shards = 2;
  config.watermark_interval_s = 5.0;
  MonitorEngine engine{pipeline_, config};

  // Subscriber A streams three chunks and goes silent.
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(engine.ingest(media_record("sub-a", 1.0 + i)));

  // Subscriber B shows up far past A's idle gap; the piggybacked watermark
  // broadcast must close A's session on A's shard even though that shard
  // never sees another record for A.
  ASSERT_TRUE(engine.ingest(media_record("sub-b", 500.0)));

  std::vector<CompletedSession> harvested;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (harvested.empty() && std::chrono::steady_clock::now() < deadline) {
    harvested = engine.harvest();
    if (harvested.empty())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harvested.size(), 1u);
  EXPECT_EQ(harvested.front().subscriber_id, "sub-a");
  EXPECT_EQ(harvested.front().chunk_count, 3u);

  // Explicit advance_to ticks work the same way for B.
  engine.advance_to(1000.0);
  auto done = engine.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done.front().subscriber_id, "sub-b");
}

TEST_F(MonitorEngineTest, DropNewestShedsButStaysConsistent) {
  auto live_options = workload::encrypted_corpus_options(60, 1901);
  live_options.subscribers = 8;
  live_options.keep_session_results = false;
  auto corpus = workload::generate_corpus(live_options);
  const auto records = trace::encrypt_view(std::move(corpus.weblogs));

  EngineConfig config;
  config.shards = 2;
  config.queue_capacity = 2;  // force overflow
  config.backpressure = BackpressurePolicy::DropNewest;
  MonitorEngine engine{pipeline_, config};

  std::uint64_t rejected = 0;
  for (const auto& record : records) {
    if (!engine.ingest(record)) ++rejected;
  }
  const auto sessions = engine.drain();
  const EngineStats stats = engine.stats();

  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.dropped, rejected);
  EXPECT_EQ(stats.records_in, stats.records_out + stats.dropped);
  EXPECT_EQ(stats.records_in, records.size());
  EXPECT_EQ(stats.sessions_reported, sessions.size());

  // Whatever survived the shedding is still a well-formed report.
  for (const auto& s : sessions) {
    EXPECT_FALSE(s.subscriber_id.empty());
    EXPECT_GE(s.chunk_count, config.monitor.min_chunks);
    EXPECT_GE(s.end_time_s, s.start_time_s);
  }
}

TEST_F(MonitorEngineTest, IngestAfterDrainIsRejected) {
  MonitorEngine engine{pipeline_};
  ASSERT_TRUE(engine.ingest(media_record("sub-a", 1.0)));
  (void)engine.drain();
  EXPECT_FALSE(engine.ingest(media_record("sub-a", 2.0)));
  EXPECT_TRUE(engine.drain().empty());  // idempotent
}

TEST_F(MonitorEngineTest, PerShardIngestTimeIsAccounted) {
  MonitorEngine engine{pipeline_};
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(engine.ingest(media_record("sub-" + std::to_string(i % 8),
                                           1.0 + 0.1 * i)));
  (void)engine.drain();
  const EngineStats stats = engine.stats();
  std::uint64_t total_ns = 0;
  for (const auto& shard : stats.shards) total_ns += shard.ingest_ns;
  EXPECT_GT(total_ns, 0u);
  EXPECT_EQ(stats.records_out, 50u);
}

}  // namespace
}  // namespace vqoe::engine
