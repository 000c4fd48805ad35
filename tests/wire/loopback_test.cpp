// Probe → collector → engine loopback equivalence (ISSUE 4 acceptance).
//
// Replaying a corpus over real TCP loopback — encode, frame, CRC, k-way
// merge across probe connections, decode — must be invisible to the
// monitoring pipeline: the engine's per-session detector outputs and
// per-shard records_out must be *bit-identical* to direct in-process
// Engine::ingest, at 1/2/4/8 shards and with 4 concurrent probes. Also
// covered here: the merged feed stays time-sorted, the spool tee captures
// a replayable copy, version negotiation refuses unsupported peers, and a
// probe that violates stream order (a key regression or a non-finite key)
// is cut off rather than merged.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "vqoe/engine/engine.h"
#include "vqoe/wire/spool.h"
#include "vqoe/wire/transport.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::wire {
namespace {

namespace fs = std::filesystem;
using core::CompletedSession;
using core::QoePipeline;

/// Everything externally observable about a completed session; doubles
/// compared exactly — both paths run identical code on identical bits
/// (tests/engine/engine_test.cpp uses the same key).
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

/// What one end-to-end run produced: session reports plus the engine's
/// per-shard consumption counters.
struct Outcome {
  std::vector<SessionKey> keys;
  std::vector<std::uint64_t> per_shard_records_out;
};

class LoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto train_options = workload::has_corpus_options(250, 171);
    train_options.keep_session_results = false;
    pipeline_ = std::make_shared<const QoePipeline>(QoePipeline::train(
        core::sessions_from_corpus(workload::generate_corpus(train_options))));

    auto live_options = workload::encrypted_corpus_options(60, 1844);
    live_options.subscribers = 24;  // spread load over shards and probes
    live_options.keep_session_results = false;
    live_ = std::make_unique<std::vector<trace::WeblogRecord>>(
        workload::generate_corpus(live_options).weblogs);
  }
  static void TearDownTestSuite() {
    pipeline_.reset();
    live_.reset();
  }

  static Outcome direct_outcome(const std::vector<trace::WeblogRecord>& records,
                                std::size_t shards) {
    engine::EngineConfig config;
    config.shards = shards;
    engine::MonitorEngine eng{pipeline_, config};
    for (const auto& record : records) eng.ingest(record);
    Outcome out;
    out.keys = sorted_keys(eng.drain());
    for (const auto& s : eng.stats().shards) {
      out.per_shard_records_out.push_back(s.records_out);
    }
    return out;
  }

  /// Full loop: `probes` concurrent Probe connections, each streaming its
  /// subscriber partition, merged by one Collector whose views go straight
  /// into Engine::ingest(WeblogRecordView).
  static Outcome loopback_outcome(
      const std::vector<trace::WeblogRecord>& records, std::size_t shards,
      std::size_t probes, SpoolWriter* tee = nullptr,
      std::size_t rx_slab_bytes = CollectorConfig{}.rx_slab_bytes) {
    engine::EngineConfig engine_config;
    engine_config.shards = shards;
    engine::MonitorEngine eng{pipeline_, engine_config};

    CollectorConfig config;
    config.port = 0;
    config.expected_probes = probes;
    config.tee = tee;
    config.rx_slab_bytes = rx_slab_bytes;
    Collector collector{config};

    CollectorStats stats;
    std::thread server([&] {
      stats = collector.run(
          [&](const trace::WeblogRecordView& view) { eng.ingest(view); });
    });

    std::vector<std::thread> senders;
    for (std::size_t i = 0; i < probes; ++i) {
      senders.emplace_back([&, i] {
        try {
          ProbeOptions options;
          options.port = collector.port();
          options.batch_records = 64;
          Probe probe{options};
          probe.send(partition_for_probe(records, i, probes));
          probe.finish();
        } catch (const std::exception& e) {
          ADD_FAILURE() << "probe " << i << " failed: " << e.what();
          collector.stop();
        }
      });
    }
    for (auto& t : senders) t.join();
    server.join();

    EXPECT_EQ(stats.probes_completed, probes);
    EXPECT_EQ(stats.records_emitted, records.size());
    EXPECT_EQ(stats.protocol_errors, 0u);
    EXPECT_EQ(stats.slabs_in_use, 0u);

    Outcome out;
    out.keys = sorted_keys(eng.drain());
    for (const auto& s : eng.stats().shards) {
      out.per_shard_records_out.push_back(s.records_out);
    }
    return out;
  }

  static std::shared_ptr<const QoePipeline> pipeline_;
  static std::unique_ptr<std::vector<trace::WeblogRecord>> live_;
};

std::shared_ptr<const QoePipeline> LoopbackTest::pipeline_;
std::unique_ptr<std::vector<trace::WeblogRecord>> LoopbackTest::live_;

TEST(SubscriberPartition, BucketsArePinnedForProbesAndShards) {
  // Probes and engine shards partition subscribers with one function,
  // trace::subscriber_bucket. The table pins its buckets at 1-8 buckets:
  // a change would move subscribers between probes and shards (and would
  // shift every recorded per-shard figure), so it must show as a diff.
  // The ids cover the empty id, bytes >= 0x80 (the hash reads bytes
  // unsigned) and the CSV-hostile comma.
  struct Pinned {
    const char* subscriber;
    std::size_t bucket[8];  // at 1, 2, ..., 8 buckets
  };
  const Pinned table[] = {
      {"", {0, 1, 2, 1, 2, 5, 2, 5}},
      {"a", {0, 0, 1, 0, 1, 4, 5, 4}},
      {"sub-0", {0, 0, 2, 0, 1, 2, 0, 0}},
      {"sub-1", {0, 1, 0, 3, 2, 3, 3, 3}},
      {"sub-42", {0, 0, 0, 2, 0, 0, 5, 2}},
      {"sub-1234", {0, 0, 1, 0, 3, 4, 2, 4}},
      {"sub-\xc3\xa9", {0, 0, 1, 0, 3, 4, 0, 0}},
      {"subscriber-with-a-long-id-0007", {0, 1, 0, 1, 0, 3, 2, 1}},
      {"sub,with,commas", {0, 1, 1, 1, 3, 1, 4, 1}},
      {"10.0.0.7", {0, 1, 0, 3, 1, 3, 2, 3}},
  };
  for (const Pinned& row : table) {
    for (std::size_t n = 1; n <= 8; ++n) {
      SCOPED_TRACE(std::string{row.subscriber} + " at " + std::to_string(n));
      EXPECT_EQ(trace::subscriber_bucket(row.subscriber, n),
                row.bucket[n - 1]);
      EXPECT_EQ(probe_of_subscriber(row.subscriber, n), row.bucket[n - 1]);
      EXPECT_EQ(engine::ShardRouter(n).shard_of(row.subscriber),
                row.bucket[n - 1]);
    }
  }
  // Zero buckets means one.
  EXPECT_EQ(probe_of_subscriber("sub-1", 0), 0u);
  EXPECT_EQ(engine::ShardRouter(0).shards(), 1u);
}

TEST_F(LoopbackTest, PartitionForProbeIsDisjointOrderPreservingAndComplete) {
  const auto& records = *live_;
  constexpr std::size_t kProbes = 4;
  std::size_t total = 0;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const auto part = partition_for_probe(records, i, kProbes);
    total += part.size();
    double last = -1.0;
    for (const auto& r : part) {
      EXPECT_EQ(probe_of_subscriber(r.subscriber_id, kProbes), i);
      EXPECT_GE(r.timestamp_s, last);  // feed order survives partitioning
      last = r.timestamp_s;
    }
    EXPECT_FALSE(part.empty());  // 24 subscribers spread over 4 probes
  }
  EXPECT_EQ(total, records.size());
}

TEST_F(LoopbackTest, SingleProbeMatchesDirectIngestAcrossShardCounts) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Outcome direct = direct_outcome(*live_, shards);
    const Outcome looped = loopback_outcome(*live_, shards, 1);
    EXPECT_EQ(direct.keys, looped.keys);
    EXPECT_EQ(direct.per_shard_records_out, looped.per_shard_records_out);
  }
}

TEST_F(LoopbackTest, FourConcurrentProbesMatchDirectIngestAcrossShardCounts) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Outcome direct = direct_outcome(*live_, shards);
    const Outcome looped = loopback_outcome(*live_, shards, 4);
    EXPECT_EQ(direct.keys, looped.keys);
    EXPECT_EQ(direct.per_shard_records_out, looped.per_shard_records_out);
  }
}

TEST_F(LoopbackTest, ZeroCopyViewSinkMatchesDirectIngestAcrossShardCounts) {
  // Small slabs, so plenty of frames straddle a slab edge and take the
  // assembly fallback instead of the in-place decode.
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const Outcome direct = direct_outcome(*live_, shards);
    const Outcome looped = loopback_outcome(*live_, shards, 4, nullptr, 4096);
    EXPECT_EQ(direct.keys, looped.keys);
    EXPECT_EQ(direct.per_shard_records_out, looped.per_shard_records_out);
  }
}

TEST_F(LoopbackTest, MergedFeedIsGloballyTimeSorted) {
  // No engine: collect the merged feed itself and check the watermark
  // precondition the collector exists to restore.
  constexpr std::size_t kProbes = 3;
  CollectorConfig config;
  config.port = 0;
  config.expected_probes = kProbes;
  Collector collector{config};

  std::vector<double> merged;
  std::thread server([&] {
    (void)collector.run([&](const trace::WeblogRecordView& view) {
      merged.push_back(view.timestamp_s);
    });
  });
  std::vector<std::thread> senders;
  for (std::size_t i = 0; i < kProbes; ++i) {
    senders.emplace_back([&, i] {
      ProbeOptions options;
      options.port = collector.port();
      options.batch_records = 32;
      Probe probe{options};
      probe.send(partition_for_probe(*live_, i, kProbes));
      probe.finish();
    });
  }
  for (auto& t : senders) t.join();
  server.join();

  ASSERT_EQ(merged.size(), live_->size());
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  // Same multiset of timestamps as the original feed.
  std::vector<double> original;
  original.reserve(live_->size());
  for (const auto& r : *live_) original.push_back(r.timestamp_s);
  std::sort(original.begin(), original.end());
  std::vector<double> sorted_merged = merged;
  std::sort(sorted_merged.begin(), sorted_merged.end());
  EXPECT_EQ(original, sorted_merged);
}

TEST_F(LoopbackTest, SpoolTeeCapturesReplayableMergedFeed) {
  const auto dir = fs::temp_directory_path() /
                   ("vqoe_loopback_tee_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  Outcome looped;
  {
    SpoolWriter tee{dir};
    looped = loopback_outcome(*live_, 4, 2, &tee);
    tee.close();
  }

  // The tee holds the merged feed: replaying it through direct ingest must
  // reproduce the loopback run exactly — the crash-recovery story.
  SpoolReader reader{dir};
  const auto replayed = reader.read_all();
  ASSERT_EQ(replayed.size(), live_->size());
  EXPECT_FALSE(reader.torn_tail());
  double last = replayed.front().timestamp_s;
  for (const auto& r : replayed) {
    EXPECT_GE(r.timestamp_s, last);
    last = r.timestamp_s;
  }

  const Outcome from_spool = direct_outcome(replayed, 4);
  EXPECT_EQ(from_spool.keys, looped.keys);
  EXPECT_EQ(from_spool.per_shard_records_out, looped.per_shard_records_out);
  fs::remove_all(dir);
}

TEST_F(LoopbackTest, RefusesPeerWithUnsupportedVersion) {
  CollectorConfig config;
  config.port = 0;
  config.expected_probes = 1;
  Collector collector{config};

  CollectorStats stats;
  std::thread server(
      [&] { stats = collector.run([](const trace::WeblogRecordView&) {}); });

  // Hand-rolled hello from a build that only speaks a future version.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(collector.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  std::uint8_t hello[kHelloBytes] = {};
  std::memcpy(hello, "VQOW", 4);
  hello[4] = 99;  // min
  hello[5] = 99;  // max
  ASSERT_EQ(::send(fd, hello, sizeof hello, 0),
            static_cast<ssize_t>(sizeof hello));

  std::uint8_t ack[kHelloAckBytes] = {};
  std::size_t got = 0;
  while (got < sizeof ack) {
    const ssize_t n = ::recv(fd, ack + got, sizeof ack - got, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  server.join();

  ASSERT_EQ(got, sizeof ack);
  EXPECT_EQ(std::memcmp(ack, "VQOA", 4), 0);
  EXPECT_EQ(ack[4], 0u);  // version 0 = refused
  EXPECT_EQ(stats.probes_completed, 0u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.records_emitted, 0u);
}

TEST_F(LoopbackTest, OutOfOrderStreamIsCutOffNotMerged) {
  // One record per frame. The first record that breaks per-probe key order
  // cuts the connection: a key running backwards, or a non-finite key —
  // NaN compares false against everything, so it would otherwise pass the
  // order check and switch it off for the rest of the stream.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Row {
    std::vector<double> timestamps;
    std::size_t valid_prefix;  ///< records before the offending one
  };
  const std::vector<Row> rows = {
      {{10.0, 5.0}, 1}, {{10.0, kNaN, 5.0}, 1}, {{kInf, 10.0}, 0}};
  for (const Row& row : rows) {
    SCOPED_TRACE("row " + std::to_string(&row - rows.data()));
    CollectorConfig config;
    config.port = 0;
    config.expected_probes = 1;
    Collector collector{config};

    CollectorStats stats;
    std::vector<double> emitted;
    std::thread server([&] {
      stats = collector.run([&](const trace::WeblogRecordView& view) {
        emitted.push_back(view.timestamp_s);
      });
    });

    std::vector<trace::WeblogRecord> feed(row.timestamps.size());
    for (std::size_t i = 0; i < feed.size(); ++i) {
      feed[i].subscriber_id = "sub-a";
      feed[i].timestamp_s = row.timestamps[i];
      feed[i].host = "r3---sn-h5q7dne7.googlevideo.com";
    }
    try {
      ProbeOptions options;
      options.port = collector.port();
      options.batch_records = 1;
      Probe probe{options};
      probe.send(feed);
      probe.finish();
      // The collector may have consumed the valid prefix before cutting
      // the connection, so reaching here without a throw is itself a
      // failure only if the collector ALSO merged the offending record.
    } catch (const std::exception&) {
      // Expected: the collector drops the connection; the probe sees EOF
      // while waiting for acks.
    }
    server.join();

    EXPECT_EQ(stats.protocol_errors, 1u);
    EXPECT_EQ(stats.probes_completed, 0u);
    // Nothing from the offending record on ever reached the sink.
    ASSERT_LE(emitted.size(), row.valid_prefix);
    for (std::size_t i = 0; i < emitted.size(); ++i) {
      EXPECT_EQ(emitted[i], row.timestamps[i]);
    }
  }
}

}  // namespace
}  // namespace vqoe::wire
