// Memory-ceiling eviction invariants (DESIGN.md §5i).
//
// The contract: an evicted session is a *session boundary*, equivalent to
// the idle gap having elapsed at the same instant. On workloads where the
// ceiling only ever evicts sessions whose traffic has already finished
// (sequential per-subscriber bursts — the LRU front is always a completed
// burst), a ceilinged monitor must therefore produce the exact same
// sessions, reports and window verdicts as an unbounded one — bit-identical
// doubles, because both run the identical code over identical chunk spans.
// The same holds through the sharded engine at every shard count, with the
// ceiling applied per shard.
//
// Where eviction *does* split (a subscriber returns within the idle gap
// after being evicted), the two halves must each equal what a fresh monitor
// makes of that half — eviction changes where sessions end, never what a
// session's chunks mean.
//
// Windows are scored in the call that closes them, so what the ceiling sees
// is the open sessions' state alone: sessions, verdicts and evictions must
// not depend on when (or whether) anyone harvests verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/engine/engine.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::mem {
namespace {

using core::CompletedSession;
using core::OnlineMonitor;
using core::OnlineMonitorConfig;
using core::QoePipeline;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Everything externally observable about a completed session, compared
/// exactly, doubles as raw bits (identical code over identical chunks on
/// both paths).
using SessionKey = std::tuple<std::string, std::uint64_t, std::uint64_t,
                              std::size_t, int, int, bool, std::uint64_t>;

SessionKey key_of(const CompletedSession& s) {
  return {s.subscriber_id,
          bits(s.start_time_s),
          bits(s.end_time_s),
          s.chunk_count,
          static_cast<int>(s.report.stall),
          static_cast<int>(s.report.representation),
          s.report.quality_switches,
          bits(s.report.switch_score)};
}

std::vector<SessionKey> sorted_keys(const std::vector<CompletedSession>& all) {
  std::vector<SessionKey> keys;
  keys.reserve(all.size());
  for (const auto& s : all) keys.push_back(key_of(s));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// A window verdict's observable content (everything WindowVerdict
/// carries), doubles as raw bits.
using VerdictKey =
    std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint32_t, bool, int, int, bool, std::uint64_t,
               std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>;

VerdictKey key_of(const window::WindowVerdict& v) {
  return {v.subscriber_id,          v.window_index,
          bits(v.start_s),          bits(v.end_s),
          v.chunk_count,            v.final_window,
          static_cast<int>(v.stall), static_cast<int>(v.representation),
          v.quality_switches,       bits(v.switch_score),
          bits(v.stall_confidence), bits(v.repr_confidence),
          bits(v.window_cusum),     bits(v.mean_goodput_kbps)};
}

std::vector<VerdictKey> sorted_keys(
    const std::vector<window::WindowVerdict>& all) {
  std::vector<VerdictKey> keys;
  keys.reserve(all.size());
  for (const auto& v : all) keys.push_back(key_of(v));
  std::sort(keys.begin(), keys.end());
  return keys;
}

class EvictionTest : public ::testing::Test {
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

std::shared_ptr<const QoePipeline> EvictionTest::pipeline_;

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

/// Sequential per-subscriber bursts: subscriber k's entire session finishes
/// before subscriber k+1's begins, so under memory pressure the LRU front
/// is always a completed burst — eviction closes exactly what an idle gap
/// would have. `chunks_per_burst` chunks, 1 s apart, bursts 1000 s apart
/// (longer than any idle gap used here, except when a config sets a huge
/// gap precisely so only eviction closes sessions).
std::vector<trace::WeblogRecord> sequential_bursts(std::size_t subscribers,
                                                   std::size_t chunks_per_burst,
                                                   double burst_spacing_s =
                                                       1000.0) {
  std::vector<trace::WeblogRecord> records;
  for (std::size_t k = 0; k < subscribers; ++k) {
    const double base = static_cast<double>(k) * burst_spacing_s;
    for (std::size_t i = 0; i < chunks_per_burst; ++i) {
      records.push_back(media_record("sub-" + std::to_string(k),
                                     base + static_cast<double>(i),
                                     600'000 + 20'000 * (i % 7)));
    }
  }
  return records;
}

std::vector<CompletedSession> run_monitor(OnlineMonitor& monitor,
                                          const std::vector<
                                              trace::WeblogRecord>& records) {
  std::vector<CompletedSession> all;
  for (const auto& r : records) {
    auto done = monitor.ingest(r);
    all.insert(all.end(), std::make_move_iterator(done.begin()),
               std::make_move_iterator(done.end()));
  }
  auto done = monitor.flush();
  all.insert(all.end(), std::make_move_iterator(done.begin()),
             std::make_move_iterator(done.end()));
  return all;
}

TEST_F(EvictionTest, EvictionEqualsIdleGapBoundaryOnFinishedSessions) {
  // A huge idle gap: nothing closes naturally until flush, so in the
  // ceilinged run *only* eviction closes mid-stream sessions.
  OnlineMonitorConfig unbounded;
  unbounded.reconstruction.idle_gap_s = 1e9;
  OnlineMonitorConfig ceilinged = unbounded;
  ceilinged.mem_ceiling_bytes = 24 * 1024;  // a couple of sessions' state

  const auto records = sequential_bursts(10, 12);

  OnlineMonitor baseline{*pipeline_, unbounded};
  OnlineMonitor bounded{*pipeline_, ceilinged};
  const auto base_sessions = run_monitor(baseline, records);
  const auto bounded_sessions = run_monitor(bounded, records);

  EXPECT_EQ(baseline.sessions_evicted(), 0u);
  EXPECT_GT(bounded.sessions_evicted(), 0u);  // the ceiling actually bit
  EXPECT_EQ(bounded.sessions_reported(), baseline.sessions_reported());
  EXPECT_EQ(sorted_keys(bounded_sessions), sorted_keys(base_sessions));

  // The ceiling held (up to the one active session the monitor never
  // evicts, which this workload keeps small).
  EXPECT_LE(bounded.arena().high_water(),
            ceilinged.mem_ceiling_bytes + 16 * 1024);
}

TEST_F(EvictionTest, EvictionIsASessionBoundaryOnResumption) {
  // sub-a's burst finishes, sub-b's long burst evicts it, then sub-a
  // returns *within* the idle gap — without the ceiling this would all be
  // one sub-a session; with it, the return starts a second session whose
  // report equals assessing the second burst alone.
  OnlineMonitorConfig config;
  config.reconstruction.idle_gap_s = 1e9;
  config.mem_ceiling_bytes = 24 * 1024;

  std::vector<trace::WeblogRecord> records;
  for (int i = 0; i < 12; ++i) {
    records.push_back(media_record("sub-a", i, 600'000 + 15'000 * (i % 5)));
  }
  for (int i = 0; i < 160; ++i) {  // enough state to push sub-a out
    records.push_back(media_record("sub-b", 20.0 + 0.25 * i));
  }
  std::vector<trace::WeblogRecord> second_burst;
  for (int i = 0; i < 12; ++i) {
    second_burst.push_back(
        media_record("sub-a", 90.0 + i, 700'000 + 10'000 * (i % 3)));
  }
  records.insert(records.end(), second_burst.begin(), second_burst.end());

  OnlineMonitor monitor{*pipeline_, config};
  const auto sessions = run_monitor(monitor, records);
  EXPECT_GT(monitor.sessions_evicted(), 0u);

  std::vector<SessionKey> sub_a;
  for (const auto& s : sessions) {
    if (s.subscriber_id == "sub-a") sub_a.push_back(key_of(s));
  }
  std::sort(sub_a.begin(), sub_a.end());
  ASSERT_EQ(sub_a.size(), 2u) << "eviction must split sub-a in two";

  // The resumed half is indistinguishable from a session that started at
  // the return: a fresh monitor over just the second burst agrees exactly.
  OnlineMonitorConfig plain;
  plain.reconstruction.idle_gap_s = 1e9;
  OnlineMonitor fresh{*pipeline_, plain};
  const auto alone = run_monitor(fresh, second_burst);
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_EQ(sub_a[1], key_of(alone[0]));
}

TEST_F(EvictionTest, WindowedVerdictStreamSurvivesEviction) {
  OnlineMonitorConfig unbounded;
  unbounded.reconstruction.idle_gap_s = 1e9;
  unbounded.window.length_s = 4.0;  // tumbling 4 s windows over 1 s chunks
  unbounded.window.min_chunks = 2;
  OnlineMonitorConfig ceilinged = unbounded;
  ceilinged.mem_ceiling_bytes = 24 * 1024;

  const auto records = sequential_bursts(10, 12);

  OnlineMonitor baseline{*pipeline_, unbounded};
  OnlineMonitor bounded{*pipeline_, ceilinged};
  const auto base_sessions = run_monitor(baseline, records);
  const auto bounded_sessions = run_monitor(bounded, records);
  const auto base_verdicts = baseline.take_verdicts();
  const auto bounded_verdicts = bounded.take_verdicts();

  EXPECT_GT(bounded.sessions_evicted(), 0u);
  EXPECT_EQ(sorted_keys(bounded_sessions), sorted_keys(base_sessions));
  ASSERT_FALSE(base_verdicts.empty());
  // An evicted session's last windows are scored when eviction closes it,
  // and score identically: a verdict depends only on its span.
  EXPECT_EQ(sorted_keys(bounded_verdicts), sorted_keys(base_verdicts));
}

/// What a run over the cadence feed produced.
struct CadenceRun {
  std::vector<SessionKey> sessions;  ///< sorted
  std::vector<VerdictKey> verdicts;  ///< sorted
  std::size_t evicted = 0;
  std::size_t high_water = 0;
};

/// 240 all-adaptive sessions over 16 subscribers, encrypted: about 13k
/// records, with many sessions of different subscribers open at once.
const std::vector<trace::WeblogRecord>& cadence_feed() {
  static const auto records = [] {
    auto options = workload::cleartext_corpus_options(240, 99);
    options.adaptive_fraction = 1.0;
    options.subscribers = 16;
    options.keep_session_results = false;
    return trace::encrypt_view(workload::generate_corpus(options).weblogs);
  }();
  return records;
}

/// 10-s tumbling windows of at least 2 chunks under `ceiling` bytes.
OnlineMonitorConfig cadence_config(std::size_t ceiling) {
  OnlineMonitorConfig config;
  config.window.length_s = 10.0;
  config.window.min_chunks = 2;
  config.mem_ceiling_bytes = ceiling;
  return config;
}

/// The cadence that takes verdicts only once, after flush().
constexpr std::size_t kHarvestAtEnd = 0;

/// One sequential monitor over the cadence feed, taking its verdicts
/// every `harvest_every` records.
CadenceRun run_with_cadence(const QoePipeline& pipeline,
                            const OnlineMonitorConfig& config,
                            std::size_t harvest_every) {
  OnlineMonitor monitor{pipeline, config};
  std::vector<CompletedSession> sessions;
  std::vector<window::WindowVerdict> verdicts;
  const auto take = [&] {
    auto taken = monitor.take_verdicts();
    verdicts.insert(verdicts.end(), std::make_move_iterator(taken.begin()),
                    std::make_move_iterator(taken.end()));
  };
  std::size_t fed = 0;
  for (const auto& record : cadence_feed()) {
    auto done = monitor.ingest(record);
    sessions.insert(sessions.end(), std::make_move_iterator(done.begin()),
                    std::make_move_iterator(done.end()));
    if (harvest_every != kHarvestAtEnd && ++fed % harvest_every == 0) take();
  }
  auto done = monitor.flush();
  sessions.insert(sessions.end(), std::make_move_iterator(done.begin()),
                  std::make_move_iterator(done.end()));
  take();
  return {sorted_keys(sessions), sorted_keys(verdicts),
          monitor.sessions_evicted(), monitor.arena().high_water()};
}

TEST_F(EvictionTest, HarvestCadenceChangesNothingUnderACeiling) {
  // 64 KiB is well under this feed's unbounded peak, so the ceiling bites.
  const auto config = cadence_config(64 * 1024);
  const CadenceRun every_record = run_with_cadence(*pipeline_, config, 1);
  EXPECT_GT(every_record.evicted, 0u);
  ASSERT_FALSE(every_record.verdicts.empty());
  for (const std::size_t cadence : {std::size_t{4096}, kHarvestAtEnd}) {
    const CadenceRun run = run_with_cadence(*pipeline_, config, cadence);
    EXPECT_EQ(run.evicted, every_record.evicted) << "cadence " << cadence;
    EXPECT_EQ(run.sessions, every_record.sessions) << "cadence " << cadence;
    EXPECT_EQ(run.verdicts, every_record.verdicts) << "cadence " << cadence;
  }
}

TEST_F(EvictionTest, CeilingAboveThePeakNeverEvictsAtAnyCadence) {
  // The feed's unbounded peak, measured the way the engine's workers run
  // the monitor: taking verdicts after every record.
  const CadenceRun unbounded =
      run_with_cadence(*pipeline_, cadence_config(0), 1);
  constexpr std::size_t kCeiling = 256 * 1024;
  ASSERT_LT(unbounded.high_water, kCeiling) << "the ceiling must not bite";
  for (const std::size_t cadence : {std::size_t{1}, std::size_t{4096},
                                    kHarvestAtEnd}) {
    const CadenceRun run =
        run_with_cadence(*pipeline_, cadence_config(kCeiling), cadence);
    EXPECT_EQ(run.evicted, 0u) << "cadence " << cadence;
    EXPECT_LE(run.high_water, kCeiling) << "cadence " << cadence;
    EXPECT_EQ(run.sessions, unbounded.sessions) << "cadence " << cadence;
    EXPECT_EQ(run.verdicts, unbounded.verdicts) << "cadence " << cadence;
  }
}

TEST_F(EvictionTest, OneShardEngineMatchesSequentialHarvestUnderACeiling) {
  // Without watermark ticks a 1-shard engine sees exactly the sequential
  // monitor's calls; its worker harvests after every item.
  const auto monitor_config = cadence_config(64 * 1024);
  const CadenceRun sequential =
      run_with_cadence(*pipeline_, monitor_config, 4096);

  engine::EngineConfig config;
  config.shards = 1;
  config.watermark_interval_s = 0.0;
  config.monitor = monitor_config;
  engine::MonitorEngine eng{pipeline_, config};
  for (const auto& record : cadence_feed()) eng.ingest(record);
  const auto sessions = eng.drain();
  const auto verdicts = eng.harvest_verdicts();

  EXPECT_GT(sequential.evicted, 0u);
  EXPECT_EQ(eng.stats().sessions_evicted, sequential.evicted);
  EXPECT_EQ(sorted_keys(sessions), sequential.sessions);
  EXPECT_EQ(sorted_keys(verdicts), sequential.verdicts);
}

TEST_F(EvictionTest, EngineWithPerShardCeilingMatchesUnboundedSequential) {
  const auto records = sequential_bursts(12, 12);

  OnlineMonitorConfig unbounded;
  unbounded.reconstruction.idle_gap_s = 1e9;
  OnlineMonitor sequential{*pipeline_, unbounded};
  const auto expected = sorted_keys(run_monitor(sequential, records));

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    engine::EngineConfig config;
    config.shards = shards;
    config.backpressure = engine::BackpressurePolicy::Block;
    config.monitor.reconstruction.idle_gap_s = 1e9;
    config.monitor.mem_ceiling_bytes = 24 * 1024;  // per shard
    engine::MonitorEngine eng{pipeline_, config};
    for (const auto& r : records) eng.ingest(r);
    const auto sessions = eng.drain();
    EXPECT_EQ(sorted_keys(sessions), expected) << shards << " shards";

    const engine::EngineStats stats = eng.stats();
    if (shards == 1) {
      EXPECT_GT(stats.sessions_evicted, 0u);
    }
    EXPECT_EQ(stats.sessions_reported, expected.size());
  }
}

TEST_F(EvictionTest, EngineSurfacesArenaAndEvictionStats) {
  auto live_options = workload::cleartext_corpus_options(60, 99);
  live_options.adaptive_fraction = 1.0;
  live_options.subscribers = 16;
  live_options.keep_session_results = false;
  const auto records =
      trace::encrypt_view(workload::generate_corpus(live_options).weblogs);

  engine::EngineConfig config;
  config.shards = 2;
  engine::MonitorEngine eng{pipeline_, config};
  for (const auto& r : records) eng.ingest(r);
  (void)eng.drain();

  const engine::EngineStats stats = eng.stats();
  EXPECT_GT(stats.arena_high_water, 0u);
  EXPECT_EQ(stats.sessions_evicted, 0u);  // no ceiling set
  EXPECT_EQ(stats.live_sessions, 0u);     // drain flushed everything
  ASSERT_EQ(stats.shards.size(), 2u);
  std::uint64_t summed = 0;
  for (const auto& s : stats.shards) {
    EXPECT_LE(s.arena_bytes_in_use, s.arena_high_water);
    summed += s.arena_high_water;
  }
  EXPECT_EQ(stats.arena_high_water, summed);
}

TEST_F(EvictionTest, MonitorArenaReusesFreedSessionState) {
  // Churn: many short sessions in sequence, all one subscriber so each
  // burst's first record closes the previous burst via the idle gap (a
  // lone monitor only notices another subscriber's idleness on watermark
  // ticks — the engine's job). After the first session, state must come
  // from the freelists, not fresh carves — the allocation story the
  // paired perf_engine benchmark quantifies.
  OnlineMonitorConfig config;  // default 30 s idle gap closes each burst
  OnlineMonitor monitor{*pipeline_, config};
  std::vector<trace::WeblogRecord> records;
  for (std::size_t burst = 0; burst < 40; ++burst) {
    const double base = static_cast<double>(burst) * 100.0;
    for (std::size_t i = 0; i < 10; ++i) {
      records.push_back(media_record("sub-churn",
                                     base + static_cast<double>(i)));
    }
  }
  (void)run_monitor(monitor, records);
  EXPECT_EQ(monitor.sessions_reported(), 40u);
  const SessionArenaStats& stats = monitor.arena().stats();
  EXPECT_GT(stats.block_reuses, stats.block_fresh);
  // Footprint is bounded by the high water, not by total traffic.
  EXPECT_GE(stats.footprint_bytes, stats.high_water);
  EXPECT_LT(stats.footprint_bytes, 4u * stats.high_water + 64 * 1024);
}

}  // namespace
}  // namespace vqoe::mem
