// Windowed OnlineMonitor semantics: mid-session verdicts, pinned boundary
// handling, and the full-session-window bit-identity with the session-close
// assessment path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::core {
namespace {

class MonitorWindowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto train_options = workload::has_corpus_options(300, 23);
    train_options.keep_session_results = false;
    pipeline_ = std::make_unique<QoePipeline>(QoePipeline::train(
        sessions_from_corpus(workload::generate_corpus(train_options))));
  }
  static void TearDownTestSuite() { pipeline_.reset(); }

  static std::unique_ptr<QoePipeline> pipeline_;
};

std::unique_ptr<QoePipeline> MonitorWindowTest::pipeline_;

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

OnlineMonitorConfig windowed_config(double length_s, double hop_s = 0.0,
                                    std::size_t window_min_chunks = 1) {
  OnlineMonitorConfig config;
  config.window.length_s = length_s;
  config.window.hop_s = hop_s;
  config.window.min_chunks = window_min_chunks;
  return config;
}

TEST_F(MonitorWindowTest, EmitsVerdictsMidSession) {
  OnlineMonitor monitor{*pipeline_, windowed_config(10.0)};
  // One chunk per second for 25 seconds: windows [0,10) and [10,20) close
  // while the session is still open.
  for (double t = 0.0; t < 25.0; t += 1.0) {
    EXPECT_TRUE(monitor.ingest(media_record("s", t)).empty());
  }
  EXPECT_EQ(monitor.open_sessions(), 1u);
  auto verdicts = monitor.take_verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].window_index, 0u);
  EXPECT_DOUBLE_EQ(verdicts[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(verdicts[0].end_s, 10.0);
  EXPECT_EQ(verdicts[0].chunk_count, 10u);  // t = 0..9
  EXPECT_FALSE(verdicts[0].final_window);
  EXPECT_EQ(verdicts[1].window_index, 1u);
  EXPECT_EQ(verdicts[1].chunk_count, 10u);  // t = 10..19
  EXPECT_GT(verdicts[0].stall_confidence, 0.0);
  EXPECT_LE(verdicts[0].stall_confidence, 1.0);

  // Session close truncates the tail window [20, 30) at the last activity.
  const auto done = monitor.flush();
  ASSERT_EQ(done.size(), 1u);
  verdicts = monitor.take_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].window_index, 2u);
  EXPECT_TRUE(verdicts[0].final_window);
  EXPECT_DOUBLE_EQ(verdicts[0].end_s, 24.0);
  EXPECT_EQ(verdicts[0].chunk_count, 5u);  // t = 20..24
  EXPECT_EQ(monitor.windows_closed(), 3u);
  EXPECT_EQ(monitor.verdicts_emitted(), 3u);
}

// The ISSUE's boundary regression: a record landing exactly on a window
// boundary is attributed deterministically — it closes the expiring window
// without joining it, and opens/joins the next one.
TEST_F(MonitorWindowTest, RecordExactlyAtWindowEndIsAttributedToNextWindow) {
  OnlineMonitor monitor{*pipeline_, windowed_config(10.0)};
  EXPECT_TRUE(monitor.ingest(media_record("s", 0.0)).empty());
  EXPECT_TRUE(monitor.ingest(media_record("s", 5.0)).empty());
  // Exactly at the end of window [0, 10):
  EXPECT_TRUE(monitor.ingest(media_record("s", 10.0)).empty());
  auto verdicts = monitor.take_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].window_index, 0u);
  EXPECT_EQ(verdicts[0].chunk_count, 2u);  // t=10 is NOT in [0, 10)
  (void)monitor.flush();
  verdicts = monitor.take_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].window_index, 1u);
  EXPECT_EQ(verdicts[0].chunk_count, 1u);  // t=10 opened window [10, 20)
}

// An advance_to tick exactly at a window end closes the window, and the
// same tick exactly at the idle-gap boundary does NOT close the session —
// the two boundary rules compose deterministically.
TEST_F(MonitorWindowTest, TickAtWindowEndClosesWindowNotSession) {
  OnlineMonitorConfig config = windowed_config(30.0);
  const double gap = config.reconstruction.idle_gap_s;
  ASSERT_DOUBLE_EQ(gap, 30.0);  // window end and idle gap coincide below
  OnlineMonitor monitor{*pipeline_, config};
  EXPECT_TRUE(monitor.ingest(media_record("s", 0.0)).empty());
  // t=30 is both the end of window [0,30) and last_activity + idle_gap.
  EXPECT_TRUE(monitor.advance_to(30.0).empty());  // session survives
  EXPECT_EQ(monitor.open_sessions(), 1u);
  const auto verdicts = monitor.take_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);  // ...but the window closed
  EXPECT_EQ(verdicts[0].window_index, 0u);
  EXPECT_FALSE(verdicts[0].final_window);
  // A same-instant record still extends the session into window 1.
  EXPECT_TRUE(monitor.ingest(media_record("s", 30.0)).empty());
  const auto done = monitor.flush();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].chunk_count, 2u);
}

/// A millisecond-resolution chunk train whose 4-s cadence keeps landing on
/// the boundaries of 10-s windows anchored at its first chunk: each request
/// time is parsed from its millisecond text, as a CSV feed would give it.
std::vector<trace::WeblogRecord> boundary_tie_train() {
  std::vector<trace::WeblogRecord> records;
  const std::int64_t first_ms = 31'923'204;
  for (std::int64_t k = 0; k * 4'000 <= 3'688'000; ++k) {
    const std::int64_t ms = first_ms + k * 4'000;
    const std::string text = std::to_string(ms / 1000) + "." +
                             std::to_string(1000 + ms % 1000).substr(1);
    double t_s = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), t_s);
    trace::WeblogRecord r = media_record(
        "s", t_s, 300'000 + 97'000 * static_cast<std::uint64_t>(k % 7));
    r.transaction_time_s = 0.5;
    records.push_back(std::move(r));
  }
  return records;
}

// Every number a verdict carries comes from the chunks inside its own
// bounds, at every hop, even where a chunk ties a window boundary: the
// schedule, the scored span, the min_chunks gate and the window summary all
// go through one membership test.
TEST_F(MonitorWindowTest, BoundaryTiesKeepVerdictsInsideTheirBounds) {
  const auto records = boundary_tie_train();
  ASSERT_EQ(records.size(), 923u);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const double hop : {0.0, 5.0, 2.5, 15.0}) {
    SCOPED_TRACE(hop);
    OnlineMonitor monitor{*pipeline_, windowed_config(10.0, hop)};
    for (const auto& r : records) ASSERT_TRUE(monitor.ingest(r).empty());
    const auto done = monitor.flush();
    ASSERT_EQ(done.size(), 1u);
    ASSERT_EQ(done[0].chunk_count, records.size());
    const auto verdicts = monitor.take_verdicts();
    ASSERT_FALSE(verdicts.empty());

    std::set<std::uint64_t> indices;
    std::size_t chunks = 0;
    for (const auto& v : verdicts) {
      EXPECT_TRUE(indices.insert(v.window_index).second)
          << "duplicate window " << v.window_index;
      window::WindowAccumulator expected;
      for (const auto& r : records) {
        if (r.timestamp_s >= v.start_s &&
            (v.final_window || r.timestamp_s < v.end_s)) {
          expected.add(r.timestamp_s, r.arrival_time_s(),
                       static_cast<double>(r.object_size_bytes), r.transport);
        }
      }
      EXPECT_EQ(v.chunk_count, expected.chunks()) << v.window_index;
      EXPECT_EQ(bits(v.window_cusum), bits(expected.cusum_std()))
          << v.window_index;
      EXPECT_EQ(bits(v.mean_goodput_kbps), bits(expected.mean_goodput_kbps()))
          << v.window_index;
      chunks += v.chunk_count;
    }
    if (hop == 0.0) {
      EXPECT_EQ(verdicts.size(), 369u);  // windows 0..368, none repeated
      EXPECT_EQ(chunks, records.size());
    }
  }
}

TEST_F(MonitorWindowTest, WindowMinChunksGatesVerdictsNotCounters) {
  OnlineMonitor monitor{*pipeline_, windowed_config(10.0, 0.0, 3)};
  // Window 0 gets 2 chunks (below the gate), window 1 gets 4.
  EXPECT_TRUE(monitor.ingest(media_record("s", 0.0)).empty());
  EXPECT_TRUE(monitor.ingest(media_record("s", 5.0)).empty());
  for (double t = 11.0; t < 15.0; t += 1.0) {
    EXPECT_TRUE(monitor.ingest(media_record("s", t)).empty());
  }
  (void)monitor.flush();
  const auto verdicts = monitor.take_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].window_index, 1u);
  EXPECT_EQ(monitor.windows_closed(), 2u);   // both windows counted
  EXPECT_EQ(monitor.verdicts_emitted(), 1u); // one scored
}

TEST_F(MonitorWindowTest, DisabledWindowingEmitsNothing) {
  OnlineMonitor monitor{*pipeline_};
  for (double t = 0.0; t < 100.0; t += 1.0) {
    (void)monitor.ingest(media_record("s", t));
  }
  (void)monitor.flush();
  EXPECT_TRUE(monitor.take_verdicts().empty());
  EXPECT_EQ(monitor.windows_closed(), 0u);
  EXPECT_EQ(monitor.verdicts_emitted(), 0u);
}

// ISSUE satellite 3 (sequential half): a full-session window — length
// larger than any session — must reproduce the session-close verdict
// bit-identically, because both run QoePipeline::assess over the same
// chunk span with the same scratch path.
TEST_F(MonitorWindowTest, FullSessionWindowMatchesSessionCloseBitIdentical) {
  auto live_options = workload::encrypted_corpus_options(50, 29);
  live_options.keep_session_results = false;
  auto corpus = workload::generate_corpus(live_options);
  const auto records = trace::encrypt_view(std::move(corpus.weblogs));
  ASSERT_FALSE(records.empty());

  OnlineMonitor monitor{*pipeline_, windowed_config(1e9)};
  std::vector<CompletedSession> sessions;
  for (const auto& record : records) {
    auto done = monitor.ingest(record);
    sessions.insert(sessions.end(), std::make_move_iterator(done.begin()),
                    std::make_move_iterator(done.end()));
  }
  auto rest = monitor.flush();
  sessions.insert(sessions.end(), std::make_move_iterator(rest.begin()),
                  std::make_move_iterator(rest.end()));
  auto verdicts = monitor.take_verdicts();
  ASSERT_FALSE(sessions.empty());

  // Exactly one final, never-hopped window per reported session.
  ASSERT_EQ(verdicts.size(), sessions.size());
  EXPECT_EQ(monitor.verdicts_emitted(), monitor.sessions_reported());

  std::map<std::pair<std::string, double>, const window::WindowVerdict*>
      by_session;
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.final_window);
    EXPECT_EQ(v.window_index, 0u);
    by_session[{v.subscriber_id, v.end_s}] = &v;
  }
  for (const auto& s : sessions) {
    const auto it = by_session.find({s.subscriber_id, s.end_time_s});
    ASSERT_NE(it, by_session.end()) << s.subscriber_id;
    const window::WindowVerdict& v = *it->second;
    EXPECT_EQ(v.chunk_count, s.chunk_count);
    EXPECT_EQ(v.stall, static_cast<std::uint8_t>(s.report.stall));
    EXPECT_EQ(v.representation,
              static_cast<std::uint8_t>(s.report.representation));
    EXPECT_EQ(v.quality_switches, s.report.quality_switches);
    EXPECT_EQ(v.switch_score, s.report.switch_score);  // bit-identical
  }
}

}  // namespace
}  // namespace vqoe::core
