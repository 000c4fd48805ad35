#include "vqoe/core/online.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>

namespace vqoe::core {
namespace {

class OnlineMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto train_options = workload::has_corpus_options(400, 17);
    train_options.keep_session_results = false;
    pipeline_ = std::make_unique<QoePipeline>(QoePipeline::train(
        sessions_from_corpus(workload::generate_corpus(train_options))));

    auto live_options = workload::encrypted_corpus_options(60, 18);
    live_options.keep_session_results = false;
    auto corpus = workload::generate_corpus(live_options);
    records_ = std::make_unique<std::vector<trace::WeblogRecord>>(
        trace::encrypt_view(std::move(corpus.weblogs)));
    truths_ = std::make_unique<std::vector<trace::SessionGroundTruth>>(
        std::move(corpus.truths));
  }
  static void TearDownTestSuite() {
    pipeline_.reset();
    records_.reset();
    truths_.reset();
  }

  static std::unique_ptr<QoePipeline> pipeline_;
  static std::unique_ptr<std::vector<trace::WeblogRecord>> records_;
  static std::unique_ptr<std::vector<trace::SessionGroundTruth>> truths_;
};

std::unique_ptr<QoePipeline> OnlineMonitorTest::pipeline_;
std::unique_ptr<std::vector<trace::WeblogRecord>> OnlineMonitorTest::records_;
std::unique_ptr<std::vector<trace::SessionGroundTruth>> OnlineMonitorTest::truths_;

TEST_F(OnlineMonitorTest, MatchesBatchReconstruction) {
  OnlineMonitor monitor{*pipeline_};
  std::vector<CompletedSession> online;
  for (const auto& record : *records_) {
    auto done = monitor.ingest(record);
    online.insert(online.end(), done.begin(), done.end());
  }
  auto rest = monitor.flush();
  online.insert(online.end(), rest.begin(), rest.end());

  const auto batch = session::reconstruct(*records_);
  ASSERT_EQ(online.size(), batch.size());

  // Same boundaries: compare sorted (start, chunk_count) pairs.
  auto key = [](double start, std::size_t chunks) {
    return std::pair{start, chunks};
  };
  std::vector<std::pair<double, std::size_t>> a, b;
  for (const auto& s : online) a.push_back(key(s.start_time_s, s.chunk_count));
  for (const auto& s : batch) {
    b.push_back(key(s.media.empty() ? s.start_time_s : s.start_time_s,
                    s.media.size()));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << "session " << i;
  }
}

TEST_F(OnlineMonitorTest, ReportsMatchBatchAssessment) {
  OnlineMonitor monitor{*pipeline_};
  std::vector<CompletedSession> online;
  for (const auto& record : *records_) {
    auto done = monitor.ingest(record);
    online.insert(online.end(), done.begin(), done.end());
  }
  auto rest = monitor.flush();
  online.insert(online.end(), rest.begin(), rest.end());

  const auto batch = session::reconstruct(*records_);
  // Index batch sessions by first media timestamp.
  std::map<double, const session::ReconstructedSession*> by_start;
  for (const auto& s : batch) {
    if (!s.media.empty()) by_start[s.media.front().timestamp_s] = &s;
  }
  std::size_t compared = 0;
  for (const auto& s : online) {
    // Online start time is the first service record; find the batch session
    // covering it.
    for (const auto& [start, batch_session] : by_start) {
      if (std::abs(start - s.start_time_s) < 5.0 &&
          batch_session->media.size() == s.chunk_count) {
        const auto expected =
            pipeline_->assess(chunks_from_session(*batch_session));
        EXPECT_EQ(s.report.stall, expected.stall);
        EXPECT_DOUBLE_EQ(s.report.switch_score, expected.switch_score);
        ++compared;
        break;
      }
    }
  }
  EXPECT_GT(compared, online.size() / 2);
}

/// Checks every feature capture the monitor hands over against an
/// independent full feature build of the same span. The observer names no
/// shadow, so each capture covers exactly the active model's selection.
class CaptureChecker final : public ScoreObserver {
 public:
  /// `before` and `after` are the models the monitor runs before and
  /// after its one swap.
  CaptureChecker(const QoePipeline& before, const QoePipeline& after)
      : before_(&before), after_(&after) {}

  void on_session(std::string_view, std::span<const ChunkObs> chunks,
                  const QoePipeline::SessionFeatures& features,
                  const QoeReport&) override {
    check(chunks, features);
  }
  void on_window(std::string_view, std::span<const ChunkObs> chunks,
                 const QoePipeline::SessionFeatures& features,
                 const window::WindowVerdict&) override {
    check(chunks, features);
  }
  void on_model_swap(std::uint64_t) override { swapped = true; }

  bool swapped = false;
  std::size_t before_swap = 0;
  std::size_t after_swap = 0;

 private:
  template <std::size_t Width>
  static void expect_covered_cells(const std::vector<double>& captured,
                                   const std::bitset<Width>& mask,
                                   const std::vector<double>& full) {
    ASSERT_EQ(captured.size(), Width);
    ASSERT_EQ(full.size(), Width);
    for (std::size_t c = 0; c < Width; ++c) {
      if (mask.test(c)) {
        EXPECT_EQ(std::memcmp(&captured[c], &full[c], sizeof(double)), 0)
            << "cell " << c;
      } else {
        EXPECT_TRUE(std::isnan(captured[c])) << "cell " << c;
      }
    }
  }

  void check(std::span<const ChunkObs> chunks,
             const QoePipeline::SessionFeatures& features) {
    const QoePipeline& active = swapped ? *after_ : *before_;
    EXPECT_EQ(features.stall_mask, active.feature_plan().stall());
    expect_covered_cells(features.stall, features.stall_mask,
                         stall_features(chunks));
    if (swapped) {
      // The new model has no representation detector: nothing built, so
      // nothing may be left over from the previous model.
      EXPECT_TRUE(features.repr.empty());
      EXPECT_TRUE(features.repr_mask.none());
      ++after_swap;
    } else {
      EXPECT_EQ(features.repr_mask, active.feature_plan().repr());
      expect_covered_cells(features.repr, features.repr_mask,
                           representation_features(chunks));
      ++before_swap;
    }
  }

  const QoePipeline* before_;
  const QoePipeline* after_;
};

TEST_F(OnlineMonitorTest, ObserverCaptureFollowsTheActiveModelAcrossSwap) {
  const auto stall_only =
      std::make_shared<const QoePipeline>(QoePipeline::from_parts(
          pipeline_->stall_detector(), {}, pipeline_->switch_detector()));
  CaptureChecker checker{*pipeline_, *stall_only};
  OnlineMonitorConfig config;
  config.window.length_s = 10.0;
  config.observer = &checker;
  OnlineMonitor monitor{*pipeline_, config};
  const std::size_t half = records_->size() / 2;
  for (std::size_t i = 0; i < half; ++i) (void)monitor.ingest((*records_)[i]);
  (void)monitor.take_verdicts();
  monitor.swap_pipeline(stall_only);
  for (std::size_t i = half; i < records_->size(); ++i) {
    (void)monitor.ingest((*records_)[i]);
  }
  (void)monitor.flush();
  (void)monitor.take_verdicts();
  EXPECT_GT(checker.before_swap, 0u);
  EXPECT_GT(checker.after_swap, 0u);
}

TEST_F(OnlineMonitorTest, AdvanceToFlushesIdleSessions) {
  OnlineMonitor monitor{*pipeline_};
  // Feed roughly the first half of the records, cutting right after a
  // media record so the session left open holds at least one chunk (a cut
  // inside a session's page-object prefix would flush an empty session,
  // which the monitor drops without a report).
  std::size_t half = records_->size() / 2;
  while (half > 1 &&
         (*records_)[half - 1].kind != trace::RecordKind::media) {
    --half;
  }
  for (std::size_t i = 0; i < half; ++i) monitor.ingest((*records_)[i]);
  EXPECT_GT(monitor.open_sessions(), 0u);

  const double far_future = (*records_)[half - 1].timestamp_s + 1e6;
  const auto done = monitor.advance_to(far_future);
  EXPECT_EQ(monitor.open_sessions(), 0u);
  EXPECT_FALSE(done.empty());
}

// The engine's watermark clock broadcasts advance_to(last ingest ts). A
// tick landing exactly on last_activity + idle_gap must NOT close the
// session, because a record at that same timestamp would still extend it
// (ingest splits only on a STRICTLY larger gap) — otherwise the engine
// would diverge from the sequential monitor at the boundary.
TEST_F(OnlineMonitorTest, AdvanceToBoundaryTickKeepsExtendableSession) {
  const double gap = OnlineMonitorConfig{}.reconstruction.idle_gap_s;
  auto media = [](double t_s) {
    trace::WeblogRecord r;
    r.subscriber_id = "s";
    r.timestamp_s = t_s;
    r.transaction_time_s = 0.0;
    r.object_size_bytes = 900'000;
    r.host = "r3---sn-h5q7dne7.googlevideo.com";
    r.kind = trace::RecordKind::media;
    return r;
  };

  OnlineMonitor monitor{*pipeline_};
  EXPECT_TRUE(monitor.ingest(media(0.0)).empty());
  // Tick exactly at the gap boundary: session must survive...
  EXPECT_TRUE(monitor.advance_to(gap).empty());
  EXPECT_EQ(monitor.open_sessions(), 1u);
  // ...so a same-timestamp record extends it rather than opening a new one.
  EXPECT_TRUE(monitor.ingest(media(gap)).empty());
  EXPECT_EQ(monitor.open_sessions(), 1u);
  const auto done = monitor.flush();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done.front().chunk_count, 2u);

  // Strictly past the boundary the tick does close the session, exactly as
  // an ingest-side gap split would.
  OnlineMonitor late{*pipeline_};
  EXPECT_TRUE(late.ingest(media(0.0)).empty());
  const auto closed = late.advance_to(gap + 1e-6);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed.front().chunk_count, 1u);
  EXPECT_EQ(late.open_sessions(), 0u);
}

/// One subscriber whose download is still in flight when the next watch
/// page loads: the media request at 2 s arrives at 42 s, after the page at
/// 5 s split the session. Batch reconstruction measures the idle gap from
/// the subscriber's last activity (42 s), so the chunks at 6, 40 and 41 s
/// stay one session.
std::vector<trace::WeblogRecord> page_split_feed() {
  const auto record = [](const char* host, double t_s, double transaction_s,
                         std::uint64_t bytes, trace::RecordKind kind) {
    trace::WeblogRecord r;
    r.subscriber_id = "s";
    r.host = host;
    r.timestamp_s = t_s;
    r.transaction_time_s = transaction_s;
    r.object_size_bytes = bytes;
    r.kind = kind;
    return r;
  };
  const char* page = "m.youtube.com";
  const char* cdn = "r3---sn-h5q7dne7.googlevideo.com";
  const auto media = trace::RecordKind::media;
  const auto page_kind = trace::RecordKind::page_object;
  return {record(page, 0.0, 0.2, 60'000, page_kind),
          record(cdn, 1.0, 0.5, 900'000, media),
          record(cdn, 2.0, 40.0, 900'000, media),
          record(page, 5.0, 0.2, 60'000, page_kind),
          record(cdn, 6.0, 0.5, 900'000, media),
          record(cdn, 40.0, 0.5, 900'000, media),
          record(cdn, 41.0, 0.5, 900'000, media)};
}

/// Streams page_split_feed() through a monitor, with an advance_to(38)
/// tick before the record at 40 s when `tick`, and checks the sessions
/// against the batch reconstructor's: start, end and chunk count.
void expect_batch_sessions(const QoePipeline& pipeline, bool tick) {
  const auto feed = page_split_feed();
  const auto batch = session::reconstruct(feed);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].start_time_s, 0.0);
  EXPECT_EQ(batch[0].end_time_s, 42.0);
  EXPECT_EQ(batch[0].media.size(), 2u);
  EXPECT_EQ(batch[1].start_time_s, 5.0);
  EXPECT_EQ(batch[1].end_time_s, 41.5);
  EXPECT_EQ(batch[1].media.size(), 3u);

  OnlineMonitor monitor{pipeline};
  std::vector<CompletedSession> online;
  const auto append = [&online](std::vector<CompletedSession>&& done) {
    online.insert(online.end(), done.begin(), done.end());
  };
  for (const auto& record : feed) {
    if (tick && record.timestamp_s == 40.0) append(monitor.advance_to(38.0));
    append(monitor.ingest(record));
  }
  append(monitor.flush());
  ASSERT_EQ(online.size(), batch.size());
  for (std::size_t i = 0; i < online.size(); ++i) {
    EXPECT_EQ(online[i].start_time_s, batch[i].start_time_s) << i;
    EXPECT_EQ(online[i].end_time_s, batch[i].end_time_s) << i;
    EXPECT_EQ(online[i].chunk_count, batch[i].media.size()) << i;
  }
}

TEST_F(OnlineMonitorTest, WatchPageSplitCarriesTheSubscriberActivityClock) {
  expect_batch_sessions(*pipeline_, /*tick=*/false);
}

TEST_F(OnlineMonitorTest, TickAfterWatchPageSplitUsesTheSubscriberClock) {
  expect_batch_sessions(*pipeline_, /*tick=*/true);
}

TEST_F(OnlineMonitorTest, MinChunksDiscardsNoise) {
  OnlineMonitorConfig config;
  config.min_chunks = 1000000;  // nothing qualifies
  OnlineMonitor monitor{*pipeline_, config};
  for (const auto& record : *records_) monitor.ingest(record);
  const auto done = monitor.flush();
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(monitor.sessions_reported(), 0u);
  EXPECT_GT(monitor.sessions_discarded(), 0u);
}

TEST_F(OnlineMonitorTest, IgnoresForeignTraffic) {
  OnlineMonitor monitor{*pipeline_};
  trace::WeblogRecord alien;
  alien.subscriber_id = "x";
  alien.host = "cdn.example.net";
  alien.timestamp_s = 1.0;
  alien.object_size_bytes = 1'000'000;
  EXPECT_TRUE(monitor.ingest(alien).empty());
  EXPECT_EQ(monitor.open_sessions(), 0u);
}

TEST_F(OnlineMonitorTest, CountersConsistent) {
  OnlineMonitor monitor{*pipeline_};
  std::size_t emitted = 0;
  for (const auto& record : *records_) emitted += monitor.ingest(record).size();
  emitted += monitor.flush().size();
  EXPECT_EQ(monitor.sessions_reported(), emitted);
  EXPECT_EQ(monitor.open_sessions(), 0u);
}

}  // namespace
}  // namespace vqoe::core
