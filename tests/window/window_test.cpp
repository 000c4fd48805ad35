// vqoe::window unit invariants: the O(1) accumulator agrees with batch
// statistics over the same chunks, and the SessionWindows schedule obeys
// the pinned boundary semantics (chunk at a window end -> next window;
// tick at a window end -> closes the window).
#include "vqoe/window/window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "vqoe/ts/cusum.h"
#include "vqoe/ts/online.h"

namespace vqoe::window {
namespace {

net::TransportStats transport_for(int i) {
  net::TransportStats t;
  t.rtt_min_ms = 20.0 + i;
  t.rtt_avg_ms = 35.0 + 2.0 * i;
  t.rtt_max_ms = 60.0 + 3.0 * i;
  t.bdp_bytes = 40'000.0 + 1'000.0 * i;
  t.bif_avg_bytes = 15'000.0 + 500.0 * i;
  t.bif_max_bytes = 30'000.0 + 800.0 * i;
  t.loss_pct = 0.1 * i;
  t.retrans_pct = 0.05 * i;
  return t;
}

struct Chunk {
  double request_s, arrival_s, size_bytes;
  net::TransportStats transport;
};

std::vector<Chunk> sample_chunks(int n) {
  std::vector<Chunk> chunks;
  for (int i = 0; i < n; ++i) {
    const double request = 1.5 * i;
    // Varying sizes and durations so no statistic degenerates.
    const double size = 300'000.0 + 40'000.0 * ((i * 7) % 5);
    const double duration = 0.2 + 0.03 * (i % 4);
    chunks.push_back({request, request + duration, size, transport_for(i)});
  }
  return chunks;
}

TEST(WindowFeatureNames, LayoutIsStable) {
  const auto& names = window_feature_names();
  EXPECT_EQ(names.size(), 11u * 4u + 3u);
  EXPECT_EQ(names.front(), "rtt_min:min");
  EXPECT_EQ(names.back(), "cusum_dsize_dt");
  auto sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(WindowAccumulator, MatchesBatchStatistics) {
  const auto chunks = sample_chunks(20);
  WindowAccumulator acc;
  for (const Chunk& c : chunks) {
    acc.add(c.request_s, c.arrival_s, c.size_bytes, c.transport);
  }

  ts::OnlineStats size_kb, dt, goodput;
  double bytes_kb = 0.0;
  std::vector<double> signal;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const double kb = chunks[i].size_bytes / 1000.0;
    size_kb.add(kb);
    bytes_kb += kb;
    const double duration = chunks[i].arrival_s - chunks[i].request_s;
    goodput.add(chunks[i].size_bytes * 8.0 / duration / 1000.0);
    if (i > 0) {
      const double d = chunks[i].arrival_s - chunks[i - 1].arrival_s;
      dt.add(d);
      signal.push_back((kb - chunks[i - 1].size_bytes / 1000.0) * d);
    }
  }

  EXPECT_EQ(acc.chunks(), chunks.size());
  EXPECT_DOUBLE_EQ(acc.bytes_kb(), bytes_kb);
  EXPECT_DOUBLE_EQ(acc.mean_goodput_kbps(), goodput.mean());

  std::vector<double> features;
  acc.features_into(features);
  ASSERT_EQ(features.size(), window_feature_names().size());
  // chunk_size block (index 8 of the metric list), stats min/mean/max/std.
  const std::size_t size_base = 8 * 4;
  EXPECT_DOUBLE_EQ(features[size_base + 0], size_kb.min());
  EXPECT_DOUBLE_EQ(features[size_base + 1], size_kb.mean());
  EXPECT_DOUBLE_EQ(features[size_base + 2], size_kb.max());
  EXPECT_DOUBLE_EQ(features[size_base + 3], size_kb.std_dev());
  const std::size_t dt_base = 9 * 4;
  EXPECT_DOUBLE_EQ(features[dt_base + 1], dt.mean());
  EXPECT_DOUBLE_EQ(features[dt_base + 3], dt.std_dev());
  EXPECT_DOUBLE_EQ(features.back(), acc.cusum_std());

  // The incremental CUSUM agrees with the batch statistic to rounding.
  EXPECT_NEAR(acc.cusum_std(), ts::cusum_std(signal),
              1e-9 * std::max(1.0, ts::cusum_std(signal)));
}

/// The chunks among `times` that the schedule's membership test places
/// inside `closed` — the span the monitor scores for it.
std::size_t count_inside(const SessionWindows& w, const ClosedWindow& closed,
                         const std::vector<double>& times) {
  return static_cast<std::size_t>(
      std::count_if(times.begin(), times.end(), [&](double t) {
        return w.locate(closed.index, t) == Side::kInside;
      }));
}

TEST(SessionWindows, DisabledConfigIsInert) {
  SessionWindows w;
  w.start(WindowConfig{}, 0.0);
  EXPECT_FALSE(w.enabled());
  std::vector<ClosedWindow> out;
  w.add(1.0);
  w.close_due(100.0, out);
  w.close_all(100.0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(w.in_flight(), 0u);
}

TEST(SessionWindows, TumblingScheduleAssignsAndCloses) {
  SessionWindows w;
  w.start(WindowConfig{.length_s = 10.0}, 100.0);  // anchor at 100
  // Chunks at 101..109 -> window 0; 111 -> window 1.
  std::vector<double> times;
  for (double s = 101.0; s <= 109.0; s += 1.0) times.push_back(s);
  times.push_back(111.0);
  for (const double s : times) w.add(s);
  EXPECT_EQ(w.in_flight(), 2u);

  std::vector<ClosedWindow> out;
  w.close_due(110.0, out);  // tick exactly at window 0's end closes it
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].index, 0u);
  EXPECT_DOUBLE_EQ(out[0].start_s, 100.0);
  EXPECT_DOUBLE_EQ(out[0].end_s, 110.0);
  EXPECT_FALSE(out[0].final_window);
  EXPECT_EQ(count_inside(w, out[0], times), 9u);

  out.clear();
  w.close_all(115.0, out);  // window 1 truncated at the session end
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].index, 1u);
  EXPECT_DOUBLE_EQ(out[0].start_s, 110.0);
  EXPECT_DOUBLE_EQ(out[0].end_s, 115.0);
  EXPECT_TRUE(out[0].final_window);
  EXPECT_EQ(count_inside(w, out[0], times), 1u);
  EXPECT_EQ(w.in_flight(), 0u);
}

TEST(SessionWindows, ChunkExactlyAtWindowEndBelongsToNextWindow) {
  SessionWindows w;
  w.start(WindowConfig{.length_s = 10.0}, 0.0);
  w.add(0.0);
  w.add(10.0);  // exactly at window 0's end
  std::vector<ClosedWindow> out;
  w.close_due(10.0, out);
  // But callers close first: simulate the real order with a fresh schedule.
  const std::vector<double> times = {0.0, 10.0};
  SessionWindows ordered;
  ordered.start(WindowConfig{.length_s = 10.0}, 0.0);
  ordered.add(0.0);
  std::vector<ClosedWindow> closed;
  ordered.close_due(10.0, closed);  // the monitor ticks before adding
  ordered.add(10.0);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(count_inside(ordered, closed[0], times), 1u);  // only t=0
  EXPECT_EQ(ordered.in_flight(), 1u);
  std::vector<ClosedWindow> rest;
  ordered.close_all(12.0, rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].index, 1u);           // t=10 chunk opened window 1
  EXPECT_EQ(count_inside(ordered, rest[0], times), 1u);
}

TEST(SessionWindows, SlidingWindowsShareChunks) {
  // length 10, hop 5: chunk at t=7 belongs to windows [0,10) and [5,15).
  SessionWindows w;
  w.start(WindowConfig{.length_s = 10.0, .hop_s = 5.0}, 0.0);
  const std::vector<double> times = {7.0};
  w.add(7.0);
  EXPECT_EQ(w.in_flight(), 2u);
  std::vector<ClosedWindow> out;
  w.close_due(15.0, out);  // closes both
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].index, 0u);
  EXPECT_EQ(out[1].index, 1u);
  EXPECT_EQ(count_inside(w, out[0], times), 1u);
  EXPECT_EQ(count_inside(w, out[1], times), 1u);
  EXPECT_DOUBLE_EQ(out[1].start_s, 5.0);
  EXPECT_DOUBLE_EQ(out[1].end_s, 15.0);
}

TEST(SessionWindows, IdleGapsMaterializeNoWindows) {
  // Chunks at t=1 and t=95 with 10s tumbling windows: windows 1..8 are
  // empty and must not be materialized or reported.
  SessionWindows w;
  w.start(WindowConfig{.length_s = 10.0}, 0.0);
  w.add(1.0);
  std::vector<ClosedWindow> out;
  w.close_due(95.0, out);
  ASSERT_EQ(out.size(), 1u);  // only window 0
  w.add(95.0);
  out.clear();
  w.close_all(96.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].index, 9u);  // [90, 100)
}

// A millisecond-resolution chunk train lands exactly on a window start:
// anchor 31923.204 and 10 s windows put window 368's start at
// 31923.204 + 368 * 10 = 35603.204 in floating point, while
// floor((35603.204 - 31923.204) / 10) rounds down to 367. The membership
// test, not the quotient, decides: the chunk opens window 368, and the
// close rule agrees that window 367 is already past it.
TEST(SessionWindows, BoundaryTieOpensTheWindowItsBoundsContain) {
  const double anchor = 31923.204;
  const double t = 35603.204;
  SessionWindows w;
  w.start(WindowConfig{.length_s = 10.0}, anchor);
  ASSERT_LT((t - anchor) / 10.0, 368.0);  // the tie floor() gets wrong
  ASSERT_EQ(w.window_start(368), t);
  w.add(t);
  std::vector<ClosedWindow> out;
  w.close_all(t + 1.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].index, 368u);
  EXPECT_EQ(w.locate(367, t), Side::kPast);
  EXPECT_EQ(w.locate(368, t), Side::kInside);
}

TEST(CusumStd, MatchesBatchOnWindowSignal) {
  std::vector<double> signal;
  ts::CusumStd inc;
  for (int i = 0; i < 200; ++i) {
    // Deterministic wiggle with sign changes and drift.
    const double x = 50.0 * ((i * 13) % 7 - 3) + 0.5 * i;
    signal.push_back(x);
    inc.add(x);
    const double batch = ts::cusum_std(signal);
    EXPECT_NEAR(inc.value(), batch, 1e-9 * std::max(1.0, batch)) << i;
  }
  EXPECT_EQ(inc.count(), 200u);
  inc.reset();
  EXPECT_EQ(inc.count(), 0u);
  EXPECT_EQ(inc.value(), 0.0);
}

}  // namespace
}  // namespace vqoe::window
