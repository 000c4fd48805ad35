// Mid-session windowed inference state — vqoe::window.
//
// The paper classifies QoE per *session*; an operator reacting to stalls
// needs a verdict while the session is still running (the 10-second-window
// deployments of Bronzino/Schmitt et al. and the real-time representation
// classification of Dubin et al.). This module provides the per-session
// windowing machinery the streaming monitors build on:
//
//  * WindowConfig        — window length and hop in stream seconds. Hop <
//    length gives overlapping (sliding) windows, hop == length tumbling
//    ones; windows are half-open [start, start+length) intervals anchored
//    at the session's first record.
//  * SessionWindows      — the window *schedule* of one open session: which
//    windows are in flight and when each is due. It holds no per-window
//    state: a window is a span of the session's chunk log, the chunks
//    whose request time locate() places inside it. That membership test is
//    the only one: add() uses it to decide which windows a chunk opens,
//    close_due() to decide which windows a tick closes, and
//    core::OnlineMonitor to recover a closed window's span.
//  * WindowSummary       — the two statistics a verdict carries beyond its
//    labels: the windowed CUSUM-std of Δsize × Δt and the mean goodput,
//    folded over a span in request-time order.
//  * WindowAccumulator   — the full windowed feature vector: the Table-1
//    transport metrics under running min/mean/max/std (ts::OnlineStats),
//    inter-arrival statistics, byte/chunk counts and a WindowSummary.
//    Every add() is O(1); nothing is buffered. The window-length
//    experiment (bench/ext_window_length) extracts its features with it;
//    the live path does not run it.
//  * WindowVerdict       — one entry of the live verdict stream: subscriber,
//    window bounds, the stall/representation verdicts with forest
//    confidences, the switch statistic, and the span's WindowSummary.
//
// Boundary semantics are pinned (and regression-tested): a chunk whose
// request time lands exactly on a window end belongs to the *next* window
// (half-open intervals), and a clock tick exactly at a window end *closes*
// that window (close condition is end <= now). So a chunk and a tick at
// the same instant order deterministically: the tick closes the old
// window, the chunk opens the new one.
//
// This layer is deliberately below vqoe::core: it knows transport stats and
// doubles, not detectors or labels. core::OnlineMonitor owns the scoring
// (DESIGN.md section 5g).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vqoe/net/tcp.h"
#include "vqoe/ts/cusum.h"
#include "vqoe/ts/online.h"

namespace vqoe::window {

struct WindowConfig {
  /// Window length in stream seconds; <= 0 disables windowing entirely
  /// (the monitors then classify on session close only, the pre-window
  /// behaviour).
  double length_s = 0.0;
  /// Hop between window starts; <= 0 means tumbling (hop = length).
  double hop_s = 0.0;
  /// Windows with fewer media chunks than this close without a verdict
  /// (their state still rolls the windows_closed counter).
  std::size_t min_chunks = 1;

  [[nodiscard]] bool enabled() const { return length_s > 0.0; }
  [[nodiscard]] double hop() const { return hop_s > 0.0 ? hop_s : length_s; }
};

/// Names of the windowed feature vector WindowAccumulator::features_into
/// emits, in order: 11 metrics (the 10 Table-1 metrics with chunk
/// inter-arrival plus goodput) x min/mean/max/std, then chunk_count,
/// bytes_kb and the windowed CUSUM-std. Same "metric:stat" naming scheme
/// as the session feature sets.
[[nodiscard]] const std::vector<std::string>& window_feature_names();

/// The windowed CUSUM-std of Δsize × Δt and the mean per-chunk goodput,
/// folded over a window's chunks in request-time order. The one formula
/// for both figures: the live path runs it over a closed window's span at
/// harvest, WindowAccumulator runs it chunk by chunk. Units match the
/// session feature sets (core/features.cpp): sizes in KB and times in
/// seconds, so the CUSUM signal is KB·s, the unit of the paper's fixed
/// switch threshold; goodput is in kbit/s.
class WindowSummary {
 public:
  /// Folds one media chunk in. Chunks must arrive in non-decreasing
  /// request-time order (the monitors' ingest invariant).
  void add(double request_time_s, double arrival_time_s, double size_bytes);

  /// Windowed STD(CUSUM(Δsize × Δt)) over the chunks folded in.
  [[nodiscard]] double cusum_std() const { return cusum_.value(); }
  [[nodiscard]] double mean_goodput_kbps() const { return goodput_.mean(); }
  /// Per-chunk goodput under running min/mean/max/std.
  [[nodiscard]] const ts::OnlineStats& goodput() const { return goodput_; }

 private:
  ts::OnlineStats goodput_;
  ts::CusumStd cusum_;  ///< over Δsize × Δt of consecutive chunks
  double prev_arrival_s_ = 0.0;
  double prev_size_kb_ = 0.0;
};

/// O(1)-per-chunk feature state of one window, in the units of
/// WindowSummary (RTT in ms, loss/retransmissions in percent).
class WindowAccumulator {
 public:
  /// Folds one media chunk in. Chunks must arrive in non-decreasing
  /// request-time order (the monitors' ingest invariant).
  void add(double request_time_s, double arrival_time_s, double size_bytes,
           const net::TransportStats& transport);

  [[nodiscard]] std::size_t chunks() const { return size_kb_.count(); }
  [[nodiscard]] double bytes_kb() const { return bytes_kb_; }
  [[nodiscard]] double mean_goodput_kbps() const {
    return summary_.mean_goodput_kbps();
  }
  /// Windowed STD(CUSUM(Δsize × Δt)) over the chunks of this window only.
  [[nodiscard]] double cusum_std() const { return summary_.cusum_std(); }

  /// Writes the window_feature_names() vector (resized to fit).
  void features_into(std::vector<double>& out) const;

 private:
  ts::OnlineStats rtt_min_, rtt_avg_, rtt_max_;
  ts::OnlineStats bdp_kb_, bif_avg_kb_, bif_max_kb_;
  ts::OnlineStats loss_, retrans_;
  ts::OnlineStats size_kb_, dt_;
  WindowSummary summary_;  ///< goodput and the windowed CUSUM
  double bytes_kb_ = 0.0;
  double prev_arrival_s_ = 0.0;
};

/// Where a stream time lies relative to one window: before its start,
/// inside the half-open [start, end), or past its end. Ordered, so a
/// time-sorted chunk log partitions into three runs.
enum class Side : std::uint8_t { kBefore, kInside, kPast };

/// One window a SessionWindows instance closed.
struct ClosedWindow {
  std::uint64_t index = 0;  ///< 0-based position in the window schedule
  double start_s = 0.0;     ///< nominal window start (anchor + index * hop)
  double end_s = 0.0;       ///< nominal end, or the session end when final
  /// Closed by session close rather than by the stream clock: the window
  /// was truncated, end_s is the session's last activity.
  bool final_window = false;
};

/// The window schedule of one open session: the in-flight window indices,
/// each due when the stream clock reaches its end. Only windows that hold
/// at least one chunk are materialized (and therefore reported): an idle
/// subscriber does not generate empty-window verdicts.
class SessionWindows {
 public:
  /// Arms the schedule. `session_start_s` anchors window 0 (the session's
  /// first record, media or not). A non-enabled config leaves the schedule
  /// inert: every method is a cheap no-op.
  void start(const WindowConfig& config, double session_start_s);

  [[nodiscard]] bool enabled() const { return config_.enabled(); }

  /// Closes every in-flight window that `now_s` is past (oldest first),
  /// appending them to `out`. Callers invoke this *before* add() with the
  /// same timestamp so the boundary semantics above hold.
  void close_due(double now_s, std::vector<ClosedWindow>& out);

  /// Opens every window that holds a media chunk's request time and is not
  /// in flight yet. Precondition: close_due(request_time_s) ran first, so
  /// every in-flight window holds it too.
  void add(double request_time_s);

  /// Session close: emits every remaining in-flight window as final,
  /// truncated at `session_end_s`. The schedule is empty afterwards.
  void close_all(double session_end_s, std::vector<ClosedWindow>& out);

  [[nodiscard]] std::size_t in_flight() const {
    return static_cast<std::size_t>(end_ - first_);
  }

  [[nodiscard]] double window_start(std::uint64_t index) const {
    return anchor_ + static_cast<double>(index) * config_.hop();
  }
  [[nodiscard]] double window_end(std::uint64_t index) const {
    return window_start(index) + config_.length_s;
  }

  /// The membership test: time `t` is inside window `index` when
  /// window_start(index) <= t && t < window_end(index), and past it when
  /// window_end(index) <= t (the close rule). Decided on the bounds
  /// themselves, never on floor((t - anchor) / hop): at a boundary tie
  /// that quotient can round to the other side of the integer the bound
  /// anchor + index * hop sits on.
  [[nodiscard]] Side locate(std::uint64_t index, double t) const {
    if (window_end(index) <= t) return Side::kPast;
    return window_start(index) <= t ? Side::kInside : Side::kBefore;
  }

 private:
  WindowConfig config_;
  double anchor_ = 0.0;
  /// In-flight windows: the indices [first_, end_), a contiguous run
  /// because chunks arrive in request-time order.
  std::uint64_t first_ = 0;
  std::uint64_t end_ = 0;
};

/// One entry of the live verdict stream: what a shard's monitor emits every
/// time a window with enough chunks closes. Labels are the core enums
/// stored as raw ints (core::StallLabel / core::ReprLabel) so this layer
/// stays below vqoe::core.
struct WindowVerdict {
  std::string subscriber_id;
  std::uint64_t window_index = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint32_t chunk_count = 0;
  bool final_window = false;

  std::uint8_t stall = 0;           ///< core::StallLabel
  std::uint8_t representation = 0;  ///< core::ReprLabel (0 when untrained)
  bool quality_switches = false;
  double switch_score = 0.0;       ///< session-path CUSUM-std over the span
  double stall_confidence = 0.0;   ///< forest vote share behind `stall`
  double repr_confidence = 0.0;    ///< 0 when the detector is untrained
  double window_cusum = 0.0;       ///< WindowSummary::cusum_std of the span
  double mean_goodput_kbps = 0.0;  ///< WindowSummary of the span
};

}  // namespace vqoe::window
