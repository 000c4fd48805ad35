// Due-time and lag arithmetic of the live feed.
//
// The generator owns the schedule: a paced (open-loop) run sends feed
// position i at t0 + i / rate; an unthrottled (closed-loop) run records
// when it actually sent each position. A verdict's lag is the wall time at
// which harvesting returned it minus the scheduled time of the stream
// instant that closed it:
//
//   * a window closed by the stream clock closes at its end;
//   * a final window (and the session report it belongs to) closes at
//     last activity + idle gap, or earlier when a record of the same
//     subscriber closed the session first (a watch-page marker);
//
// and a stream instant is reached when the feed reaches the first record
// at or after it. Instants past the last record are closed only by the
// end-of-stream flush; they are not live verdicts and yield no lag sample.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace livebench {

inline constexpr double kNever = std::numeric_limits<double>::infinity();

/// Stream instant that closed a verdict. `closed_by_record_s` is the
/// timestamp of the record whose arrival closed the session in the
/// sequential reference, or kNever when only the flush closed it.
[[nodiscard]] inline double closing_instant(bool final_window, double end_s,
                                            double idle_gap_s,
                                            double closed_by_record_s) {
  if (!final_window) return end_s;
  return std::min(end_s + idle_gap_s, closed_by_record_s);
}

/// Index of the first feed record at or after `instant_s` (timestamps
/// ascending); timestamps.size() when the feed never reaches it.
[[nodiscard]] inline std::size_t feed_position(
    std::span<const double> timestamps, double instant_s) {
  return static_cast<std::size_t>(
      std::lower_bound(timestamps.begin(), timestamps.end(), instant_s) -
      timestamps.begin());
}

/// Where each feed position was due (paced) or sent (unthrottled), in
/// seconds since the pass's first send.
class Schedule {
 public:
  /// Open loop: position i is due at i / rate.
  static Schedule paced(double rate) {
    Schedule s;
    s.rate_ = rate;
    return s;
  }
  /// Closed loop: positions are due when they were sent (record_send()).
  static Schedule unthrottled(std::size_t positions) {
    Schedule s;
    s.sent_s_.assign(positions, kNever);
    return s;
  }

  [[nodiscard]] bool is_paced() const { return rate_ > 0.0; }

  /// Unthrottled runs: positions [begin, end) left the generator at t_s.
  void record_send(std::size_t begin, std::size_t end, double t_s) {
    std::fill(sent_s_.begin() + static_cast<std::ptrdiff_t>(begin),
              sent_s_.begin() + static_cast<std::ptrdiff_t>(end), t_s);
  }
  void record_send(std::size_t position, double t_s) { sent_s_[position] = t_s; }

  /// When position i was due; nullopt for an unsent unthrottled position.
  [[nodiscard]] std::optional<double> due_s(std::size_t position) const {
    if (is_paced()) return static_cast<double>(position) / rate_;
    if (position >= sent_s_.size() || sent_s_[position] == kNever) {
      return std::nullopt;
    }
    return sent_s_[position];
  }

  /// Lag in milliseconds of a verdict harvested at `harvested_s` whose
  /// closing instant is `instant_s`; nullopt when the feed never reached
  /// the instant (end-of-stream flush).
  [[nodiscard]] std::optional<double> lag_ms(
      std::span<const double> timestamps, double instant_s,
      double harvested_s) const {
    const std::size_t position = feed_position(timestamps, instant_s);
    if (position >= timestamps.size()) return std::nullopt;
    const std::optional<double> due = due_s(position);
    if (!due) return std::nullopt;
    return (harvested_s - *due) * 1e3;
  }

 private:
  double rate_ = 0.0;
  std::vector<double> sent_s_;
};

}  // namespace livebench
