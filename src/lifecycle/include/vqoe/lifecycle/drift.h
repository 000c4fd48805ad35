// Feature-distribution drift tracking.
//
// A monitor trained once and deployed forever silently degrades as traffic
// shifts — the paper's own cleartext→encrypted accuracy drop is exactly a
// distribution-shift story, and the deployment follow-up retrains
// continually. DriftMonitor quantifies that shift online, per shard, over
// the Table-1 metrics the detectors are built on (features.h): for each
// tracked metric it keeps
//
//   * a *reference* sample — the first `reference_sessions` session means
//     observed after the model was loaded (or after the last hot-swap),
//     sorted once when it freezes, and
//   * a *current* sample — a deterministic ts::Reservoir over every session
//     mean since, i.e. a uniform sample of the whole post-reference stream,
//     which keeps itself sorted as values are admitted,
//
// and reports the Kolmogorov–Smirnov distance between the two.
// distance() is the max over metrics — one scalar an operator can
// threshold ("the live rtt_avg distribution is 0.4 away from what this
// model was loaded against").
//
// Cost per closed session: one O(chunks) pass for the ten means, ten
// reservoir offers (an admitted value moves at most `reservoir_size`
// doubles in the sorted view), and every `recompute_every` sessions one
// merge walk per metric whose sample changed since the last walk — no
// copy, no sort. bench/perf_engine's BM_DriftObserve times it at the
// default configuration over the first sessions after the reference, when
// the reservoirs still admit most values: 2.7–3.0 µs per session on a
// 4-vCPU container, against 8.5–8.8 µs when every recompute copied and
// re-sorted the ten reservoirs; the merge walks are most of what is left.
//
// A session with a non-finite mean (a NaN or infinite transport field
// from the feed) is ignored: an ordered sample has no place for NaN.
//
// Determinism: the reservoir is seeded from config.seed plus a per-shard
// salt; equal streams give equal distances on every run. The distances
// depend only on the samples' multisets, so skipping an unchanged metric's
// walk changes no value.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "vqoe/core/features.h"
#include "vqoe/ts/reservoir.h"

namespace vqoe::lifecycle {

/// The tracked metrics: the 10 Table-1 base metrics, one session mean each.
inline constexpr std::size_t kDriftMetrics = 10;

/// Names in value order (matching features.cpp's stall metric set).
[[nodiscard]] std::span<const std::string_view> drift_metric_names();

struct DriftConfig {
  bool enabled = false;
  /// Session count of the reference snapshot. Until this many sessions
  /// have been observed after a (re)load, distance() is 0 (warming up).
  std::size_t reference_sessions = 256;
  /// Reservoir capacity of the current-distribution sample per metric.
  std::size_t reservoir_size = 256;
  /// Sessions in the current sample before a distance is reported (a
  /// handful of sessions is noise, not evidence).
  std::size_t min_current = 32;
  /// Recompute cadence: the KS distances are refreshed every this many
  /// observed sessions (distance() returns the cached value in between).
  std::size_t recompute_every = 16;
  std::uint64_t seed = 0x76716f65u;  // "vqoe"
};

/// Per-shard drift tracker. Single-threaded (lives on a monitor's scoring
/// thread); the engine mirrors distance() into its stats atomics.
class DriftMonitor {
 public:
  /// Disabled tracker: observe() is a no-op, distance() is 0.
  DriftMonitor() = default;

  /// @param salt distinguishes shards so their reservoirs sample
  ///        independently (seed ^ salt streams).
  DriftMonitor(const DriftConfig& config, std::uint64_t salt);

  [[nodiscard]] bool enabled() const { return config_.enabled; }

  /// Folds one closed session's chunk view into the trackers. Ignores an
  /// empty session and one whose ten means are not all finite.
  void observe(std::span<const core::ChunkObs> chunks);

  /// Forgets everything and recaptures the reference from the next
  /// sessions — called on model (hot-)load so the snapshot is always
  /// "what traffic looked like when this model went live".
  void reset();

  /// max over metrics of KS(reference, current); 0 while warming up.
  [[nodiscard]] double distance() const { return cached_distance_; }

  /// Per-metric KS distance (index into drift_metric_names()); 0 while
  /// warming up. Refreshed on the same cadence as distance().
  [[nodiscard]] double metric_distance(std::size_t metric) const {
    return cached_per_metric_[metric];
  }

  /// Sessions observed since the last reset (reference + current phases).
  [[nodiscard]] std::uint64_t sessions_observed() const { return observed_; }

  /// True once the reference snapshot is frozen.
  [[nodiscard]] bool reference_ready() const { return reference_ready_; }

 private:
  void recompute();

  DriftConfig config_;
  std::uint64_t salt_ = 0;
  std::uint64_t observed_ = 0;
  bool reference_ready_ = false;
  /// Reference-phase session means, sorted in place when the reference
  /// freezes: from then on the reference sample.
  std::array<std::vector<double>, kDriftMetrics> reference_;
  /// Post-reference uniform sample of session means.
  std::array<ts::Reservoir, kDriftMetrics> current_;
  /// Metrics whose current sample changed since their last KS walk.
  std::array<bool, kDriftMetrics> stale_{};
  double cached_distance_ = 0.0;
  std::array<double, kDriftMetrics> cached_per_metric_{};
};

}  // namespace vqoe::lifecycle
