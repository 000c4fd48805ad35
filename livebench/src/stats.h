// Order statistics the benchmark reports: medians over passes and latency
// percentiles with the sample-support rule (a percentile is reported only
// when at least `min_beyond` samples lie beyond it).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace livebench {

/// Linear-interpolation quantile (q in [0, 1]) of an ascending sample.
/// Returns 0 for an empty sample.
[[nodiscard]] inline double quantile_sorted(std::span<const double> sorted,
                                            double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

/// The better decile of per-pass figures: the 90th percentile when higher
/// is better, the 10th when lower is. Interference from other tenants of
/// a shared host only ever slows a pass, in phases that can outlast a run,
/// and a thread waking on an idle virtual CPU can wait milliseconds for the
/// host, which makes short figures such as set-up time bimodal. The middle
/// of a run's passes therefore moves with the host; the better decile
/// moves with the code, and still has a tenth of the passes beyond it.
[[nodiscard]] inline double better_decile(std::vector<double> values,
                                          bool higher_is_better) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, higher_is_better ? 0.9 : 0.1);
}

/// Samples strictly beyond the p-th percentile of `n` samples, with p in
/// tenths of a percent (990 = p99): n - ceil(n * p / 1000). Integer
/// arithmetic, so p99 of 1000 samples has exactly 10 beyond it.
[[nodiscard]] constexpr std::size_t samples_beyond(std::size_t n,
                                                   std::size_t p_tenths) {
  return n - (n * p_tenths + 999) / 1000;
}

[[nodiscard]] constexpr bool percentile_supported(std::size_t n,
                                                  std::size_t p_tenths,
                                                  std::size_t min_beyond = 10) {
  return samples_beyond(n, p_tenths) >= min_beyond;
}

/// The highest percentile of the ladder p99.9 / p99 / p95 / p90 / p75 /
/// p50 that `n` samples support, in tenths of a percent; 0 when not even
/// the median has `min_beyond` samples beyond it.
[[nodiscard]] constexpr std::size_t highest_supported_percentile(
    std::size_t n, std::size_t min_beyond = 10) {
  constexpr std::array<std::size_t, 6> kLadder{999, 990, 950, 900, 750, 500};
  for (const std::size_t p : kLadder) {
    if (percentile_supported(n, p, min_beyond)) return p;
  }
  return 0;
}

}  // namespace livebench
