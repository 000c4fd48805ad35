// Cumulative-sum change detection (E.S. Page, Biometrika 1954).
//
// Section 4.3 of the paper detects representation-quality switches with a
// CUSUM control chart over the per-session series Δsize × Δt (chunk size
// delta times chunk inter-arrival delta): "instead of thresholds we use the
// standard deviation of the output of the change detection algorithm" and a
// fixed decision threshold of 500 on that standard deviation (eq. 3).
//
// Two flavours are provided:
//  * cusum_chart()  — the classic control chart S_t = Σ_{i<=t} (x_i - μ̂),
//    whose standard deviation is the paper's detector statistic;
//  * PageCusum      — the textbook one-sided/two-sided Page test with drift
//    and decision threshold, used by the tests and the ablation benches to
//    locate individual change points.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace vqoe::ts {

/// Classic CUSUM control chart: S_0 = 0, S_t = S_{t-1} + (x_t - mu).
/// When `mu` is not given, the sample mean of `series` is used (the chart
/// then always ends at ~0 and drifts away from 0 around mean shifts).
/// Returns a series of the same length as the input.
[[nodiscard]] std::vector<double> cusum_chart(std::span<const double> series,
                                              std::optional<double> mu = std::nullopt);

/// cusum_chart() into a caller-owned buffer.
/// Precondition: out.size() == series.size().
void cusum_chart_into(std::span<const double> series, std::span<double> out,
                      std::optional<double> mu = std::nullopt);

/// The paper's detector statistic: the standard deviation of the CUSUM
/// control chart of `series` (eq. 3 applies this to Δsize × Δt). Returns 0
/// for series shorter than 2 points.
[[nodiscard]] double cusum_std(std::span<const double> series);

/// Incremental cusum_std(): the same statistic, updatable in O(1) per
/// observation without buffering the series (the windowed live path,
/// vqoe::window, keeps one per in-flight window).
///
/// Derivation: with prefix sums P_t = Σ_{i<=t} x_i and the sample mean
/// μ = P_n / n, the chart is S_t = P_t - tμ, so
///   Σ S_t  = Σ P_t - μ Σ t
///   Σ S_t² = Σ P_t² - 2μ Σ tP_t + μ² Σ t²
/// where Σt = n(n+1)/2 and Σt² = n(n+1)(2n+1)/6 are closed-form. Keeping
/// (n, P, ΣP, ΣP², ΣtP) is therefore enough to evaluate the population
/// variance of the chart at any point. Numerically this is a textbook
/// sum-of-squares formula, not Welford: it agrees with cusum_std() to
/// floating-point rounding, not bit-exactly — callers needing bit-identity
/// with the batch statistic (the session-close verdict path) must score
/// through cusum_std() on the buffered series instead.
class CusumStd {
 public:
  /// Feeds one observation.
  void add(double x) {
    ++n_;
    prefix_ += x;
    sum_p_ += prefix_;
    sum_p2_ += prefix_ * prefix_;
    sum_tp_ += static_cast<double>(n_) * prefix_;
  }

  /// The statistic over everything added so far; 0 for fewer than 2 points
  /// (matching cusum_std()).
  [[nodiscard]] double value() const;

  [[nodiscard]] std::size_t count() const { return n_; }

  void reset() { *this = CusumStd{}; }

 private:
  std::size_t n_ = 0;
  double prefix_ = 0.0;  ///< P_n, the running sum of the series
  double sum_p_ = 0.0;   ///< Σ P_t
  double sum_p2_ = 0.0;  ///< Σ P_t²
  double sum_tp_ = 0.0;  ///< Σ t·P_t  (t is 1-based)
};

/// Two-sided Page CUSUM test. Maintains the usual recursions
///   G+_t = max(0, G+_{t-1} + x_t - mu - drift)
///   G-_t = max(0, G-_{t-1} - x_t + mu - drift)
/// and reports an alarm whenever either statistic exceeds `threshold`,
/// resetting afterwards.
class PageCusum {
 public:
  /// @param mu        reference (in-control) mean of the watched series.
  /// @param drift     slack value k; changes smaller than `drift` per step
  ///                  are absorbed. Must be >= 0.
  /// @param threshold decision interval h; must be > 0.
  PageCusum(double mu, double drift, double threshold);

  /// Feeds one observation. Returns true when an alarm fires at this step.
  bool step(double x);

  /// Feeds a full series and returns the 0-based indices of every alarm.
  [[nodiscard]] std::vector<std::size_t> detect(std::span<const double> series);

  /// Resets the accumulated statistics (done automatically after an alarm).
  void reset();

  [[nodiscard]] double positive_statistic() const { return g_pos_; }
  [[nodiscard]] double negative_statistic() const { return g_neg_; }

 private:
  double mu_;
  double drift_;
  double threshold_;
  double g_pos_ = 0.0;
  double g_neg_ = 0.0;
};

/// First differences: out[i] = series[i+1] - series[i]; size n-1 (empty for
/// n < 2). Used to build Δsize and Δt from chunk sizes and arrival times.
[[nodiscard]] std::vector<double> deltas(std::span<const double> series);

/// deltas() into a caller-owned buffer.
/// Precondition: out.size() == max(series.size(), 1) - 1.
void deltas_into(std::span<const double> series, std::span<double> out);

/// Element-wise product of two equally sized series (the Δsize × Δt signal).
/// Precondition: a.size() == b.size().
[[nodiscard]] std::vector<double> product(std::span<const double> a,
                                          std::span<const double> b);

}  // namespace vqoe::ts
