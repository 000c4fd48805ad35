#include "vqoe/lifecycle/drift.h"

#include <algorithm>
#include <cmath>

namespace vqoe::lifecycle {

namespace {

/// Matches the order of features.cpp's stall metric set (Table 1).
constexpr std::array<std::string_view, kDriftMetrics> kMetricNames = {
    "rtt_min",  "rtt_avg", "rtt_max", "bdp",        "bif_avg",
    "bif_max",  "loss",    "retrans", "chunk_size", "chunk_time"};

constexpr double kBytesPerKB = 1000.0;

/// Session means of the 10 Table-1 metrics in one pass, same units as the
/// feature builders (KB, ms, %, session-relative seconds).
std::array<double, kDriftMetrics> session_means(
    std::span<const core::ChunkObs> chunks) {
  std::array<double, kDriftMetrics> sums{};
  if (chunks.empty()) return sums;
  const double t0 = chunks.front().request_time_s;
  for (const core::ChunkObs& c : chunks) {
    sums[0] += c.transport.rtt_min_ms;
    sums[1] += c.transport.rtt_avg_ms;
    sums[2] += c.transport.rtt_max_ms;
    sums[3] += c.transport.bdp_bytes / kBytesPerKB;
    sums[4] += c.transport.bif_avg_bytes / kBytesPerKB;
    sums[5] += c.transport.bif_max_bytes / kBytesPerKB;
    sums[6] += c.transport.loss_pct;
    sums[7] += c.transport.retrans_pct;
    sums[8] += c.size_bytes / kBytesPerKB;
    sums[9] += c.arrival_time_s - t0;
  }
  const double n = static_cast<double>(chunks.size());
  for (double& s : sums) s /= n;
  return sums;
}

}  // namespace

std::span<const std::string_view> drift_metric_names() { return kMetricNames; }

DriftMonitor::DriftMonitor(const DriftConfig& config, std::uint64_t salt)
    : config_(config), salt_(salt) {
  if (!config_.enabled) return;
  for (std::size_t m = 0; m < kDriftMetrics; ++m) {
    reference_[m].reserve(config_.reference_sessions);
    current_[m] = ts::Reservoir(config_.reservoir_size,
                                config_.seed ^ salt_ ^ (m * 0x9e3779b9ull));
  }
}

void DriftMonitor::reset() {
  if (!config_.enabled) return;
  observed_ = 0;
  reference_ready_ = false;
  cached_distance_ = 0.0;
  cached_per_metric_.fill(0.0);
  stale_.fill(false);
  for (std::size_t m = 0; m < kDriftMetrics; ++m) {
    reference_[m].clear();
    current_[m].reset(config_.seed ^ salt_ ^ (m * 0x9e3779b9ull));
  }
}

void DriftMonitor::observe(std::span<const core::ChunkObs> chunks) {
  if (!config_.enabled || chunks.empty()) return;
  const std::array<double, kDriftMetrics> means = session_means(chunks);
  if (!std::all_of(means.begin(), means.end(),
                   [](double mean) { return std::isfinite(mean); })) {
    return;
  }
  ++observed_;
  if (!reference_ready_) {
    for (std::size_t m = 0; m < kDriftMetrics; ++m) {
      reference_[m].push_back(means[m]);
    }
    if (observed_ >= config_.reference_sessions) {
      for (std::vector<double>& reference : reference_) {
        std::sort(reference.begin(), reference.end());
      }
      reference_ready_ = true;
    }
    return;
  }
  for (std::size_t m = 0; m < kDriftMetrics; ++m) {
    if (current_[m].add(means[m])) stale_[m] = true;
  }
  // Refresh on a counter, not per session: session closes can burst and
  // distance() is read after every engine item — cache plus cadence keeps
  // both sides O(1) amortized.
  if (config_.recompute_every <= 1 ||
      observed_ % config_.recompute_every == 0) {
    recompute();
  }
}

void DriftMonitor::recompute() {
  if (current_[0].seen() < config_.min_current) return;
  double worst = 0.0;
  for (std::size_t m = 0; m < kDriftMetrics; ++m) {
    // The distance depends only on the two samples' multisets, and the
    // reference is frozen: a metric whose reservoir admitted nothing since
    // its last walk keeps its cached distance.
    if (stale_[m]) {
      cached_per_metric_[m] =
          ts::ks_distance(reference_[m], current_[m].sorted());
      stale_[m] = false;
    }
    worst = std::max(worst, cached_per_metric_[m]);
  }
  cached_distance_ = worst;
}

}  // namespace vqoe::lifecycle
