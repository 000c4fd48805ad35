// DriftMonitor invariants: reference capture, warm-up behaviour, KS
// response to a genuine distribution shift, determinism across runs, the
// reset-on-swap contract, non-finite sessions, and bit-identity with a
// tracker that re-sorts every sample at every recompute.
#include "vqoe/lifecycle/drift.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "vqoe/ts/ecdf.h"
#include "vqoe/ts/reservoir.h"

namespace vqoe::lifecycle {
namespace {

/// Synthetic session: `n` chunks whose transport metrics sit around
/// deterministic per-chunk offsets of the given bases. `phase` varies
/// sessions within one distribution without an RNG.
std::vector<core::ChunkObs> make_session(std::size_t phase, double rtt_base,
                                         double size_base, std::size_t n = 8) {
  std::vector<core::ChunkObs> chunks(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    core::ChunkObs& c = chunks[i];
    const double jitter = static_cast<double>((phase * 7 + i * 3) % 11) / 11.0;
    c.request_time_s = t;
    c.arrival_time_s = t + 0.5 + 0.1 * jitter;
    c.size_bytes = size_base * (0.8 + 0.4 * jitter);
    c.transport.rtt_min_ms = rtt_base * (0.9 + 0.1 * jitter);
    c.transport.rtt_avg_ms = rtt_base * (1.0 + 0.2 * jitter);
    c.transport.rtt_max_ms = rtt_base * (1.3 + 0.3 * jitter);
    c.transport.bdp_bytes = 40000.0 + 5000.0 * jitter;
    c.transport.bif_avg_bytes = 20000.0 + 3000.0 * jitter;
    c.transport.bif_max_bytes = 30000.0 + 4000.0 * jitter;
    c.transport.loss_pct = 0.5 + 0.3 * jitter;
    c.transport.retrans_pct = 0.8 + 0.4 * jitter;
    t = c.arrival_time_s + 1.0;
  }
  return chunks;
}

DriftConfig small_config() {
  DriftConfig config;
  config.enabled = true;
  config.reference_sessions = 16;
  config.reservoir_size = 64;
  config.min_current = 8;
  config.recompute_every = 1;
  return config;
}

TEST(DriftMonitorTest, DefaultConstructedIsDisabledNoOp) {
  DriftMonitor monitor;
  EXPECT_FALSE(monitor.enabled());
  const auto chunks = make_session(0, 50.0, 500000.0);
  monitor.observe(chunks);
  EXPECT_EQ(monitor.sessions_observed(), 0u);
  EXPECT_DOUBLE_EQ(monitor.distance(), 0.0);
}

TEST(DriftMonitorTest, MetricNamesMatchCount) {
  const auto names = drift_metric_names();
  EXPECT_EQ(names.size(), kDriftMetrics);
  EXPECT_EQ(names.front(), "rtt_min");
  EXPECT_EQ(names.back(), "chunk_time");
}

TEST(DriftMonitorTest, WarmupReportsZeroUntilEvidence) {
  const DriftConfig config = small_config();
  DriftMonitor monitor{config, 0};
  for (std::size_t i = 0; i < config.reference_sessions; ++i) {
    EXPECT_FALSE(monitor.reference_ready());
    EXPECT_DOUBLE_EQ(monitor.distance(), 0.0);
    const auto chunks = make_session(i, 50.0, 500000.0);
    monitor.observe(chunks);
  }
  EXPECT_TRUE(monitor.reference_ready());
  // Current phase: below min_current the distance stays 0.
  for (std::size_t i = 0; i + 1 < config.min_current; ++i) {
    const auto chunks = make_session(100 + i, 50.0, 500000.0);
    monitor.observe(chunks);
    EXPECT_DOUBLE_EQ(monitor.distance(), 0.0) << "session " << i;
  }
}

TEST(DriftMonitorTest, StationaryTrafficStaysNear) {
  const DriftConfig config = small_config();
  DriftMonitor monitor{config, 0};
  for (std::size_t i = 0; i < 64; ++i) {
    const auto chunks = make_session(i, 50.0, 500000.0);
    monitor.observe(chunks);
  }
  EXPECT_TRUE(monitor.reference_ready());
  EXPECT_LT(monitor.distance(), 0.5);
}

TEST(DriftMonitorTest, ShiftedTrafficIsFarAndNamed) {
  const DriftConfig config = small_config();
  DriftMonitor monitor{config, 0};
  for (std::size_t i = 0; i < config.reference_sessions; ++i) {
    const auto chunks = make_session(i, 50.0, 500000.0);
    monitor.observe(chunks);
  }
  // The live feed's RTTs move to 10x the reference: disjoint supports.
  for (std::size_t i = 0; i < 32; ++i) {
    const auto chunks = make_session(i, 500.0, 500000.0);
    monitor.observe(chunks);
  }
  EXPECT_GT(monitor.distance(), 0.9);
  EXPECT_GT(monitor.metric_distance(1), 0.9);  // rtt_avg moved
  EXPECT_LT(monitor.metric_distance(8), 0.5);  // chunk_size did not
}

TEST(DriftMonitorTest, DeterministicAcrossRuns) {
  const DriftConfig config = small_config();
  DriftMonitor a{config, 3};
  DriftMonitor b{config, 3};
  for (std::size_t i = 0; i < 200; ++i) {
    const auto chunks = make_session(i, 50.0 + (i % 5), 500000.0);
    a.observe(chunks);
    b.observe(chunks);
  }
  EXPECT_EQ(a.sessions_observed(), b.sessions_observed());
  EXPECT_DOUBLE_EQ(a.distance(), b.distance());
  for (std::size_t m = 0; m < kDriftMetrics; ++m) {
    EXPECT_DOUBLE_EQ(a.metric_distance(m), b.metric_distance(m)) << m;
  }
}

TEST(DriftMonitorTest, ResetRecapturesReferenceFromShiftedWorld) {
  const DriftConfig config = small_config();
  DriftMonitor monitor{config, 0};
  for (std::size_t i = 0; i < config.reference_sessions; ++i) {
    const auto chunks = make_session(i, 50.0, 500000.0);
    monitor.observe(chunks);
  }
  for (std::size_t i = 0; i < 32; ++i) {
    const auto chunks = make_session(i, 500.0, 500000.0);
    monitor.observe(chunks);
  }
  ASSERT_GT(monitor.distance(), 0.9);

  // Hot-swap: the new model's reference is the *shifted* world, so the
  // same traffic is no longer drift.
  monitor.reset();
  EXPECT_EQ(monitor.sessions_observed(), 0u);
  EXPECT_FALSE(monitor.reference_ready());
  EXPECT_DOUBLE_EQ(monitor.distance(), 0.0);
  for (std::size_t i = 0; i < 64; ++i) {
    const auto chunks = make_session(i, 500.0, 500000.0);
    monitor.observe(chunks);
  }
  EXPECT_TRUE(monitor.reference_ready());
  EXPECT_LT(monitor.distance(), 0.5);
}

TEST(DriftMonitorTest, EmptySessionsAreIgnored) {
  DriftMonitor monitor{small_config(), 0};
  monitor.observe({});
  EXPECT_EQ(monitor.sessions_observed(), 0u);
}

TEST(DriftMonitorTest, NonFiniteSessionIsIgnored) {
  // One NaN transport field once reached the reference sample, and the
  // first recompute's KS walk never returned.
  const DriftConfig config = small_config();
  DriftMonitor clean{config, 0};
  DriftMonitor fed_bad{config, 0};
  const auto bad_session = [](std::size_t i) {
    auto chunks = make_session(i, 50.0, 500000.0);
    switch (i % 3) {
      case 0:
        chunks[1].transport.rtt_min_ms = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        chunks[0].transport.bdp_bytes = std::numeric_limits<double>::infinity();
        break;
      default:
        chunks[2].size_bytes = -std::numeric_limits<double>::infinity();
        break;
    }
    return chunks;
  };
  for (std::size_t i = 0; i < 120; ++i) {
    // Bad sessions in the reference phase and in the current phase.
    if (i == 0 || i == 5 || i == 40 || i == 41 || i == 90) {
      const std::uint64_t before = fed_bad.sessions_observed();
      fed_bad.observe(bad_session(i));
      EXPECT_EQ(fed_bad.sessions_observed(), before) << "session " << i;
    }
    const auto chunks = make_session(i, i < 60 ? 50.0 : 80.0, 500000.0);
    clean.observe(chunks);
    fed_bad.observe(chunks);
    EXPECT_EQ(fed_bad.sessions_observed(), clean.sessions_observed());
    EXPECT_EQ(fed_bad.distance(), clean.distance()) << "session " << i;
  }
  EXPECT_GT(clean.distance(), 0.0);
}

/// The tracker as it was before the reservoirs kept a sorted view: at every
/// recompute, each metric's ECDF is built from the reservoir's slot-order
/// sample and compared with the reference ECDF.
class ResortingDrift {
 public:
  ResortingDrift(const DriftConfig& config, std::uint64_t salt)
      : config_(config), salt_(salt) {
    reset();
  }

  void reset() {
    observed_ = 0;
    reference_ready_ = false;
    distance_ = 0.0;
    per_metric_.assign(kDriftMetrics, 0.0);
    reference_values_.assign(kDriftMetrics, {});
    reference_.assign(kDriftMetrics, ts::Ecdf{});
    current_.clear();
    for (std::size_t m = 0; m < kDriftMetrics; ++m) {
      current_.emplace_back(config_.reservoir_size,
                            config_.seed ^ salt_ ^ (m * 0x9e3779b9ull));
    }
  }

  void observe(std::span<const core::ChunkObs> chunks) {
    if (chunks.empty()) return;
    const std::vector<double> means = session_means(chunks);
    ++observed_;
    if (!reference_ready_) {
      for (std::size_t m = 0; m < kDriftMetrics; ++m) {
        reference_values_[m].push_back(means[m]);
      }
      if (observed_ >= config_.reference_sessions) {
        for (std::size_t m = 0; m < kDriftMetrics; ++m) {
          reference_[m] = ts::Ecdf{reference_values_[m]};
        }
        reference_ready_ = true;
      }
      return;
    }
    for (std::size_t m = 0; m < kDriftMetrics; ++m) current_[m].add(means[m]);
    if (config_.recompute_every <= 1 ||
        observed_ % config_.recompute_every == 0) {
      if (current_[0].seen() < config_.min_current) return;
      double worst = 0.0;
      for (std::size_t m = 0; m < kDriftMetrics; ++m) {
        per_metric_[m] =
            ts::ks_distance(reference_[m], ts::Ecdf{current_[m].sample()});
        worst = std::max(worst, per_metric_[m]);
      }
      distance_ = worst;
    }
  }

  [[nodiscard]] double distance() const { return distance_; }
  [[nodiscard]] double metric_distance(std::size_t m) const {
    return per_metric_[m];
  }
  [[nodiscard]] std::uint64_t sessions_observed() const { return observed_; }

 private:
  /// drift.cpp's session means, term for term.
  static std::vector<double> session_means(
      std::span<const core::ChunkObs> chunks) {
    std::vector<double> sums(kDriftMetrics, 0.0);
    const double t0 = chunks.front().request_time_s;
    for (const core::ChunkObs& c : chunks) {
      sums[0] += c.transport.rtt_min_ms;
      sums[1] += c.transport.rtt_avg_ms;
      sums[2] += c.transport.rtt_max_ms;
      sums[3] += c.transport.bdp_bytes / 1000.0;
      sums[4] += c.transport.bif_avg_bytes / 1000.0;
      sums[5] += c.transport.bif_max_bytes / 1000.0;
      sums[6] += c.transport.loss_pct;
      sums[7] += c.transport.retrans_pct;
      sums[8] += c.size_bytes / 1000.0;
      sums[9] += c.arrival_time_s - t0;
    }
    for (double& s : sums) s /= static_cast<double>(chunks.size());
    return sums;
  }

  DriftConfig config_;
  std::uint64_t salt_;
  std::uint64_t observed_ = 0;
  bool reference_ready_ = false;
  double distance_ = 0.0;
  std::vector<double> per_metric_;
  std::vector<std::vector<double>> reference_values_;
  std::vector<ts::Ecdf> reference_;
  std::vector<ts::Reservoir> current_;
};

/// A session of one or two chunks whose metrics take a handful of values,
/// so session means tie often; `shift` moves half the metrics.
std::vector<core::ChunkObs> quantised_session(std::uint64_t i, double shift) {
  const auto level = [i](std::uint64_t salt) {
    return static_cast<double>(((i * 0x9e3779b97f4a7c15ull + salt) >> 45) % 4);
  };
  std::vector<core::ChunkObs> chunks(1 + i % 2);
  double t = static_cast<double>(i);
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    core::ChunkObs& c = chunks[k];
    c.request_time_s = t;
    c.arrival_time_s = t + 0.5 * level(k + 1);
    c.size_bytes = 250000.0 * (1.0 + level(k + 2));
    c.transport.rtt_min_ms = 20.0 * level(k + 3) + shift;
    c.transport.rtt_avg_ms = 30.0 * level(k + 4) + shift;
    c.transport.rtt_max_ms = 40.0 * level(k + 5);
    c.transport.bdp_bytes = 10000.0 * level(k + 6) + 1000.0 * shift;
    c.transport.bif_avg_bytes = 8000.0 * level(k + 7);
    c.transport.bif_max_bytes = 9000.0 * level(k + 8) + 500.0 * shift;
    c.transport.loss_pct = 0.25 * level(k + 9);
    c.transport.retrans_pct = 0.5 * level(k + 10) + 0.01 * shift;
    t = c.arrival_time_s + 1.0;
  }
  return chunks;
}

TEST(DriftMonitorTest, MatchesFullResortAfterEveryObserve) {
  for (const std::size_t capacity : {7u, 256u}) {
    for (const std::size_t cadence : {1u, 16u}) {
      SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                   " cadence=" + std::to_string(cadence));
      DriftConfig config;
      config.enabled = true;
      config.reference_sessions = 64;
      config.reservoir_size = capacity;
      config.min_current = 8;
      config.recompute_every = cadence;
      DriftMonitor monitor{config, 5};
      ResortingDrift replay{config, 5};
      for (std::uint64_t i = 0; i < 1400; ++i) {
        if (i == 700) {  // a hot swap mid-stream
          monitor.reset();
          replay.reset();
        }
        const auto chunks = quantised_session(i, i % 700 < 350 ? 0.0 : 7.0);
        monitor.observe(chunks);
        replay.observe(chunks);
        ASSERT_EQ(monitor.sessions_observed(), replay.sessions_observed());
        ASSERT_EQ(std::bit_cast<std::uint64_t>(monitor.distance()),
                  std::bit_cast<std::uint64_t>(replay.distance()))
            << "session " << i;
        for (std::size_t m = 0; m < kDriftMetrics; ++m) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(monitor.metric_distance(m)),
                    std::bit_cast<std::uint64_t>(replay.metric_distance(m)))
              << "session " << i << " metric " << m;
        }
      }
      EXPECT_GT(monitor.distance(), 0.0);
    }
  }
}

}  // namespace
}  // namespace vqoe::lifecycle
