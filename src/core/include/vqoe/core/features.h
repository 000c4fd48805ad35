// Feature construction (Sections 4.1 and 4.2).
//
// The detectors never see ground truth — only the per-chunk transport view
// an operator gets from encrypted traffic. This header defines that view
// (ChunkObs) and the two constructed feature sets:
//
//  * the stall set: the 10 Table-1 metrics (RTT min/avg/max, BDP, BIF
//    avg/max, loss %, retransmission %, chunk size, chunk inter-arrival
//    time) x 7 summary statistics (min/max/mean/std/p25/p50/p75) = 70
//    features;
//  * the representation set: 14 metrics — the 10 above with chunk
//    inter-arrival replaced by its delta, plus the running average chunk
//    size, the chunk size delta, the running average throughput and the
//    throughput CUSUM — x 15 statistics (min/max/mean/std and the
//    5/10/15/20/25/50/75/80/85/90/95th percentiles) = 210 features.
//
// Both sets come out of one builder, FeaturePlan, which builds only the
// cells it names. A CFS-selected detector reads a handful of the 280
// cells, so the live path builds the union of its models' selections; a
// plan of every cell of a set backs stall_features() and
// representation_features(), which training, feature selection and
// offline evaluation use. The plan:
//
//  * fills the base series its cells read in one extraction pass over the
//    chunk span, each series once even when both sets read it;
//  * derives chunk_dt, chunk_avg_size, chunk_dsize, throughput_avg and
//    cusum_throughput only when a planned cell reads them;
//  * sorts a series only when a planned cell reads one of its statistics,
//    and then reads every statistic (min and max included) off the sorted
//    series, as the reference reduction (ts/summary.h: every statistic
//    over one sorted copy) does; a series filled only to derive another
//    is never sorted.
//
// Every planned cell is bit-identical to that reference reduction over its
// series; the tests hold the builder to it.
//
// Units are chosen once here and used everywhere: sizes in KB, times in
// seconds, rates in kbit/s, RTT in ms, loss/retransmissions in percent.
// The switch-detection signal Δsize x Δt is therefore KB·s, which is the
// unit in which the paper's fixed CUSUM-std threshold of 500 lives.
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vqoe/net/tcp.h"
#include "vqoe/session/reconstruct.h"
#include "vqoe/trace/weblog.h"

namespace vqoe::core {

/// The operator's view of one media chunk download — all that survives
/// encryption.
struct ChunkObs {
  double request_time_s = 0.0;
  double arrival_time_s = 0.0;
  double size_bytes = 0.0;
  net::TransportStats transport;

  [[nodiscard]] double duration_s() const {
    return arrival_time_s - request_time_s;
  }
  /// Application goodput of this chunk in kbit/s.
  [[nodiscard]] double goodput_kbps() const {
    const double d = duration_s();
    return d > 0.0 ? size_bytes * 8.0 / d / 1000.0 : 0.0;
  }
};

/// Extracts the chunk view from *media* weblog records (others are
/// skipped). Works identically on cleartext and encrypted records.
[[nodiscard]] std::vector<ChunkObs> chunks_from_weblogs(
    std::span<const trace::WeblogRecord> records);

/// Extracts the chunk view from a reconstructed encrypted session.
[[nodiscard]] std::vector<ChunkObs> chunks_from_session(
    const session::ReconstructedSession& session);

/// Width of the stall feature space (10 metrics x 7 statistics).
inline constexpr std::size_t kStallWidth = 70;
/// Width of the representation feature space (14 metrics x 15 statistics).
inline constexpr std::size_t kReprWidth = 210;

/// Cells of the stall space, indexed like stall_feature_names().
using StallMask = std::bitset<kStallWidth>;
/// Cells of the representation space, indexed like
/// representation_feature_names().
using ReprMask = std::bitset<kReprWidth>;

/// The feature vectors behind one assessment. Feature values do not depend
/// on the model — only which cells get built does — so a capture whose
/// masks cover another model's selection lets that model classify the same
/// span for the cost of a projection and a forest walk (the shadow-scoring
/// fast path). A plain value, masks included: a capture may be copied and
/// outlive the plan and the monitor that built it.
struct SessionFeatures {
  /// 70-wide stall vector, empty when no stall cell was built. Cells
  /// outside `stall_mask` hold quiet NaN.
  std::vector<double> stall;
  /// 210-wide representation vector, empty when no representation cell
  /// was built. Cells outside `repr_mask` hold quiet NaN.
  std::vector<double> repr;
  StallMask stall_mask;  ///< the built cells of `stall`
  ReprMask repr_mask;    ///< the built cells of `repr`
  /// skip_initial_s of the SwitchDetector behind `switch_score`. The CUSUM
  /// statistic depends on the chunk span and this skip alone — a model
  /// whose skip matches can reuse the score verbatim instead of rebuilding
  /// the signal. Negative = no capture.
  double switch_skip_s = -1.0;
  double switch_score = 0.0;
};

/// A set of cells in the two feature spaces, compiled into the work that
/// builds them (see the header comment).
class FeaturePlan {
 public:
  /// The empty plan: builds nothing.
  FeaturePlan() = default;

  FeaturePlan(const StallMask& stall, const ReprMask& repr)
      : stall_(stall), repr_(repr) {
    compile();
  }

  [[nodiscard]] const StallMask& stall() const { return stall_; }
  [[nodiscard]] const ReprMask& repr() const { return repr_; }

  /// True when every cell of `other` is in this plan.
  [[nodiscard]] bool covers(const FeaturePlan& other) const {
    return (other.stall_ & ~stall_).none() && (other.repr_ & ~repr_).none();
  }

  /// Adds the cells of `other` (the union of the two plans).
  FeaturePlan& operator|=(const FeaturePlan& other) {
    stall_ |= other.stall_;
    repr_ |= other.repr_;
    compile();
    return *this;
  }

  /// Builds the planned cells of `chunks` into `out.stall` and `out.repr`
  /// and sets their masks; the switch fields are left alone. A space
  /// without a planned cell leaves its vector empty. `series` is scratch
  /// for the per-metric series, reusable across calls.
  void build(std::span<const ChunkObs> chunks, std::vector<double>& series,
             SessionFeatures& out) const;

 private:
  /// The base and derived per-chunk series behind the metrics of both
  /// spaces (named in features.cpp).
  static constexpr std::size_t kSeries = 16;

  void compile();

  StallMask stall_;
  ReprMask repr_;
  /// The compiled work. Per series, the distinct statistics its planned
  /// cells read, as bits in representation_statistic_set() order (which
  /// contains the stall set).
  std::array<std::uint16_t, kSeries> stats_{};
  std::uint16_t filled_ = 0;  ///< series the build materializes, as bits
};

/// Names of the 70 stall-detection features, in the order
/// stall_features() emits values. Naming scheme "<metric>:<stat>", e.g.
/// "chunk_size:min", "bdp:mean", "retrans:max".
[[nodiscard]] const std::vector<std::string>& stall_feature_names();

/// The 70-dimensional stall feature vector of a session.
[[nodiscard]] std::vector<double> stall_features(std::span<const ChunkObs> chunks);

/// stall_features() into a caller-owned buffer (cleared, then filled).
void stall_features_into(std::span<const ChunkObs> chunks,
                         std::vector<double>& out);

/// Names of the 210 representation-detection features.
[[nodiscard]] const std::vector<std::string>& representation_feature_names();

/// The 210-dimensional representation feature vector of a session.
[[nodiscard]] std::vector<double> representation_features(
    std::span<const ChunkObs> chunks);

/// representation_features() into a caller-owned buffer (cleared, filled).
void representation_features_into(std::span<const ChunkObs> chunks,
                                  std::vector<double>& out);

/// The switch-detection time series Δsize x Δt (KB·s) over consecutive
/// chunks, after dropping the first `skip_initial_s` seconds of the session
/// (the start-up filter of Section 4.3). Empty when fewer than three chunks
/// remain.
[[nodiscard]] std::vector<double> switch_signal(std::span<const ChunkObs> chunks,
                                                double skip_initial_s = 10.0);

}  // namespace vqoe::core
