#include "vqoe/core/features.h"

#include <algorithm>
#include <limits>

#include "vqoe/ts/cusum.h"
#include "vqoe/ts/summary.h"

namespace vqoe::core {

namespace {

constexpr double kBytesPerKB = 1000.0;

/// The per-chunk series behind the metrics. The raw ones come straight
/// from each chunk (goodput only feeds the throughput metrics); the
/// derived ones are computed from a raw series in chunk order.
enum Series : std::size_t {
  kRttMin, kRttAvg, kRttMax, kBdp, kBifAvg, kBifMax, kLoss, kRetrans,
  kChunkSize,  // KB
  kChunkTime,  // arrival relative to session start (s)
  kGoodput,    // kbit/s
  kChunkDt,    // inter-arrival times (s), n-1 values
  kChunkAvgSize, kChunkDsize, kThroughputAvg, kCusumThroughput,
  kSeriesCount
};

struct Metric {
  const char* name;
  Series series;
};

constexpr std::array<Metric, 10> kStallMetrics{{
    {"rtt_min", kRttMin}, {"rtt_avg", kRttAvg}, {"rtt_max", kRttMax},
    {"bdp", kBdp}, {"bif_avg", kBifAvg}, {"bif_max", kBifMax},
    {"loss", kLoss}, {"retrans", kRetrans}, {"chunk_size", kChunkSize},
    {"chunk_time", kChunkTime},
}};

constexpr std::array<Metric, 14> kReprMetrics{{
    {"rtt_min", kRttMin}, {"rtt_avg", kRttAvg}, {"rtt_max", kRttMax},
    {"bdp", kBdp}, {"bif_avg", kBifAvg}, {"bif_max", kBifMax},
    {"loss", kLoss}, {"retrans", kRetrans}, {"chunk_size", kChunkSize},
    {"chunk_dt", kChunkDt}, {"chunk_avg_size", kChunkAvgSize},
    {"chunk_dsize", kChunkDsize}, {"throughput_avg", kThroughputAvg},
    {"cusum_throughput", kCusumThroughput},
}};

/// Statistics are numbered by their position in the representation set,
/// which starts min, max, mean, std and holds every stall percentile.
constexpr std::size_t kMin = 0;
constexpr std::size_t kMax = 1;
constexpr std::size_t kMean = 2;
constexpr std::size_t kStd = 3;
constexpr std::size_t kStats = 15;
static_assert(kReprMetrics.size() * kStats == kReprWidth);

/// The stall set (min, max, mean, std, p25, p50, p75) in that numbering.
constexpr std::array<std::size_t, 7> kStallStats{kMin, kMax, kMean, kStd,
                                                 8,    9,    10};
static_assert(kStallMetrics.size() * kStallStats.size() == kStallWidth);

constexpr std::uint16_t bit(std::size_t i) {
  return static_cast<std::uint16_t>(1u << i);
}

std::vector<std::string> make_names(std::span<const Metric> metrics,
                                    std::span<const ts::Statistic> stats) {
  std::vector<std::string> names;
  names.reserve(metrics.size() * stats.size());
  for (const Metric& metric : metrics) {
    for (const ts::Statistic& stat : stats) {
      names.push_back(std::string{metric.name} + ":" + stat.name());
    }
  }
  return names;
}

// Running (cumulative) mean of a series, into a buffer of the same size.
void running_mean_into(std::span<const double> in, std::span<double> out) {
  double acc = 0.0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    acc += in[i];
    out[i] = acc / static_cast<double>(i + 1);
  }
}

}  // namespace

void FeaturePlan::compile() {
  static_assert(kSeriesCount == kSeries);
  stats_ = {};
  filled_ = 0;
  for (std::size_t m = 0; m < kStallMetrics.size(); ++m) {
    for (std::size_t j = 0; j < kStallStats.size(); ++j) {
      if (stall_.test(m * kStallStats.size() + j)) {
        stats_[kStallMetrics[m].series] |= bit(kStallStats[j]);
      }
    }
  }
  for (std::size_t m = 0; m < kReprMetrics.size(); ++m) {
    for (std::size_t k = 0; k < kStats; ++k) {
      if (repr_.test(m * kStats + k)) stats_[kReprMetrics[m].series] |= bit(k);
    }
  }
  for (std::size_t s = 0; s < kSeries; ++s) {
    if (stats_[s] != 0) filled_ |= bit(s);
  }
  if ((filled_ & bit(kChunkDt)) != 0) filled_ |= bit(kChunkTime);
  if ((filled_ & (bit(kChunkAvgSize) | bit(kChunkDsize))) != 0) {
    filled_ |= bit(kChunkSize);
  }
  if ((filled_ & (bit(kThroughputAvg) | bit(kCusumThroughput))) != 0) {
    filled_ |= bit(kGoodput);
  }
}

void FeaturePlan::build(std::span<const ChunkObs> chunks,
                        std::vector<double>& series,
                        SessionFeatures& out) const {
  constexpr double kUnbuilt = std::numeric_limits<double>::quiet_NaN();
  out.stall_mask = stall_;
  out.repr_mask = repr_;
  if (stall_.any()) {
    out.stall.assign(kStallWidth, kUnbuilt);
  } else {
    out.stall.clear();
  }
  if (repr_.any()) {
    out.repr.assign(kReprWidth, kUnbuilt);
  } else {
    out.repr.clear();
  }
  if (filled_ == 0) return;

  const auto filled = [this](std::size_t s) { return (filled_ & bit(s)) != 0; };
  const std::size_t n = chunks.size();
  series.resize(kSeries * n);
  std::array<double*, kSeries> col{};
  for (std::size_t s = 0; s < kSeries; ++s) {
    if (filled(s)) col[s] = series.data() + s * n;
  }

  // The one extraction pass: every raw series the plan reads.
  const double t0 = n > 0 ? chunks.front().request_time_s : 0.0;
  const auto put = [&col](Series s, std::size_t i, double value) {
    if (col[s] != nullptr) col[s][i] = value;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const ChunkObs& c = chunks[i];
    put(kRttMin, i, c.transport.rtt_min_ms);
    put(kRttAvg, i, c.transport.rtt_avg_ms);
    put(kRttMax, i, c.transport.rtt_max_ms);
    put(kBdp, i, c.transport.bdp_bytes / kBytesPerKB);
    put(kBifAvg, i, c.transport.bif_avg_bytes / kBytesPerKB);
    put(kBifMax, i, c.transport.bif_max_bytes / kBytesPerKB);
    put(kLoss, i, c.transport.loss_pct);
    put(kRetrans, i, c.transport.retrans_pct);
    put(kChunkSize, i, c.size_bytes / kBytesPerKB);
    put(kChunkTime, i, c.arrival_time_s - t0);
    put(kGoodput, i, c.goodput_kbps());
  }

  // Derived series, from raw series still in chunk order.
  const auto raw = [&col, n](Series s) {
    return std::span<const double>{col[s], n};
  };
  const std::size_t diffs = n > 0 ? n - 1 : 0;
  if (filled(kChunkDt)) {
    ts::deltas_into(raw(kChunkTime), {col[kChunkDt], diffs});
  }
  if (filled(kChunkAvgSize)) {
    running_mean_into(raw(kChunkSize), {col[kChunkAvgSize], n});
  }
  if (filled(kChunkDsize)) {
    ts::deltas_into(raw(kChunkSize), {col[kChunkDsize], diffs});
  }
  if (filled(kThroughputAvg)) {
    running_mean_into(raw(kGoodput), {col[kThroughputAvg], n});
  }
  if (filled(kCusumThroughput)) {
    ts::cusum_chart_into(raw(kGoodput), {col[kCusumThroughput], n});
  }

  // Statistics, each computed once per series over its sorted copy, as the
  // reference reduction in ts/summary.h does, and written to every planned
  // cell that reads it. Sorting in place is safe now: every derived series
  // has been computed.
  const auto& percentiles = ts::representation_statistic_set();
  for (std::size_t s = 0; s < kSeries; ++s) {
    const std::uint16_t stats = stats_[s];
    if (stats == 0) continue;
    const bool first_differences = s == kChunkDt || s == kChunkDsize;
    const std::size_t len = first_differences ? diffs : n;
    std::array<double, kStats> value{};  // an empty series reads 0
    if (len > 0) {
      const std::span<double> v{col[s], len};
      std::sort(v.begin(), v.end());
      value[kMin] = v.front();
      value[kMax] = v.back();
      if ((stats & bit(kMean)) != 0) value[kMean] = ts::mean(v);
      if ((stats & bit(kStd)) != 0) value[kStd] = ts::std_dev(v);
      for (std::size_t k = kStd + 1; k < kStats; ++k) {
        if ((stats & bit(k)) != 0) {
          value[k] = ts::percentile_sorted(v, percentiles[k].percentile);
        }
      }
    }
    for (std::size_t m = 0; m < kStallMetrics.size(); ++m) {
      if (kStallMetrics[m].series != s) continue;
      for (std::size_t j = 0; j < kStallStats.size(); ++j) {
        const std::size_t cell = m * kStallStats.size() + j;
        if (stall_.test(cell)) out.stall[cell] = value[kStallStats[j]];
      }
    }
    for (std::size_t m = 0; m < kReprMetrics.size(); ++m) {
      if (kReprMetrics[m].series != s) continue;
      for (std::size_t k = 0; k < kStats; ++k) {
        const std::size_t cell = m * kStats + k;
        if (repr_.test(cell)) out.repr[cell] = value[k];
      }
    }
  }
}

std::vector<ChunkObs> chunks_from_weblogs(
    std::span<const trace::WeblogRecord> records) {
  std::vector<ChunkObs> out;
  for (const trace::WeblogRecord& r : records) {
    if (r.kind != trace::RecordKind::media) continue;
    ChunkObs c;
    c.request_time_s = r.timestamp_s;
    c.arrival_time_s = r.arrival_time_s();
    c.size_bytes = static_cast<double>(r.object_size_bytes);
    c.transport = r.transport;
    out.push_back(c);
  }
  std::stable_sort(out.begin(), out.end(), [](const ChunkObs& a, const ChunkObs& b) {
    return a.request_time_s < b.request_time_s;
  });
  return out;
}

std::vector<ChunkObs> chunks_from_session(
    const session::ReconstructedSession& session) {
  return chunks_from_weblogs(session.media);
}

const std::vector<std::string>& stall_feature_names() {
  static const std::vector<std::string> names =
      make_names(kStallMetrics, ts::stall_statistic_set());
  return names;
}

std::vector<double> stall_features(std::span<const ChunkObs> chunks) {
  std::vector<double> out;
  stall_features_into(chunks, out);
  return out;
}

void stall_features_into(std::span<const ChunkObs> chunks,
                         std::vector<double>& out) {
  static const FeaturePlan plan{StallMask{}.set(), ReprMask{}};
  SessionFeatures built;
  built.stall = std::move(out);
  std::vector<double> series;
  plan.build(chunks, series, built);
  out = std::move(built.stall);
}

const std::vector<std::string>& representation_feature_names() {
  static const std::vector<std::string> names =
      make_names(kReprMetrics, ts::representation_statistic_set());
  return names;
}

std::vector<double> representation_features(std::span<const ChunkObs> chunks) {
  std::vector<double> out;
  representation_features_into(chunks, out);
  return out;
}

void representation_features_into(std::span<const ChunkObs> chunks,
                                  std::vector<double>& out) {
  static const FeaturePlan plan{StallMask{}, ReprMask{}.set()};
  SessionFeatures built;
  built.repr = std::move(out);
  std::vector<double> series;
  plan.build(chunks, series, built);
  out = std::move(built.repr);
}

std::vector<double> switch_signal(std::span<const ChunkObs> chunks,
                                  double skip_initial_s) {
  if (chunks.empty()) return {};
  const double cutoff = chunks.front().request_time_s + skip_initial_s;
  std::vector<double> sizes_kb;
  std::vector<double> arrivals;
  for (const ChunkObs& c : chunks) {
    if (c.arrival_time_s < cutoff) continue;
    sizes_kb.push_back(c.size_bytes / kBytesPerKB);
    arrivals.push_back(c.arrival_time_s);
  }
  if (sizes_kb.size() < 3) return {};
  const auto dsize = ts::deltas(sizes_kb);
  const auto dt = ts::deltas(arrivals);
  return ts::product(dsize, dt);
}

}  // namespace vqoe::core
