#include "vqoe/window/window.h"

#include <cmath>

namespace vqoe::window {

namespace {

constexpr double kBytesPerKB = 1000.0;  // matches core/features.cpp

void append_stats(const ts::OnlineStats& s, std::vector<double>& out) {
  out.push_back(s.min());
  out.push_back(s.mean());
  out.push_back(s.max());
  out.push_back(s.std_dev());
}

}  // namespace

const std::vector<std::string>& window_feature_names() {
  static const std::vector<std::string> names = [] {
    const std::vector<std::string> metrics = {
        "rtt_min", "rtt_avg", "rtt_max",    "bdp",      "bif_avg", "bif_max",
        "loss",    "retrans", "chunk_size", "chunk_dt", "goodput"};
    const std::vector<std::string> stats = {"min", "mean", "max", "std"};
    std::vector<std::string> out;
    out.reserve(metrics.size() * stats.size() + 3);
    for (const auto& metric : metrics) {
      for (const auto& stat : stats) out.push_back(metric + ":" + stat);
    }
    out.push_back("chunk_count");
    out.push_back("bytes_kb");
    out.push_back("cusum_dsize_dt");
    return out;
  }();
  return names;
}

void WindowSummary::add(double request_time_s, double arrival_time_s,
                        double size_bytes) {
  const double size_kb = size_bytes / kBytesPerKB;
  if (goodput_.count() > 0) {
    cusum_.add((size_kb - prev_size_kb_) * (arrival_time_s - prev_arrival_s_));
  }
  const double duration = arrival_time_s - request_time_s;
  goodput_.add(duration > 0.0 ? size_bytes * 8.0 / duration / 1000.0 : 0.0);
  prev_arrival_s_ = arrival_time_s;
  prev_size_kb_ = size_kb;
}

void WindowAccumulator::add(double request_time_s, double arrival_time_s,
                            double size_bytes,
                            const net::TransportStats& transport) {
  const double size_kb = size_bytes / kBytesPerKB;
  rtt_min_.add(transport.rtt_min_ms);
  rtt_avg_.add(transport.rtt_avg_ms);
  rtt_max_.add(transport.rtt_max_ms);
  bdp_kb_.add(transport.bdp_bytes / kBytesPerKB);
  bif_avg_kb_.add(transport.bif_avg_bytes / kBytesPerKB);
  bif_max_kb_.add(transport.bif_max_bytes / kBytesPerKB);
  loss_.add(transport.loss_pct);
  retrans_.add(transport.retrans_pct);
  if (chunks() > 0) dt_.add(arrival_time_s - prev_arrival_s_);
  size_kb_.add(size_kb);
  bytes_kb_ += size_kb;
  prev_arrival_s_ = arrival_time_s;
  summary_.add(request_time_s, arrival_time_s, size_bytes);
}

void WindowAccumulator::features_into(std::vector<double>& out) const {
  out.clear();
  out.reserve(window_feature_names().size());
  append_stats(rtt_min_, out);
  append_stats(rtt_avg_, out);
  append_stats(rtt_max_, out);
  append_stats(bdp_kb_, out);
  append_stats(bif_avg_kb_, out);
  append_stats(bif_max_kb_, out);
  append_stats(loss_, out);
  append_stats(retrans_, out);
  append_stats(size_kb_, out);
  append_stats(dt_, out);
  append_stats(summary_.goodput(), out);
  out.push_back(static_cast<double>(chunks()));
  out.push_back(bytes_kb_);
  out.push_back(summary_.cusum_std());
}

void SessionWindows::start(const WindowConfig& config,
                           double session_start_s) {
  config_ = config;
  anchor_ = session_start_s;
  first_ = 0;
  end_ = 0;
}

void SessionWindows::close_due(double now_s, std::vector<ClosedWindow>& out) {
  if (!enabled()) return;
  // Window ends ascend with the index, so the due windows are a prefix of
  // the in-flight run.
  for (; first_ < end_ && locate(first_, now_s) == Side::kPast; ++first_) {
    out.push_back(ClosedWindow{first_, window_start(first_),
                               window_end(first_), false});
  }
}

void SessionWindows::add(double request_time_s) {
  const double rel = request_time_s - anchor_;
  // A time before the anchor holds no window (cannot happen in order); a
  // non-finite one would never end the walks below.
  if (!enabled() || !std::isfinite(rel) || rel < 0.0) return;
  // floor() only guesses the last window started by t; locate() decides.
  const double guess = std::floor(rel / config_.hop());
  std::uint64_t last = guess > 0.0 ? static_cast<std::uint64_t>(guess) : 0;
  while (last > 0 && locate(last, request_time_s) == Side::kBefore) --last;
  while (locate(last + 1, request_time_s) != Side::kBefore) ++last;
  // In a gap between windows (hop > length): no window holds the chunk.
  if (locate(last, request_time_s) != Side::kInside) return;
  if (first_ == end_) {
    // Nothing in flight: the chunk opens every window holding it, a run
    // that ends at `last`. Otherwise the run starts at first_ already.
    first_ = last;
    while (first_ > 0 && locate(first_ - 1, request_time_s) == Side::kInside) {
      --first_;
    }
  }
  end_ = last + 1;
}

void SessionWindows::close_all(double session_end_s,
                               std::vector<ClosedWindow>& out) {
  if (!enabled()) return;
  for (; first_ < end_; ++first_) {
    out.push_back(
        ClosedWindow{first_, window_start(first_), session_end_s, true});
  }
}

}  // namespace vqoe::window
