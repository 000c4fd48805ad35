#include "vqoe/ts/cusum.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "vqoe/ts/summary.h"

namespace vqoe::ts {

std::vector<double> cusum_chart(std::span<const double> series,
                                std::optional<double> mu) {
  std::vector<double> out(series.size());
  cusum_chart_into(series, out, mu);
  return out;
}

void cusum_chart_into(std::span<const double> series, std::span<double> out,
                      std::optional<double> mu) {
  assert(out.size() == series.size());
  const double reference = mu.value_or(mean(series));
  double acc = 0.0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    acc += series[i] - reference;
    out[i] = acc;
  }
}

double cusum_std(std::span<const double> series) {
  if (series.size() < 2) return 0.0;
  const auto chart = cusum_chart(series);
  return std_dev(chart);
}

double CusumStd::value() const {
  if (n_ < 2) return 0.0;
  const double n = static_cast<double>(n_);
  const double mu = prefix_ / n;
  const double sum_t = n * (n + 1.0) / 2.0;
  const double sum_t2 = n * (n + 1.0) * (2.0 * n + 1.0) / 6.0;
  const double sum_s = sum_p_ - mu * sum_t;
  const double sum_s2 = sum_p2_ - 2.0 * mu * sum_tp_ + mu * mu * sum_t2;
  const double mean_s = sum_s / n;
  // Cancellation in the sum-of-squares form can dip fractionally below 0.
  const double var = sum_s2 / n - mean_s * mean_s;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

PageCusum::PageCusum(double mu, double drift, double threshold)
    : mu_(mu), drift_(drift), threshold_(threshold) {
  if (drift < 0.0) throw std::invalid_argument{"PageCusum: drift must be >= 0"};
  if (threshold <= 0.0) throw std::invalid_argument{"PageCusum: threshold must be > 0"};
}

bool PageCusum::step(double x) {
  g_pos_ = std::max(0.0, g_pos_ + x - mu_ - drift_);
  g_neg_ = std::max(0.0, g_neg_ - x + mu_ - drift_);
  if (g_pos_ > threshold_ || g_neg_ > threshold_) {
    reset();
    return true;
  }
  return false;
}

std::vector<std::size_t> PageCusum::detect(std::span<const double> series) {
  std::vector<std::size_t> alarms;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (step(series[i])) alarms.push_back(i);
  }
  return alarms;
}

void PageCusum::reset() {
  g_pos_ = 0.0;
  g_neg_ = 0.0;
}

std::vector<double> deltas(std::span<const double> series) {
  std::vector<double> out(series.size() < 2 ? 0 : series.size() - 1);
  deltas_into(series, out);
  return out;
}

void deltas_into(std::span<const double> series, std::span<double> out) {
  assert(out.size() == (series.size() < 2 ? 0 : series.size() - 1));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = series[i + 1] - series[i];
  }
}

std::vector<double> product(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  std::vector<double> out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(a[i] * b[i]);
  return out;
}

}  // namespace vqoe::ts
