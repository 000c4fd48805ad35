#include "vqoe/ts/reservoir.h"

#include <algorithm>
#include <cmath>

namespace vqoe::ts {

namespace {

/// splitmix64 step (Steele, Lea, Flood 2014): a full-period counter
/// generator with excellent diffusion — deterministic, seedable, three
/// multiplies. The modulo reduction in add() carries a bias of at most
/// capacity/2^64 per draw, which is far below anything a KS comparison over
/// a few hundred samples could resolve.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), state_(seed) {
  slots_.reserve(capacity_);
  sorted_.reserve(capacity_);
}

bool Reservoir::add(double value) {
  if (std::isnan(value)) return false;
  const std::uint64_t index = seen_++;
  if (capacity_ == 0) return false;
  if (slots_.size() < capacity_) {
    slots_.push_back(value);
  } else {
    const std::uint64_t j = splitmix64(state_) % (index + 1);
    if (j >= capacity_) return false;
    double& slot = slots_[static_cast<std::size_t>(j)];
    // The replaced value is in the view. -0.0 == +0.0, so among equal
    // entries take one with the replaced value's sign: the view stays a
    // permutation of the sample, bit for bit.
    auto old = std::lower_bound(sorted_.begin(), sorted_.end(), slot);
    while (std::signbit(*old) != std::signbit(slot)) ++old;
    sorted_.erase(old);
    slot = value;
  }
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value),
                 value);
  return true;
}

void Reservoir::reset(std::uint64_t seed) {
  slots_.clear();
  sorted_.clear();
  seen_ = 0;
  state_ = seed;
}

double ks_distance(std::span<const double> sa, std::span<const double> sb) {
  if (sa.empty() || sb.empty()) return 0.0;
  // Merge walk: the supremum of |F_a - F_b| is attained just after one of
  // the sample points, so stepping through the union of both sorted samples
  // and comparing the step functions there is exact.
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double d = 0.0;
  while (ia < sa.size() && ib < sb.size()) {
    // Step past the smaller head, then past every entry of either sample
    // <= it. Taking the head first guarantees progress even when a NaN
    // makes every comparison false. The step picks its side without a
    // branch: which sample holds the next value is data-dependent, and a
    // branch there mispredicts on about half the steps.
    const bool b_first = sb[ib] < sa[ia];
    const double x = b_first ? sb[ib] : sa[ia];
    ia += static_cast<std::size_t>(!b_first);
    ib += static_cast<std::size_t>(b_first);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    d = std::max(d, std::abs(static_cast<double>(ia) / na -
                             static_cast<double>(ib) / nb));
  }
  // Past the shorter sample's end one CDF sits at 1; the other keeps
  // climbing toward 1, so the gap only shrinks — no further comparisons
  // needed.
  return d;
}

double ks_distance(const Ecdf& a, const Ecdf& b) {
  return ks_distance(a.sorted_sample(), b.sorted_sample());
}

}  // namespace vqoe::ts
