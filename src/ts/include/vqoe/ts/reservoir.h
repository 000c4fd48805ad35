// Deterministic reservoir sampling.
//
// The lifecycle drift monitor (src/lifecycle) keeps a bounded,
// uniformly-representative sample of each tracked feature's recent values
// so it can compare the live distribution against the reference snapshot
// captured at model load. A reservoir (Vitter's Algorithm R) gives exactly
// that: after `seen()` insertions every value had probability
// capacity/seen of being in the sample, in O(capacity) memory.
//
// The reservoir also keeps its sample sorted as it goes: an admission
// erases the replaced value from the sorted view and inserts the new one,
// both found by binary search. Two moves of at most `capacity` doubles per
// admission replace a copy-and-sort of the whole sample per KS comparison.
//
// Determinism: the replacement decisions come from an embedded splitmix64
// counter stream seeded at construction — no std::random_device, no global
// RNG state — so two reservoirs with the same seed fed the same values hold
// the same sample on every run and every platform. (src/ts is inside the
// project's determinism lint scope; this is the only RNG shape allowed
// there.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vqoe/ts/ecdf.h"

namespace vqoe::ts {

/// Bounded uniform sample of a double stream (Algorithm R, seeded).
class Reservoir {
 public:
  /// Empty, zero-capacity reservoir; add() is a counting no-op.
  Reservoir() = default;

  /// @param capacity number of slots (0 keeps only the count).
  /// @param seed     stream seed; equal seeds + equal inputs => equal sample.
  Reservoir(std::size_t capacity, std::uint64_t seed);

  /// Offers one value. The first `capacity` values are admitted verbatim;
  /// afterwards value i (0-based) replaces a uniformly random slot with
  /// probability capacity/(i+1). Returns whether the value was admitted;
  /// when it was not, the sample is unchanged. A NaN is ignored, neither
  /// counted nor admitted: the sorted view orders by `<`, which NaN does
  /// not take part in.
  bool add(double value);

  /// Values offered so far (admitted or not).
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] bool empty() const { return slots_.empty(); }

  /// The current sample, in slot order (not sorted, not arrival order once
  /// replacement starts).
  [[nodiscard]] std::span<const double> sample() const { return slots_; }

  /// The current sample in ascending order, kept up to date by add().
  [[nodiscard]] std::span<const double> sorted() const { return sorted_; }

  /// Builds the ECDF of the current sample.
  [[nodiscard]] Ecdf ecdf() const { return Ecdf{sample()}; }

  /// Forgets every value and reseeds the decision stream.
  void reset(std::uint64_t seed);

 private:
  std::vector<double> slots_;
  std::vector<double> sorted_;  ///< slots_ in ascending order
  std::size_t capacity_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0;  ///< splitmix64 counter
};

/// Kolmogorov–Smirnov distance between two ascending samples:
/// sup_x |F_a(x) - F_b(x)|, evaluated exactly by walking both. Returns 0
/// when either sample is empty (no evidence of divergence). Terminates on
/// any input; with a NaN in either sample the result is meaningless.
[[nodiscard]] double ks_distance(std::span<const double> sa,
                                 std::span<const double> sb);

/// ks_distance over the two ECDFs' sorted samples.
[[nodiscard]] double ks_distance(const Ecdf& a, const Ecdf& b);

}  // namespace vqoe::ts
