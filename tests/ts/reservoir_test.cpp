// Deterministic reservoir sampling (Vitter's Algorithm R with an inline
// splitmix64 stream), its sorted view, and the KS distance between sorted
// samples — the primitives lifecycle::DriftMonitor is built on.
#include "vqoe/ts/reservoir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "vqoe/ts/ecdf.h"

namespace vqoe::ts {
namespace {

TEST(ReservoirTest, DefaultConstructedIsEmpty) {
  Reservoir r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_EQ(r.seen(), 0u);
  r.add(1.0);  // capacity 0: admits nothing, still counts the stream
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.seen(), 1u);
}

TEST(ReservoirTest, FirstCapacityValuesAdmittedVerbatim) {
  Reservoir r{4, 123};
  for (double v : {1.0, 2.0, 3.0, 4.0}) r.add(v);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.seen(), 4u);
  const auto sample = r.sample();
  const std::vector<double> got(sample.begin(), sample.end());
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(ReservoirTest, SizeNeverExceedsCapacity) {
  Reservoir r{16, 7};
  for (int i = 0; i < 1000; ++i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.size(), 16u);
  EXPECT_EQ(r.seen(), 1000u);
  // Every slot holds a value that actually streamed past.
  for (double v : r.sample()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1000.0);
  }
}

TEST(ReservoirTest, SameSeedSameStreamSameSample) {
  Reservoir a{32, 99};
  Reservoir b{32, 99};
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<double>(i) * 0.5);
    b.add(static_cast<double>(i) * 0.5);
  }
  const auto sa = a.sample();
  const auto sb = b.sample();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
}

TEST(ReservoirTest, DifferentSeedsDiverge) {
  Reservoir a{32, 1};
  Reservoir b{32, 2};
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
  }
  const auto sa = a.sample();
  const auto sb = b.sample();
  bool differ = false;
  for (std::size_t i = 0; i < sa.size() && !differ; ++i) {
    differ = sa[i] != sb[i];
  }
  EXPECT_TRUE(differ);
}

TEST(ReservoirTest, ResetForgetsAndReseeds) {
  Reservoir a{8, 42};
  for (int i = 0; i < 100; ++i) a.add(static_cast<double>(i));
  a.reset(42);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.seen(), 0u);
  Reservoir b{8, 42};
  for (int i = 0; i < 100; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
  }
  const auto sa = a.sample();
  const auto sb = b.sample();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
}

TEST(ReservoirTest, SamplesApproximatelyUniformly) {
  // 10k uniform values through a 1k reservoir: the kept sample's mean must
  // land near the stream mean (a fixed seed makes this exact-repeatable).
  Reservoir r{1000, 7};
  for (int i = 0; i < 10000; ++i) r.add(static_cast<double>(i));
  double mean = 0.0;
  for (double v : r.sample()) mean += v;
  mean /= static_cast<double>(r.size());
  EXPECT_NEAR(mean, 4999.5, 500.0);
}

TEST(ReservoirTest, EcdfSnapshotMatchesSample) {
  Reservoir r{64, 3};
  for (int i = 0; i < 64; ++i) r.add(static_cast<double>(i));
  const Ecdf e = r.ecdf();
  EXPECT_EQ(e.size(), 64u);
  EXPECT_DOUBLE_EQ(e(31.0), 0.5);
}

TEST(KsDistanceTest, IdenticalSamplesAreZero) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const Ecdf a{v};
  const Ecdf b{v};
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 0.0);
}

TEST(KsDistanceTest, EmptySideIsZero) {
  std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(ks_distance(Ecdf{}, Ecdf{v}), 0.0);
  EXPECT_DOUBLE_EQ(ks_distance(Ecdf{v}, Ecdf{}), 0.0);
}

TEST(KsDistanceTest, DisjointSupportsAreOne) {
  std::vector<double> lo{1.0, 2.0, 3.0};
  std::vector<double> hi{10.0, 11.0, 12.0};
  EXPECT_DOUBLE_EQ(ks_distance(Ecdf{lo}, Ecdf{hi}), 1.0);
}

TEST(KsDistanceTest, SymmetricAndBounded) {
  std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  std::vector<double> b{2.5, 3.5, 4.5};
  const double d1 = ks_distance(Ecdf{a}, Ecdf{b});
  const double d2 = ks_distance(Ecdf{b}, Ecdf{a});
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_GT(d1, 0.0);
  EXPECT_LE(d1, 1.0);
}

TEST(KsDistanceTest, KnownTwoSampleValue) {
  // F_a steps at 1,2 (n=2); F_b steps at 2,3 (n=2). Just after x=1:
  // F_a=0.5, F_b=0 -> D=0.5.
  std::vector<double> a{1.0, 2.0};
  std::vector<double> b{2.0, 3.0};
  EXPECT_DOUBLE_EQ(ks_distance(Ecdf{a}, Ecdf{b}), 0.5);
}

/// A deterministic stream drawn from a few distinct values, signed zeros
/// included, so the sample is full of ties.
double quantised(std::uint64_t i) {
  static constexpr double kValues[] = {-0.0, 0.0, 1.0, -2.5, 1.0, 3.0, 0.0};
  const std::uint64_t mixed = (i * 0x9e3779b97f4a7c15ull) >> 40;
  return kValues[mixed % std::size(kValues)] * static_cast<double>(1 + i % 3);
}

std::vector<std::uint64_t> bits_sorted(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ReservoirTest, SortedViewIsTheSortedSampleAfterEveryAdd) {
  for (const std::size_t capacity : {1u, 7u, 256u}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    Reservoir r{capacity, 0x5eed + capacity};
    for (std::uint64_t i = 0; i < 4000; ++i) {
      const std::vector<double> before(r.sample().begin(), r.sample().end());
      const bool admitted = r.add(quantised(i));
      const std::vector<double> after(r.sample().begin(), r.sample().end());
      // What DriftMonitor relies on to skip a walk: a value not admitted
      // leaves the sample as it was.
      if (!admitted) {
        ASSERT_EQ(bits_sorted(before), bits_sorted(after)) << "add " << i;
      }
      std::vector<double> expected = after;
      std::sort(expected.begin(), expected.end());
      const auto sorted = r.sorted();
      ASSERT_TRUE(std::equal(sorted.begin(), sorted.end(), expected.begin(),
                             expected.end()))
          << "after add " << i;
      // A permutation of the sample bit for bit: -0.0 and +0.0 compare
      // equal, so the comparison above cannot tell them apart.
      ASSERT_EQ(bits_sorted(sorted), bits_sorted(after)) << "after add " << i;
    }
  }
}

TEST(ReservoirTest, NaNIsIgnored) {
  Reservoir r{4, 11};
  EXPECT_TRUE(r.add(1.0));
  EXPECT_FALSE(r.add(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(r.seen(), 1u);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.sorted().front(), 1.0);
}

/// sup_x |F_a(x) - F_b(x)| by evaluating both ECDFs at every sample point
/// of either side: the textbook definition, no merge walk.
double ks_by_evaluation(const Ecdf& a, const Ecdf& b) {
  if (a.empty() || b.empty()) return 0.0;
  double d = 0.0;
  for (const Ecdf* side : {&a, &b}) {
    for (const double x : side->sorted_sample()) {
      d = std::max(d, std::abs(a(x) - b(x)));
    }
  }
  return d;
}

TEST(KsDistanceTest, SortedViewWalkMatchesEcdfFormAndEvaluation) {
  for (const std::size_t capacity : {1u, 7u, 256u}) {
    Reservoir a{capacity, 21};
    Reservoir b{capacity, 22};
    for (std::uint64_t i = 0; i < 1500; ++i) {
      a.add(quantised(i));
      b.add(quantised(i * 3 + 1) + (i % 2 == 0 ? 0.5 : 0.0));
      if (i % 37 != 0) continue;
      const double walked = ks_distance(a.sorted(), b.sorted());
      const Ecdf ea{a.sample()};
      const Ecdf eb{b.sample()};
      EXPECT_EQ(std::bit_cast<std::uint64_t>(walked),
                std::bit_cast<std::uint64_t>(ks_distance(ea, eb)))
          << "capacity " << capacity << " add " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(walked),
                std::bit_cast<std::uint64_t>(ks_by_evaluation(ea, eb)))
          << "capacity " << capacity << " add " << i;
    }
  }
}

TEST(KsDistanceTest, NaNInputTerminates) {
  // Meaningless, but it must come back: a NaN head once stopped the merge
  // walk from advancing either side.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> samples = {
      {nan, 1.0, 2.0}, {1.0, 2.0, 3.0}, {1.0, nan, 2.0}, {1.0, 2.0, nan},
      {nan}, {nan, nan}};
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      const double d = ks_distance(a, b);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
  }
}

}  // namespace
}  // namespace vqoe::ts
