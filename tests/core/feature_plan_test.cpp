// FeaturePlan against an independent reference: every built cell must be
// bit-identical to the one-metric-at-a-time builder (each metric's series
// reduced by ts::compute_all over its own sorted copy), and every cell the
// plan does not name must be left quiet NaN.
#include <gtest/gtest.h>

#include <array>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "vqoe/core/features.h"
#include "vqoe/core/pipeline.h"
#include "vqoe/ts/cusum.h"
#include "vqoe/ts/summary.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::core {
namespace {

// ---- Reference: every series extracted, every metric reduced on its own.

std::vector<double> running_mean(std::span<const double> v) {
  std::vector<double> out;
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc += v[i];
    out.push_back(acc / static_cast<double>(i + 1));
  }
  return out;
}

struct Reference {
  std::vector<double> stall;
  std::vector<double> repr;
};

Reference reference_build(std::span<const ChunkObs> chunks) {
  constexpr double kB = 1000.0;
  std::vector<double> rtt_min, rtt_avg, rtt_max, bdp, bif_avg, bif_max, loss,
      retrans, chunk_size, chunk_time, goodput;
  const double t0 = chunks.empty() ? 0.0 : chunks.front().request_time_s;
  for (const ChunkObs& c : chunks) {
    rtt_min.push_back(c.transport.rtt_min_ms);
    rtt_avg.push_back(c.transport.rtt_avg_ms);
    rtt_max.push_back(c.transport.rtt_max_ms);
    bdp.push_back(c.transport.bdp_bytes / kB);
    bif_avg.push_back(c.transport.bif_avg_bytes / kB);
    bif_max.push_back(c.transport.bif_max_bytes / kB);
    loss.push_back(c.transport.loss_pct);
    retrans.push_back(c.transport.retrans_pct);
    chunk_size.push_back(c.size_bytes / kB);
    chunk_time.push_back(c.arrival_time_s - t0);
    goodput.push_back(c.goodput_kbps());
  }
  const std::vector<std::vector<double>> stall_metrics = {
      rtt_min, rtt_avg, rtt_max, bdp, bif_avg,
      bif_max, loss,    retrans, chunk_size, chunk_time};
  const std::vector<std::vector<double>> repr_metrics = {
      rtt_min,  rtt_avg,  rtt_max,
      bdp,      bif_avg,  bif_max,
      loss,     retrans,  chunk_size,
      ts::deltas(chunk_time),
      running_mean(chunk_size),
      ts::deltas(chunk_size),
      running_mean(goodput),
      ts::cusum_chart(goodput)};
  Reference ref;
  for (const auto& m : stall_metrics) {
    const auto v = ts::compute_all(ts::stall_statistic_set(), m);
    ref.stall.insert(ref.stall.end(), v.begin(), v.end());
  }
  for (const auto& m : repr_metrics) {
    const auto v = ts::compute_all(ts::representation_statistic_set(), m);
    ref.repr.insert(ref.repr.end(), v.begin(), v.end());
  }
  return ref;
}

/// Every cell of both spaces.
const FeaturePlan& full_plan() {
  static const FeaturePlan plan{StallMask{}.set(), ReprMask{}.set()};
  return plan;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Asserts `built` holds exactly the cells of `mask`, each bit-identical
/// to the reference, and quiet NaN everywhere else.
template <std::size_t Width>
void expect_planned_cells(const std::vector<double>& built,
                          const std::bitset<Width>& mask,
                          const std::vector<double>& reference,
                          const char* space) {
  ASSERT_EQ(reference.size(), Width);
  if (mask.none()) {
    EXPECT_TRUE(built.empty()) << space;
    return;
  }
  ASSERT_EQ(built.size(), Width) << space;
  for (std::size_t c = 0; c < Width; ++c) {
    if (mask.test(c)) {
      EXPECT_TRUE(same_bits(built[c], reference[c]))
          << space << " cell " << c << ": " << built[c] << " vs "
          << reference[c];
    } else {
      EXPECT_TRUE(std::isnan(built[c])) << space << " cell " << c;
    }
  }
}

void expect_plan_matches(const FeaturePlan& plan,
                         std::span<const ChunkObs> chunks,
                         const Reference& ref) {
  std::vector<double> series;
  SessionFeatures out;
  plan.build(chunks, series, out);
  EXPECT_EQ(out.stall_mask, plan.stall());
  EXPECT_EQ(out.repr_mask, plan.repr());
  expect_planned_cells(out.stall, plan.stall(), ref.stall, "stall");
  expect_planned_cells(out.repr, plan.repr(), ref.repr, "repr");
}

// ---- Spans.

/// Seeded corpus spans: whole sessions, short prefixes and a middle slice.
std::vector<std::vector<ChunkObs>> corpus_spans() {
  auto options = workload::has_corpus_options(160, 404);
  options.keep_session_results = false;
  const auto sessions =
      sessions_from_corpus(workload::generate_corpus(options));
  std::vector<std::vector<ChunkObs>> spans;
  for (const SessionRecord& s : sessions) {
    const auto& c = s.chunks;
    spans.push_back(c);
    for (const std::size_t prefix : {0u, 1u, 2u, 3u, 7u}) {
      if (prefix <= c.size()) spans.emplace_back(c.begin(), c.begin() + prefix);
    }
    if (c.size() >= 4) {
      spans.emplace_back(c.begin() + c.size() / 4, c.end() - c.size() / 4);
    }
  }
  return spans;
}

ChunkObs chunk(double t, double dur, double size, double loss, double rtt) {
  ChunkObs c;
  c.request_time_s = t;
  c.arrival_time_s = t + dur;
  c.size_bytes = size;
  c.transport.rtt_min_ms = rtt;
  c.transport.rtt_avg_ms = rtt;
  c.transport.rtt_max_ms = rtt + 10.0;
  c.transport.bdp_bytes = 20'000;
  c.transport.bif_avg_bytes = loss * 1000.0;
  c.transport.bif_max_bytes = 45'000;
  c.transport.loss_pct = loss;
  c.transport.retrans_pct = -loss;
  return c;
}

/// Hand-built spans: ties, zeros of both signs, a zero-duration chunk, and
/// lengths on both sides of std::sort's insertion-sort cutoff.
std::vector<std::vector<ChunkObs>> edge_spans() {
  std::vector<std::vector<ChunkObs>> spans;
  for (const std::size_t n : {1u, 2u, 5u, 16u, 17u, 40u, 97u}) {
    std::vector<ChunkObs> s;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i / 2) * 4.0;  // tied request times
      const double zero = i % 3 == 0 ? -0.0 : 0.0;
      const double loss = i % 4 == 0 ? zero : 1.5;       // ±0 ties with 1.5s
      const double dur = i == n / 2 ? 0.0 : 1.0;         // one zero duration
      const double size = i % 5 == 0 ? 0.0 : 400'000.0;  // tied sizes, zeros
      s.push_back(chunk(t, dur, size, loss, i % 2 == 0 ? 40.0 : zero));
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

class FeaturePlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spans_ = std::make_unique<std::vector<std::vector<ChunkObs>>>(corpus_spans());
    refs_ = std::make_unique<std::vector<Reference>>();
    for (const auto& s : *spans_) refs_->push_back(reference_build(s));
  }
  static void TearDownTestSuite() {
    spans_.reset();
    refs_.reset();
  }

  static std::unique_ptr<std::vector<std::vector<ChunkObs>>> spans_;
  static std::unique_ptr<std::vector<Reference>> refs_;
};

std::unique_ptr<std::vector<std::vector<ChunkObs>>> FeaturePlanTest::spans_;
std::unique_ptr<std::vector<Reference>> FeaturePlanTest::refs_;

TEST_F(FeaturePlanTest, FullPlanMatchesReferenceOnCorpusSpans) {
  ASSERT_GT(spans_->size(), 1000u);
  const FeaturePlan& full = full_plan();
  EXPECT_TRUE(full.stall().all());
  EXPECT_TRUE(full.repr().all());
  for (std::size_t i = 0; i < spans_->size(); ++i) {
    SCOPED_TRACE(i);
    expect_plan_matches(full, (*spans_)[i], (*refs_)[i]);
    if (HasFailure()) return;
  }
}

TEST_F(FeaturePlanTest, PublicBuildersMatchReference) {
  for (std::size_t i = 0; i < spans_->size(); i += 7) {
    const auto stall = stall_features((*spans_)[i]);
    const auto repr = representation_features((*spans_)[i]);
    ASSERT_EQ(stall.size(), kStallWidth);
    ASSERT_EQ(repr.size(), kReprWidth);
    EXPECT_EQ(std::memcmp(stall.data(), (*refs_)[i].stall.data(),
                          kStallWidth * sizeof(double)),
              0)
        << i;
    EXPECT_EQ(std::memcmp(repr.data(), (*refs_)[i].repr.data(),
                          kReprWidth * sizeof(double)),
              0)
        << i;
  }
}

TEST(FeaturePlan, FullPlanMatchesReferenceOnEdgeSpans) {
  for (const auto& s : edge_spans()) {
    SCOPED_TRACE(s.size());
    expect_plan_matches(full_plan(), s, reference_build(s));
  }
}

TEST_F(FeaturePlanTest, EverySingleCellPlanMatchesReference) {
  // One cell at a time covers each derived metric alone (its base series
  // filled only as a dependency) and every plan reading only a min or max.
  auto spans = edge_spans();
  for (std::size_t i = 0; i < spans_->size(); i += 97) {
    spans.push_back((*spans_)[i]);
  }
  for (const auto& s : spans) {
    const Reference ref = reference_build(s);
    for (std::size_t c = 0; c < kStallWidth; ++c) {
      StallMask m;
      m.set(c);
      expect_plan_matches(FeaturePlan{m, {}}, s, ref);
    }
    for (std::size_t c = 0; c < kReprWidth; ++c) {
      ReprMask m;
      m.set(c);
      expect_plan_matches(FeaturePlan{{}, m}, s, ref);
    }
    if (HasFailure()) return;
  }
}

TEST_F(FeaturePlanTest, RandomSubPlansFillExactlyTheirMask) {
  std::mt19937_64 rng{0x706c616eull};
  auto spans = edge_spans();
  std::vector<Reference> refs;
  for (const auto& s : spans) refs.push_back(reference_build(s));
  for (std::size_t i = 0; i < spans_->size(); i += 5) {
    spans.push_back((*spans_)[i]);
    refs.push_back((*refs_)[i]);
  }
  std::vector<double> series;  // one scratch across plans and spans
  for (int trial = 0; trial < 200; ++trial) {
    const double density = std::array{0.01, 0.05, 0.2, 0.6}[trial % 4];
    std::bernoulli_distribution pick{density};
    StallMask stall;
    ReprMask repr;
    for (std::size_t c = 0; c < kStallWidth; ++c) stall[c] = pick(rng);
    for (std::size_t c = 0; c < kReprWidth; ++c) repr[c] = pick(rng);
    if (trial % 10 == 0) stall.reset();  // one space only
    if (trial % 10 == 5) repr.reset();
    const FeaturePlan plan{stall, repr};
    const std::size_t k = static_cast<std::size_t>(rng() % spans.size());
    SessionFeatures out;
    plan.build(spans[k], series, out);
    SCOPED_TRACE(trial);
    EXPECT_EQ(out.stall_mask, stall);
    EXPECT_EQ(out.repr_mask, repr);
    expect_planned_cells(out.stall, stall, refs[k].stall, "stall");
    expect_planned_cells(out.repr, repr, refs[k].repr, "repr");
    if (HasFailure()) return;
  }
}

TEST(FeaturePlan, EmptyPlanBuildsNothing) {
  const auto s = edge_spans()[3];
  std::vector<double> series;
  SessionFeatures out;
  out.stall.assign(kStallWidth, 1.0);
  out.repr.assign(3, 1.0);
  FeaturePlan{}.build(s, series, out);
  EXPECT_TRUE(out.stall.empty());
  EXPECT_TRUE(out.repr.empty());
  EXPECT_TRUE(out.stall_mask.none());
  EXPECT_TRUE(out.repr_mask.none());
}

TEST(FeaturePlan, UnionCoversBothPlans) {
  StallMask sa;
  sa.set(3).set(40);
  ReprMask ra;
  ra.set(150);  // chunk_dt:min
  StallMask sb;
  sb.set(40).set(69);
  ReprMask rb;
  rb.set(209).set(0);
  const FeaturePlan a{sa, ra};
  const FeaturePlan b{sb, rb};
  FeaturePlan u = a;
  u |= b;
  EXPECT_TRUE(u.covers(a));
  EXPECT_TRUE(u.covers(b));
  EXPECT_FALSE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  EXPECT_EQ(u.stall(), sa | sb);
  EXPECT_EQ(u.repr(), ra | rb);
  EXPECT_TRUE(full_plan().covers(u));
  EXPECT_TRUE(u.covers(FeaturePlan{}));
  const auto s = edge_spans()[5];
  expect_plan_matches(u, s, reference_build(s));
}

TEST(FeaturePlan, PipelinePlanIsItsDetectorsSelection) {
  auto options = workload::has_corpus_options(150, 8);
  options.keep_session_results = false;
  const QoePipeline p =
      QoePipeline::train(sessions_from_corpus(workload::generate_corpus(options)));
  const FeaturePlan& plan = p.feature_plan();
  EXPECT_EQ(plan.stall().count(), p.stall_detector().selected_features().size());
  EXPECT_EQ(plan.repr().count(),
            p.representation_detector().selected_features().size());
  for (const std::size_t c : p.stall_detector().selected_columns()) {
    EXPECT_TRUE(plan.stall().test(c));
  }
  for (const std::size_t c : p.representation_detector().selected_columns()) {
    EXPECT_TRUE(plan.repr().test(c));
  }
  // from_parts (the load path) compiles the same plan.
  const QoePipeline loaded = QoePipeline::from_parts(
      p.stall_detector(), p.representation_detector(), p.switch_detector());
  EXPECT_TRUE(loaded.feature_plan().covers(plan));
  EXPECT_TRUE(plan.covers(loaded.feature_plan()));
}

}  // namespace
}  // namespace vqoe::core
