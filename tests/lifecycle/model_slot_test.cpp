// ModelSlot / manifest contract: manifest round-trips through streams and
// model directories, compatible candidates publish atomically with a
// generation bump, and every incompatibility class is refused with a
// diagnostic that names the mismatch.
#include "vqoe/lifecycle/model_slot.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "vqoe/core/labels.h"
#include "vqoe/core/model_io.h"
#include "vqoe/core/pipeline.h"
#include "vqoe/workload/corpus.h"

namespace vqoe::lifecycle {
namespace {

using core::ModelManifest;
using core::QoePipeline;

std::shared_ptr<const QoePipeline> train_model(std::uint64_t seed) {
  auto options = workload::has_corpus_options(250, seed);
  options.keep_session_results = false;
  return std::make_shared<const QoePipeline>(QoePipeline::train(
      core::sessions_from_corpus(workload::generate_corpus(options))));
}

class ModelSlotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_a_ = train_model(31);
    model_b_ = train_model(77);
  }
  static void TearDownTestSuite() {
    model_a_.reset();
    model_b_.reset();
  }

  static std::shared_ptr<const QoePipeline> model_a_;
  static std::shared_ptr<const QoePipeline> model_b_;
};

std::shared_ptr<const QoePipeline> ModelSlotTest::model_a_;
std::shared_ptr<const QoePipeline> ModelSlotTest::model_b_;

TEST_F(ModelSlotTest, ManifestRoundTripsThroughStream) {
  ModelManifest m = core::manifest_for(*model_a_);
  m.training_params = "source=synthetic seed=31 sessions=250";
  m.git_sha = "abc123def456";
  m.created_utc = "2026-08-10T00:00:00Z";
  std::stringstream ss;
  core::save(m, ss);
  const ModelManifest back = core::load_manifest(ss);
  EXPECT_EQ(back.schema, m.schema);
  EXPECT_EQ(back.stall_features, m.stall_features);
  EXPECT_EQ(back.stall_classes, m.stall_classes);
  EXPECT_EQ(back.repr_features, m.repr_features);
  EXPECT_EQ(back.repr_classes, m.repr_classes);
  EXPECT_EQ(back.class_labels, m.class_labels);
  EXPECT_EQ(back.training_params, m.training_params);
  EXPECT_EQ(back.git_sha, m.git_sha);
  EXPECT_EQ(back.created_utc, m.created_utc);
}

TEST_F(ModelSlotTest, EmptyProvenanceFieldsRoundTrip) {
  const ModelManifest m = core::manifest_for(*model_a_);
  ASSERT_TRUE(m.git_sha.empty());
  std::stringstream ss;
  core::save(m, ss);
  const ModelManifest back = core::load_manifest(ss);
  EXPECT_TRUE(back.git_sha.empty());
  EXPECT_TRUE(back.created_utc.empty());
  EXPECT_TRUE(back.training_params.empty());
}

TEST_F(ModelSlotTest, ManifestFromPipelineMatchesLabels) {
  const ModelManifest m = core::manifest_for(*model_a_);
  EXPECT_EQ(m.schema, core::kPipelineSchema);
  EXPECT_EQ(m.stall_features,
            model_a_->stall_detector().selected_features().size());
  EXPECT_EQ(m.class_labels, core::stall_class_names());
}

TEST_F(ModelSlotTest, ManifestForUntrainedThrows) {
  EXPECT_THROW((void)core::manifest_for(QoePipeline{}), std::logic_error);
}

TEST_F(ModelSlotTest, SavePipelineWritesLoadableManifest) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "vqoe_model_slot_test_models";
  std::filesystem::remove_all(dir);
  ModelManifest m = core::manifest_for(*model_a_);
  m.git_sha = "feedc0ffee12";
  core::save_pipeline(*model_a_, dir, m);
  const auto loaded = core::load_manifest(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->git_sha, "feedc0ffee12");
  EXPECT_EQ(loaded->stall_features, m.stall_features);
  // And the models themselves still load.
  const QoePipeline round = core::load_pipeline(dir);
  EXPECT_TRUE(round.stall_detector().trained());
  std::filesystem::remove_all(dir);
}

TEST_F(ModelSlotTest, MissingManifestIsNullopt) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "vqoe_model_slot_test_nomanifest";
  std::filesystem::remove_all(dir);
  core::save_pipeline(*model_a_, dir);  // the pre-manifest format
  EXPECT_FALSE(core::load_manifest(dir).has_value());
  std::filesystem::remove_all(dir);
}

TEST_F(ModelSlotTest, CompatiblePublishBumpsGeneration) {
  ModelSlot slot{model_a_, core::manifest_for(*model_a_)};
  EXPECT_EQ(slot.generation(), 0u);
  EXPECT_EQ(slot.active().get(), model_a_.get());
  slot.publish(model_b_, core::manifest_for(*model_b_));
  EXPECT_EQ(slot.generation(), 1u);
  EXPECT_EQ(slot.active().get(), model_b_.get());
  ASSERT_TRUE(slot.manifest().has_value());
}

TEST_F(ModelSlotTest, NullOrUntrainedInitialModelRefused) {
  EXPECT_THROW(ModelSlot{nullptr}, SwapError);
  EXPECT_THROW(ModelSlot{std::make_shared<const QoePipeline>()}, SwapError);
}

TEST_F(ModelSlotTest, UntrainedCandidateRefusedWithDiagnostic) {
  ModelSlot slot{model_a_};
  try {
    slot.publish(std::make_shared<const QoePipeline>());
    FAIL() << "expected SwapError";
  } catch (const SwapError& e) {
    EXPECT_NE(std::string{e.what()}.find("no trained stall detector"),
              std::string::npos)
        << e.what();
  }
  // Refusal leaves the published model untouched.
  EXPECT_EQ(slot.active().get(), model_a_.get());
  EXPECT_EQ(slot.generation(), 0u);
}

TEST_F(ModelSlotTest, DroppedRepresentationDetectorRefused) {
  ASSERT_TRUE(model_a_->representation_detector().trained());
  // Rebuild the candidate without its representation model — the "mixed
  // parts directory" failure shape.
  auto stripped = std::make_shared<const QoePipeline>(QoePipeline::from_parts(
      core::StallDetector{model_a_->stall_detector()},
      core::RepresentationDetector{}, model_a_->switch_detector()));
  ModelSlot slot{model_a_};
  try {
    slot.publish(stripped);
    FAIL() << "expected SwapError";
  } catch (const SwapError& e) {
    EXPECT_NE(
        std::string{e.what()}.find("drops the trained representation detector"),
        std::string::npos)
        << e.what();
  }
}

TEST_F(ModelSlotTest, SchemaMismatchRefusedByName) {
  ModelSlot slot{model_a_, core::manifest_for(*model_a_)};
  ModelManifest wrong = core::manifest_for(*model_b_);
  wrong.schema = "vqoe-qoe-pipeline/stall99-other";
  try {
    slot.publish(model_b_, wrong);
    FAIL() << "expected SwapError";
  } catch (const SwapError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("feature schema differs"), std::string::npos) << what;
    EXPECT_NE(what.find("stall99-other"), std::string::npos) << what;
  }
  EXPECT_EQ(slot.generation(), 0u);
}

TEST_F(ModelSlotTest, LyingManifestRefused) {
  // Each count the manifest claims must match the loaded model, for the
  // representation detector as much as for the stall detector.
  struct Lie {
    const char* field;
    void (*apply)(ModelManifest&);
  };
  const Lie lies[] = {
      {"stall_features", [](ModelManifest& m) { m.stall_features += 5; }},
      {"stall_classes", [](ModelManifest& m) { m.stall_classes += 1; }},
      {"repr_features", [](ModelManifest& m) { m.repr_features += 5; }},
      {"repr_classes", [](ModelManifest& m) { m.repr_classes += 1; }},
  };
  for (const Lie& lie : lies) {
    SCOPED_TRACE(lie.field);
    ModelSlot slot{model_a_, core::manifest_for(*model_a_)};
    ModelManifest lying = core::manifest_for(*model_b_);
    lie.apply(lying);
    try {
      slot.publish(model_b_, lying);
      ADD_FAILURE() << "expected SwapError";
    } catch (const SwapError& e) {
      EXPECT_NE(std::string{e.what()}.find("manifest claims"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(slot.generation(), 0u);
  }
}

TEST_F(ModelSlotTest, ManifestlessSidesSkipManifestChecks) {
  // Structural checks still run; schema checks are skipped when either
  // side predates manifests.
  EXPECT_TRUE(
      swap_incompatibility(*model_a_, std::nullopt, *model_b_, std::nullopt)
          .empty());
  ModelSlot slot{model_a_};  // no manifest
  slot.publish(model_b_);    // no manifest: allowed
  EXPECT_EQ(slot.generation(), 1u);
}

TEST_F(ModelSlotTest, CorruptManifestThrowsTypedError) {
  std::stringstream ss{"vqoe-manifest v9\n"};
  EXPECT_THROW((void)core::load_manifest(ss), std::runtime_error);
  std::stringstream truncated{"vqoe-manifest v1\nschema x\nstall_features 5\n"};
  EXPECT_THROW((void)core::load_manifest(truncated), std::runtime_error);
  std::stringstream bomb{
      "vqoe-manifest v1\nschema x\nstall_features 1\nstall_classes 3\n"
      "repr_features 0\nrepr_classes 0\nclass_labels 99999999\n"};
  EXPECT_THROW((void)core::load_manifest(bomb), std::runtime_error);
}

}  // namespace
}  // namespace vqoe::lifecycle
