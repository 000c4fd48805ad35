// Per-shard lifecycle instrumentation: one core::ScoreObserver combining
// drift tracking and shadow scoring.
//
// The engine creates one ShardLifecycle per shard (when either feature is
// configured) and wires it into that shard's OnlineMonitor. Every scored
// session and window flows through here on the shard worker thread: the
// drift monitor folds the session's Table-1 means into its reservoirs, the
// shadow scorer re-assesses the span with the candidate model. The observer
// names its shadow to the monitor, which then builds the union of both
// models' feature cells, so the shadow never rebuilds features. A model
// swap resets both — the drift reference is recaptured against the new
// model's epoch and the divergence counters restart against the new active
// baseline (comparing a shadow against a model it already replaced is
// meaningless).
//
// Thread model: all mutation happens on the shard worker; the engine
// copies the scalar outputs (distance, counters) into the shard's
// published ShardStats after every item, under the lock stats() reads it
// with, so stats() readers never touch this object.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "vqoe/core/online.h"
#include "vqoe/lifecycle/drift.h"
#include "vqoe/lifecycle/shadow.h"

namespace vqoe::lifecycle {

struct ShardLifecycleConfig {
  DriftConfig drift;
  /// Candidate model to score in shadow; null disables shadow scoring.
  std::shared_ptr<const core::QoePipeline> shadow;
};

class ShardLifecycle final : public core::ScoreObserver {
 public:
  /// @param shard_salt distinguishes the shard's drift reservoir streams.
  ShardLifecycle(const ShardLifecycleConfig& config, std::uint64_t shard_salt)
      : drift_(config.drift, shard_salt), shadow_(config.shadow) {}

  /// The shadow model, so the monitor builds its feature cells too and the
  /// shadow scores every span from the capture alone.
  [[nodiscard]] const core::QoePipeline* shadow_pipeline() const override {
    return shadow_.model().get();
  }

  void on_session(std::string_view subscriber,
                  std::span<const core::ChunkObs> chunks,
                  const core::QoePipeline::SessionFeatures& features,
                  const core::QoeReport& report) override {
    (void)subscriber;
    drift_.observe(chunks);
    shadow_.score_session(chunks, features, report);
  }

  void on_window(std::string_view subscriber,
                 std::span<const core::ChunkObs> chunks,
                 const core::QoePipeline::SessionFeatures& features,
                 const window::WindowVerdict& verdict) override {
    (void)subscriber;
    // Windows feed shadow comparison only: drift tracks whole-session
    // distributions (the granularity the reference was captured at).
    shadow_.score_window(chunks, features, verdict);
  }

  void on_model_swap(std::uint64_t generation) override {
    (void)generation;
    drift_.reset();
    shadow_.reset_stats();
  }

  [[nodiscard]] const DriftMonitor& drift() const { return drift_; }
  [[nodiscard]] const ShadowScorer& shadow() const { return shadow_; }

 private:
  DriftMonitor drift_;
  ShadowScorer shadow_;
};

}  // namespace vqoe::lifecycle
