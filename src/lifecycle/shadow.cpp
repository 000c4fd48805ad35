#include "vqoe/lifecycle/shadow.h"

namespace vqoe::lifecycle {

void ShadowScorer::tally(const core::QoeReport& active,
                         const core::QoeReport& shadow) {
  bool diverged = false;
  if (shadow.stall != active.stall) {
    ++stats_.stall_disagreements;
    diverged = true;
  }
  if (shadow.representation != active.representation) {
    ++stats_.repr_disagreements;
    diverged = true;
  }
  if (shadow.quality_switches != active.quality_switches) {
    ++stats_.switch_disagreements;
    diverged = true;
  }
  if (diverged) ++stats_.disagreements;
}

void ShadowScorer::score_session(std::span<const core::ChunkObs> chunks,
                                 const core::QoePipeline::SessionFeatures& features,
                                 const core::QoeReport& active) {
  if (!enabled()) return;
  ++stats_.sessions;
  tally(active, shadow_->assess_scored(chunks, scratch_, &features).report);
}

void ShadowScorer::score_window(std::span<const core::ChunkObs> chunks,
                                const core::QoePipeline::SessionFeatures& features,
                                const window::WindowVerdict& active) {
  if (!enabled()) return;
  ++stats_.windows;
  const core::QoeReport shadow =
      shadow_->assess_scored(chunks, scratch_, &features).report;
  core::QoeReport active_report;
  active_report.stall = static_cast<core::StallLabel>(active.stall);
  active_report.representation =
      static_cast<core::ReprLabel>(active.representation);
  active_report.quality_switches = active.quality_switches;
  tally(active_report, shadow);
}

}  // namespace vqoe::lifecycle
