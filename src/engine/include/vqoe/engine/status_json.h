// Machine-readable engine status.
//
// vqoe_collector --status-json prints one of these per status interval: a
// single-line JSON object over the caller's stream counters, every
// EngineStats total in for_each_counter order (engine.h), the shard count
// and the pooled shadow divergence — meant for log scrapers and dashboards
// (one line = one sample; no quoting or nesting surprises). The counter
// table is the schema: a counter added there appears here with no edit.
// Doubles are printed with %.17g, so a parser reading them back recovers
// the exact values — the contract the parse-back test in
// tests/lifecycle/status_json_test.cpp holds this format to.
#pragma once

#include <cstdint>
#include <string>

#include "vqoe/engine/engine.h"

namespace vqoe::engine {

/// Stream-side counters the engine cannot know (they live in the
/// collector's merge loop).
struct StatusExtras {
  std::uint64_t records_merged = 0;  ///< records seen by the ingest loop
  double elapsed_s = 0.0;            ///< wall-clock time since start
};

/// One-line JSON over the engine totals + extras. No trailing newline.
[[nodiscard]] std::string status_json(const EngineStats& stats,
                                      const StatusExtras& extras = {});

}  // namespace vqoe::engine
