// The single-threaded cost ledger of the traced run.
//
// A sequential core::OnlineMonitor pass over the workload's records gives
// the ledger total (core.monitor_ns_per_rec). A benchmark-owned
// ScoreObserver captures every span the monitor scores, with the feed
// position that scored it. The same pass with every session and window
// gated out, with each captured span's assessment replayed at its position,
// then splits the total into reconstruction and session state
// (core.bookkeeping_ns_per_rec, the pass's self time) and assessment.
// ledger.coverage checks that the two add back up to the total. Each
// layer's public function is also replayed on a sample of the captured
// spans and their features: feature builds, forest walks, CUSUM, drift and
// shadow scoring.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "feed.h"
#include "spans.h"
#include "vqoe/core/pipeline.h"

namespace livebench {

struct LedgerResult {
  std::map<std::string, double> metrics;  ///< per-layer metric values
  std::vector<std::string> table;         ///< human-readable ledger rows
  SpanLog spans{3};
};

[[nodiscard]] LedgerResult run_ledger(const WorkloadSpec& spec,
                                      const Feed& feed,
                                      const vqoe::core::QoePipeline& active,
                                      std::shared_ptr<const vqoe::core::QoePipeline> shadow,
                                      const std::vector<EncodedStream>& frames);

}  // namespace livebench
