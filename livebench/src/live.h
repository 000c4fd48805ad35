// One pass of the deployed live path: generator frames -> wire::Collector
// (epoll, pooled view decode) -> engine::MonitorEngine::ingest(view) ->
// session reports from harvest()/drain() and window verdicts from
// harvest_verdicts().
//
// Threads: the generator (the calling thread, which also harvests), the
// collector thread and the engine's shard workers — nothing else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "feed.h"
#include "schedule.h"
#include "spans.h"
#include "vqoe/engine/engine.h"
#include "vqoe/wire/transport.h"

namespace livebench {

inline constexpr std::size_t kShards = 2;

struct PassInputs {
  const WorkloadSpec* spec = nullptr;
  const Feed* feed = nullptr;
  const ModelDirs* models = nullptr;
  /// Pre-encoded connection streams (spec->connections > 1 only).
  const std::vector<EncodedStream>* streams = nullptr;
  bool traced = false;
  std::uint64_t pass_index = 0;
};

struct PassResult {
  double setup_s = 0.0;  ///< model load + engine + bind, to first accepted conn
  double wall_s = 0.0;   ///< first send -> drain() returned
  double cpu_s = 0.0;    ///< process CPU minus the generator thread's
  std::size_t threads = 0;  ///< threads alive while the feed ran
  std::uint64_t records_sent = 0;

  std::vector<vqoe::core::CompletedSession> sessions;
  std::vector<vqoe::window::WindowVerdict> verdicts;
  /// Harvest-return time (s since first send) of each session / verdict.
  std::vector<double> session_harvest_s;
  std::vector<double> verdict_harvest_s;
  Schedule schedule;
  /// Paced: send time minus scheduled time. Unthrottled: how long a send
  /// was held back (probe send() call / ack-window wait).
  std::vector<double> send_late_ms;
  std::uint64_t frames_sent = 0;
  std::uint64_t ack_stalls = 0;

  vqoe::engine::EngineStats engine;
  vqoe::wire::CollectorStats collector;
  std::size_t queue_capacity = 0;

  // Traced passes only.
  std::int64_t ingest_ns = 0;        ///< inside MonitorEngine::ingest(view)
  std::uint64_t sink_calls = 0;      ///< records the sink received
  double sink_cpu_sampled_s = 0.0;   ///< thread CPU inside sampled sink calls
  std::uint64_t sink_cpu_samples = 0;
  double cpu_clock_overhead_s = 0.0;  ///< per sample, subtracted
  double collector_cpu_s = 0.0;      ///< collector thread CPU over run()
  double collector_wall_s = 0.0;     ///< collector run() wall time
  std::int64_t harvest_ns = 0;       ///< inside harvest_verdicts()/harvest()
  std::uint64_t harvested = 0;       ///< items those calls returned
  double drain_ms = 0.0;
  SpanLog generator_spans{1};
  SpanLog collector_spans{2};
};

[[nodiscard]] PassResult run_pass(const PassInputs& in);

/// CPU seconds of the calling thread / of the whole process.
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double process_cpu_s();

}  // namespace livebench
