// Operator monitoring: the deployment the paper targets (Section 8).
//
// A mobile operator sees only encrypted weblogs from many subscribers. This
// example:
//   1. trains the framework offline on a labelled (cleartext-era) corpus
//      and persists the models to disk (train once, deploy many),
//   2. reloads the models on the "monitoring host",
//   3. streams a day of encrypted traffic record-by-record through the
//      sharded MonitorEngine: records are hash-partitioned by subscriber
//      onto four OnlineMonitor shards, session boundaries are recovered
//      incrementally (domain filter + page markers + idle gaps — no URIs,
//      no session IDs) in parallel, and completed QoE reports are
//      harvested while the stream is still flowing,
//   4. turns on 10-second windowing, so every shard also emits live
//      mid-session WindowVerdicts (harvested with harvest_verdicts()),
//   5. prints a per-subscriber QoE dashboard plus the engine's shard
//      statistics.
//
// Build & run:  ./build/examples/operator_monitor
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "vqoe/core/model_io.h"
#include "vqoe/core/pipeline.h"
#include "vqoe/engine/engine.h"
#include "vqoe/trace/weblog.h"
#include "vqoe/workload/corpus.h"

int main() {
  using namespace vqoe;

  // --- offline: train on the labelled corpus, persist to disk -------------
  std::printf("training on labelled corpus...\n");
  auto train_options = workload::cleartext_corpus_options(2500, 11);
  train_options.keep_session_results = false;
  const auto training =
      core::sessions_from_corpus(workload::generate_corpus(train_options));
  const auto model_dir =
      std::filesystem::temp_directory_path() / "vqoe_operator_models";
  core::save_pipeline(core::QoePipeline::train(training), model_dir);
  std::printf("  models saved to %s\n", model_dir.c_str());

  // --- monitoring host: load the models ------------------------------------
  const auto pipeline =
      std::make_shared<const core::QoePipeline>(core::load_pipeline(model_dir));

  // --- online: a day of encrypted traffic ---------------------------------
  // 40 subscribers, mixed conditions, everything TLS — the operator's feed.
  std::printf("capturing encrypted traffic...\n");
  auto live_options = workload::cleartext_corpus_options(300, 77);
  live_options.adaptive_fraction = 1.0;  // modern clients: all adaptive
  live_options.subscribers = 40;
  live_options.keep_session_results = false;
  auto live = workload::generate_corpus(live_options);
  const auto encrypted = trace::encrypt_view(std::move(live.weblogs));
  std::printf("  %zu encrypted records from %zu subscribers\n",
              encrypted.size(), live_options.subscribers);

  // --- stream records through the online monitor --------------------------
  struct SubscriberStats {
    std::size_t sessions = 0;
    std::size_t stalled = 0;
    std::size_t severe = 0;
    std::size_t low_def = 0;
    std::size_t switching = 0;
  };
  std::map<std::string, SubscriberStats> per_subscriber;

  engine::EngineConfig engine_config;
  engine_config.shards = 4;
  engine_config.monitor.min_chunks = 3;
  // Mid-session visibility: a verdict every 10 stream-seconds per session
  // (tumbling windows), scored on windows with at least 2 chunks.
  engine_config.monitor.window.length_s = 10.0;
  engine_config.monitor.window.min_chunks = 2;
  engine::MonitorEngine monitor{pipeline, engine_config};

  auto account = [&](const core::CompletedSession& s) {
    SubscriberStats& stats = per_subscriber[s.subscriber_id];
    stats.sessions++;
    if (s.report.stall != core::StallLabel::no_stalls) stats.stalled++;
    if (s.report.stall == core::StallLabel::severe_stalls) stats.severe++;
    if (s.report.representation == core::ReprLabel::ld) stats.low_def++;
    if (s.report.quality_switches) stats.switching++;
  };

  // Harvest completed sessions while the stream is still flowing — the
  // "report issues in real time" shape of Section 8.
  std::size_t fed = 0;
  std::size_t harvested_live = 0;
  std::size_t verdicts_live = 0;
  std::size_t verdicts_stalled = 0;
  auto account_verdicts = [&] {
    for (const auto& v : monitor.harvest_verdicts()) {
      ++verdicts_live;
      if (v.stall != static_cast<std::uint8_t>(core::StallLabel::no_stalls)) {
        ++verdicts_stalled;
      }
    }
  };
  for (const trace::WeblogRecord& record : encrypted) {
    monitor.ingest(record);
    if (++fed % 4096 == 0) {
      for (const auto& done : monitor.harvest()) {
        account(done);
        ++harvested_live;
      }
      account_verdicts();
    }
  }
  for (const auto& done : monitor.drain()) account(done);
  account_verdicts();  // the tail flushed by drain()

  const engine::EngineStats engine_stats = monitor.stats();
  std::printf("  engine reported %llu sessions over %zu shards, %llu "
              "harvested mid-stream (ground truth: %zu launched)\n",
              static_cast<unsigned long long>(engine_stats.sessions_reported),
              monitor.shard_count(),
              static_cast<unsigned long long>(harvested_live),
              live.truths.size());
  std::printf("  live verdict stream: %llu windows closed, %llu verdicts "
              "(%zu harvested mid-stream, %zu flagged stalling)\n",
              static_cast<unsigned long long>(engine_stats.windows_emitted),
              static_cast<unsigned long long>(engine_stats.verdicts_emitted),
              verdicts_live, verdicts_stalled);
  std::printf("  session-state arenas: %.1f KiB high water across shards, "
              "%llu sessions evicted\n",
              static_cast<double>(engine_stats.arena_high_water) / 1024.0,
              static_cast<unsigned long long>(engine_stats.sessions_evicted));
  for (std::size_t i = 0; i < engine_stats.shards.size(); ++i) {
    const auto& s = engine_stats.shards[i];
    std::printf("    shard %zu: %llu records, %llu sessions, %llu windows, "
                "%llu verdicts, %.1f us/record in monitor, queue peak %zu, "
                "arena high water %.1f KiB\n",
                i, static_cast<unsigned long long>(s.records_out),
                static_cast<unsigned long long>(s.sessions_reported),
                static_cast<unsigned long long>(s.windows_emitted),
                static_cast<unsigned long long>(s.verdicts_emitted),
                s.records_out ? 1e-3 * static_cast<double>(s.ingest_ns) /
                                    static_cast<double>(s.records_out)
                              : 0.0,
                s.queue_peak,
                static_cast<double>(s.arena_high_water) / 1024.0);
  }
  std::printf("\n");

  std::printf("%-10s %-9s %-9s %-9s %-6s %-10s %s\n", "subscriber", "sessions",
              "stalled", "severe", "LD", "switching", "flag");
  std::size_t total = 0, total_stalled = 0;
  for (const auto& [subscriber, stats] : per_subscriber) {
    total += stats.sessions;
    total_stalled += stats.stalled;
    const bool flag =
        stats.sessions >= 3 && stats.stalled * 2 >= stats.sessions;
    std::printf("%-10s %-9zu %-9zu %-9zu %-6zu %-10zu %s\n", subscriber.c_str(),
                stats.sessions, stats.stalled, stats.severe, stats.low_def,
                stats.switching, flag ? "<< degraded QoE" : "");
  }
  std::printf("\nnetwork-wide: %zu sessions, %.1f%% with stalling detected\n",
              total,
              total ? 100.0 * static_cast<double>(total_stalled) /
                          static_cast<double>(total)
                    : 0.0);
  return 0;
}
