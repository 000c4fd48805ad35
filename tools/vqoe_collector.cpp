// vqoe_collector — networked ingest into the sharded monitoring engine.
//
// Accepts framed record batches from N vqoe_probe clients, k-way merges
// the per-probe streams back into one time-sorted feed, and drives
// engine::MonitorEngine with it — the central half of the probe/collector
// deployment split. Optionally tees the merged feed to a spool directory
// so the capture can be replayed (crash recovery, backtesting).
//
//   vqoe_collector --probes=4 --port=9977 --model-dir=models/
//   vqoe_collector --probes=1 --train=2000 --spool=/var/tmp/capture
//   vqoe_collector --probes=1 --train=2000 --window=10 --hop=5
//
// With --window=SECONDS the engine also scores *mid-session*: every time a
// window closes on some shard, a WindowVerdict (stall/representation labels
// with forest confidences) is emitted on the live verdict stream, harvested
// here while the capture is still running and optionally teed to its own
// spool (--verdict-spool) for downstream consumers.
//
// With --shadow-model=DIR a second pipeline scores every session and
// window alongside the active model (agreement counters only — verdicts
// are unaffected) and per-shard feature-drift distances are tracked
// against a reference captured at model load. With --model-watch the
// active model directory is re-read on SIGHUP or when its stall.model
// mtime changes, schema-checked against the running model, and hot-swapped
// at the next watermark epoch — or refused with a diagnostic.
//
// Exits after --probes streams finish, printing per-subscriber QoE, the
// engine's shard statistics and the transport counters.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "tool_args.h"
#include "vqoe/core/model_io.h"
#include "vqoe/core/pipeline.h"
#include "vqoe/engine/engine.h"
#include "vqoe/engine/status_json.h"
#include "vqoe/lifecycle/model_slot.h"
#include "vqoe/trace/weblog.h"
#include "vqoe/window/verdict_log.h"
#include "vqoe/wire/spool.h"
#include "vqoe/wire/transport.h"
#include "vqoe/workload/corpus.h"

namespace {

using vqoe::tool::arg_value;
using vqoe::tool::has_flag;
using vqoe::tool::parse_arg;
using vqoe::tool::parse_arg_or;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: vqoe_collector --probes=N [--port=9977] [--shards=4]\n"
      "                      [--model-dir=DIR | --train=N [--seed=N]]\n"
      "                      [--spool=DIR]\n"
      "                      [--min-chunks=N] [--ack-window=N]\n"
      "                      [--window=SECONDS] [--hop=SECONDS]\n"
      "                      [--verdict-spool=DIR]\n"
      "                      [--status-every=SECONDS] [--status-json]\n"
      "                      [--shadow-model=DIR] [--model-watch]\n"
      "                      [--mem-ceiling=BYTES[k|m|g]] [--idle-gap=SECONDS]\n"
      "  --probes=N     exit after N probe streams complete\n"
      "  --model-dir    load trained models (vqoe_train output)\n"
      "  --train=N      train in-process on N synthesized sessions instead\n"
      "  --spool=DIR    tee the merged feed to a spool for replay\n"
      "  --window=S     mid-session verdicts every S stream-seconds\n"
      "  --hop=S        window hop (< window = sliding; default tumbling)\n"
      "  --verdict-spool=DIR  tee the live verdict stream to its own spool\n"
      "  --status-every=S  print an ingest status line every S seconds\n"
      "                 (0 = off, default 5)\n"
      "  --status-json  emit status lines as one-line JSON instead of prose\n"
      "  --shadow-model=DIR  score every session/window with a second model\n"
      "                 too (agreement counters only) and track feature\n"
      "                 drift against a load-time reference\n"
      "  --model-watch  hot-swap the --model-dir models on SIGHUP or when\n"
      "                 stall.model's mtime changes; schema-incompatible\n"
      "                 candidates are refused with a diagnostic\n"
      "  --mem-ceiling=B  per-shard session-state ceiling; over it the\n"
      "                 shard evicts idle sessions through the normal close\n"
      "                 path (k/m/g suffixes are binary; 0 = unbounded)\n"
      "  --idle-gap=S   silent-gap seconds that end a session (default 30)\n");
  std::exit(2);
}

volatile std::sig_atomic_t g_reload_requested = 0;

void on_sighup(int) { g_reload_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace vqoe;

  const char* probes_arg = arg_value(argc, argv, "--probes");
  if (!probes_arg) usage();
  const auto probes = parse_arg<std::size_t>("--probes", probes_arg);
  if (probes == 0) usage();

  // --- models: load from disk or train on a synthesized corpus ------------
  const char* model_dir = arg_value(argc, argv, "--model-dir");
  auto pipeline = std::make_shared<const core::QoePipeline>([&] {
    if (model_dir) {
      std::printf("loading models from %s...\n", model_dir);
      return core::load_pipeline(model_dir);
    }
    const char* train = arg_value(argc, argv, "--train");
    const std::size_t sessions = parse_arg_or<std::size_t>("--train", train, 2000);
    const char* seed_arg = arg_value(argc, argv, "--seed");
    const std::uint64_t seed = parse_arg_or<std::uint64_t>("--seed", seed_arg, 42);
    std::printf("training on %zu synthesized sessions (seed %llu)...\n",
                sessions, static_cast<unsigned long long>(seed));
    auto options = workload::cleartext_corpus_options(sessions, seed);
    options.keep_session_results = false;
    return core::QoePipeline::train(
        core::sessions_from_corpus(workload::generate_corpus(options)));
  }());

  // The slot owns the *validated* active model: every hot-swap candidate
  // passes through publish(), which refuses schema mismatches before the
  // engine ever sees the new pipeline.
  lifecycle::ModelSlot slot{
      pipeline, model_dir ? core::load_manifest(std::filesystem::path{model_dir})
                          : std::nullopt};

  const bool model_watch = has_flag(argc, argv, "--model-watch");
  if (model_watch && !model_dir) {
    std::fprintf(stderr, "--model-watch requires --model-dir\n");
    return 2;
  }

  // --- engine -------------------------------------------------------------
  engine::EngineConfig engine_config;
  if (const char* shards = arg_value(argc, argv, "--shards")) {
    engine_config.shards = parse_arg<std::size_t>("--shards", shards);
  }
  if (const char* min_chunks = arg_value(argc, argv, "--min-chunks")) {
    engine_config.monitor.min_chunks =
        parse_arg<std::size_t>("--min-chunks", min_chunks);
  }
  if (const char* window_len = arg_value(argc, argv, "--window")) {
    engine_config.monitor.window.length_s =
        parse_arg<double>("--window", window_len);
    engine_config.monitor.window.min_chunks = 2;
  }
  if (const char* hop = arg_value(argc, argv, "--hop")) {
    engine_config.monitor.window.hop_s = parse_arg<double>("--hop", hop);
  }
  engine_config.monitor.mem_ceiling_bytes = vqoe::tool::parse_bytes_arg_or(
      "--mem-ceiling", arg_value(argc, argv, "--mem-ceiling"), 0);
  if (const char* gap = arg_value(argc, argv, "--idle-gap")) {
    engine_config.monitor.reconstruction.idle_gap_s =
        parse_arg<double>("--idle-gap", gap);
  }
  const char* shadow_dir = arg_value(argc, argv, "--shadow-model");
  if (shadow_dir) {
    std::printf("loading shadow models from %s...\n", shadow_dir);
    engine_config.shadow =
        std::make_shared<const core::QoePipeline>(core::load_pipeline(shadow_dir));
    engine_config.drift.enabled = true;
  }
  const bool lifecycle_enabled = shadow_dir != nullptr;
  const bool windowed = engine_config.monitor.window.enabled();
  engine::MonitorEngine engine{pipeline, engine_config};

  // --- collector ----------------------------------------------------------
  wire::CollectorConfig config;
  config.port = 9977;
  if (const char* port = arg_value(argc, argv, "--port")) {
    config.port = parse_arg<std::uint16_t>("--port", port);
  }
  config.expected_probes = probes;
  if (const char* window = arg_value(argc, argv, "--ack-window")) {
    config.ack_window = parse_arg<std::uint32_t>("--ack-window", window);
  }
  std::unique_ptr<wire::SpoolWriter> tee;
  if (const char* spool = arg_value(argc, argv, "--spool")) {
    tee = std::make_unique<wire::SpoolWriter>(spool);
    config.tee = tee.get();
  }
  std::unique_ptr<window::VerdictSpoolWriter> verdict_tee;
  if (const char* dir = arg_value(argc, argv, "--verdict-spool")) {
    if (!windowed) {
      std::fprintf(stderr, "--verdict-spool requires --window\n");
      return 2;
    }
    verdict_tee = std::make_unique<window::VerdictSpoolWriter>(dir);
  }

  // --- model lifecycle: SIGHUP / mtime-triggered hot swap -----------------
  // The sink below runs on the collector's single event-loop thread, so the
  // reload path (filesystem reads, slot validation, engine.swap_model) needs
  // no locking of its own; only the signal flag crosses a context.
  std::filesystem::file_time_type watched_mtime{};
  const std::filesystem::path watched_model =
      model_dir ? std::filesystem::path{model_dir} / "stall.model"
                : std::filesystem::path{};
  if (model_watch) {
    std::signal(SIGHUP, on_sighup);
    std::error_code ec;
    watched_mtime = std::filesystem::last_write_time(watched_model, ec);
  }
  std::uint64_t swaps_published = 0;
  std::uint64_t swaps_refused = 0;
  const auto try_reload = [&](const char* trigger) {
    std::printf("model reload (%s): re-reading %s...\n", trigger, model_dir);
    try {
      auto next = std::make_shared<const core::QoePipeline>(
          core::load_pipeline(model_dir));
      slot.publish(next, core::load_manifest(std::filesystem::path{model_dir}));
      engine.swap_model(std::move(next));
      ++swaps_published;
      std::printf("model reload: generation %llu published (applies at the "
                  "next watermark epoch on every shard)\n",
                  static_cast<unsigned long long>(slot.generation()));
    } catch (const lifecycle::SwapError& e) {
      ++swaps_refused;
      std::fprintf(stderr, "model reload refused: %s\n", e.what());
    } catch (const std::exception& e) {
      ++swaps_refused;
      std::fprintf(stderr, "model reload failed: %s\n", e.what());
    }
    std::fflush(stdout);
  };

  const bool status_as_json = has_flag(argc, argv, "--status-json");

  wire::Collector collector{config};
  std::printf("listening on port %u for %llu probe(s)...\n", collector.port(),
              static_cast<unsigned long long>(probes));

  // Live verdict accounting: harvested while the capture runs (that is the
  // point of the stream), not just at drain time.
  std::size_t verdicts_total = 0;
  std::size_t verdicts_stalled = 0;
  const auto drain_verdicts = [&] {
    const auto verdicts = engine.harvest_verdicts();
    for (const auto& v : verdicts) {
      ++verdicts_total;
      if (v.stall != static_cast<std::uint8_t>(core::StallLabel::no_stalls)) {
        ++verdicts_stalled;
      }
    }
    if (verdict_tee && !verdicts.empty()) verdict_tee->append(verdicts);
  };

  // Periodic status: a line every --status-every seconds while the capture
  // runs, driven from the sink (the collector is single-threaded).
  const double status_every_s = parse_arg_or<double>(
      "--status-every", arg_value(argc, argv, "--status-every"), 5.0);
  using ToolClock = std::chrono::steady_clock;
  const ToolClock::time_point t0 = ToolClock::now();
  ToolClock::time_point next_status =
      t0 + std::chrono::duration_cast<ToolClock::duration>(
               std::chrono::duration<double>(status_every_s));
  std::uint64_t ingested = 0;

  std::size_t since_harvest = 0;
  const wire::CollectorStats wire_stats =
      collector.run([&](const trace::WeblogRecordView& record) {
        engine.ingest(record);
        ++ingested;
        if (model_watch && g_reload_requested) {
          g_reload_requested = 0;
          try_reload("SIGHUP");
        }
        if (windowed && ++since_harvest >= 4096) {
          since_harvest = 0;
          drain_verdicts();
        }
        if ((ingested & 0xfffu) == 0) {
          if (model_watch) {
            std::error_code ec;
            const auto mtime =
                std::filesystem::last_write_time(watched_model, ec);
            if (!ec && mtime != watched_mtime) {
              watched_mtime = mtime;
              try_reload("mtime");
            }
          }
          if (status_every_s > 0.0) {
            const ToolClock::time_point now = ToolClock::now();
            if (now >= next_status) {
              next_status =
                  now + std::chrono::duration_cast<ToolClock::duration>(
                            std::chrono::duration<double>(status_every_s));
              const double elapsed =
                  std::chrono::duration<double>(now - t0).count();
              const engine::EngineStats es = engine.stats();
              if (status_as_json) {
                std::printf("%s\n",
                            engine::status_json(es, {ingested, elapsed}).c_str());
              } else {
                std::printf("status: %llu records merged (%.0f rec/s), "
                            "%zu verdicts, %llu live sessions, "
                            "arena %.1f MiB (%llu evictions)\n",
                            static_cast<unsigned long long>(ingested),
                            elapsed > 0.0
                                ? static_cast<double>(ingested) / elapsed
                                : 0.0,
                            verdicts_total,
                            static_cast<unsigned long long>(es.live_sessions),
                            static_cast<double>(es.arena_bytes_in_use) /
                                (1024.0 * 1024.0),
                            static_cast<unsigned long long>(
                                es.sessions_evicted));
                if (lifecycle_enabled) {
                  std::printf(
                      "lifecycle: drift %.4f, shadow divergence %.4f "
                      "(%llu scored), generation %llu\n",
                      es.drift_distance, es.shadow_divergence,
                      static_cast<unsigned long long>(es.shadow_scored),
                      static_cast<unsigned long long>(es.model_generation));
                }
              }
              std::fflush(stdout);
            }
          }
        }
      });

  // --- report -------------------------------------------------------------
  struct SubscriberStats {
    std::size_t sessions = 0;
    std::size_t stalled = 0;
  };
  std::map<std::string, SubscriberStats> per_subscriber;
  for (const auto& s : engine.drain()) {
    SubscriberStats& stats = per_subscriber[s.subscriber_id];
    stats.sessions++;
    if (s.report.stall != core::StallLabel::no_stalls) stats.stalled++;
  }
  if (windowed) drain_verdicts();  // the tail emitted by drain()'s flush
  if (tee) tee->close();
  if (verdict_tee) verdict_tee->close();

  std::printf("\ntransport: %llu probes, %llu frames, %llu records "
              "(%llu bytes), %llu protocol errors\n",
              static_cast<unsigned long long>(wire_stats.probes_completed),
              static_cast<unsigned long long>(wire_stats.frames_received),
              static_cast<unsigned long long>(wire_stats.records_received),
              static_cast<unsigned long long>(wire_stats.bytes_received),
              static_cast<unsigned long long>(wire_stats.protocol_errors));
  // Event-loop economics (mirrors ShardStats::queue_peak for the ingest
  // side): frames/wakeup is the batching the event loop achieves, acks <
  // frames shows ack coalescing.
  std::printf("loop: %llu wakeups, %.1f frames/wakeup, %llu acks (batched), "
              "%llu frames assembled across slab edges\n",
              static_cast<unsigned long long>(wire_stats.wakeups),
              wire_stats.wakeups > 0
                  ? static_cast<double>(wire_stats.frames_received) /
                        static_cast<double>(wire_stats.wakeups)
                  : 0.0,
              static_cast<unsigned long long>(wire_stats.acks_sent),
              static_cast<unsigned long long>(wire_stats.frames_assembled));
  std::printf("pool: %llu slab acquires (%llu fresh allocations, %.1f%% "
              "freelist reuse), high water %llu, %llu in use at exit\n",
              static_cast<unsigned long long>(wire_stats.slab_acquires),
              static_cast<unsigned long long>(wire_stats.slab_allocations),
              wire_stats.slab_acquires > 0
                  ? 100.0 * (1.0 - static_cast<double>(
                                       wire_stats.slab_allocations) /
                                       static_cast<double>(
                                           wire_stats.slab_acquires))
                  : 0.0,
              static_cast<unsigned long long>(wire_stats.slab_high_water),
              static_cast<unsigned long long>(wire_stats.slabs_in_use));
  if (tee) {
    std::printf("spool: %llu records in %zu segment(s) under %s\n",
                static_cast<unsigned long long>(tee->records_written()),
                tee->segments(), tee->directory().c_str());
  }
  if (verdict_tee) {
    std::printf("verdict spool: %llu verdicts in %zu segment(s) under %s\n",
                static_cast<unsigned long long>(
                    verdict_tee->verdicts_written()),
                verdict_tee->segments(), verdict_tee->directory().c_str());
  }

  const engine::EngineStats engine_stats = engine.stats();
  if (status_as_json) {
    const double elapsed =
        std::chrono::duration<double>(ToolClock::now() - t0).count();
    std::printf("%s\n",
                engine::status_json(engine_stats, {ingested, elapsed}).c_str());
  }
  std::printf("engine: %llu records over %zu shards, %llu sessions\n",
              static_cast<unsigned long long>(engine_stats.records_out),
              engine.shard_count(),
              static_cast<unsigned long long>(engine_stats.sessions_reported));
  std::printf("arena: %.1f MiB high water across shards, %llu evictions\n",
              static_cast<double>(engine_stats.arena_high_water) /
                  (1024.0 * 1024.0),
              static_cast<unsigned long long>(engine_stats.sessions_evicted));
  if (lifecycle_enabled || model_watch) {
    std::printf(
        "lifecycle: drift %.4f, shadow divergence %.4f (%llu scored, "
        "%llu disagreements), generation %llu "
        "(%llu swaps published, %llu refused)\n",
        engine_stats.drift_distance, engine_stats.shadow_divergence,
        static_cast<unsigned long long>(engine_stats.shadow_scored),
        static_cast<unsigned long long>(engine_stats.shadow_disagreements),
        static_cast<unsigned long long>(engine_stats.model_generation),
        static_cast<unsigned long long>(swaps_published),
        static_cast<unsigned long long>(swaps_refused));
  }
  if (windowed) {
    std::printf("windows: %llu closed, %llu verdicts, %zu harvested "
                "(%zu stalled)\n",
                static_cast<unsigned long long>(engine_stats.windows_emitted),
                static_cast<unsigned long long>(engine_stats.verdicts_emitted),
                verdicts_total, verdicts_stalled);
  }
  for (std::size_t i = 0; i < engine_stats.shards.size(); ++i) {
    const auto& s = engine_stats.shards[i];
    if (windowed) {
      std::printf(
          "  shard %zu: %llu records, %llu sessions, %llu windows, "
          "%llu verdicts, queue peak %zu\n",
          i, static_cast<unsigned long long>(s.records_out),
          static_cast<unsigned long long>(s.sessions_reported),
          static_cast<unsigned long long>(s.windows_emitted),
          static_cast<unsigned long long>(s.verdicts_emitted), s.queue_peak);
    } else {
      std::printf("  shard %zu: %llu records, %llu sessions, queue peak %zu\n",
                  i, static_cast<unsigned long long>(s.records_out),
                  static_cast<unsigned long long>(s.sessions_reported),
                  s.queue_peak);
    }
  }

  std::printf("\n%-12s %-9s %s\n", "subscriber", "sessions", "stalled");
  for (const auto& [subscriber, stats] : per_subscriber) {
    std::printf("%-12s %-9zu %zu\n", subscriber.c_str(), stats.sessions,
                stats.stalled);
  }
  return 0;
}
