// vqoe_soak — longevity harness for the probe → collector → engine path.
//
// The bounded-memory claim of the arena work (DESIGN.md §5i) is about
// *time*: a monitoring deployment runs for weeks, and any per-session state
// that escapes reuse shows up as a creeping resident set. This tool replays
// generated traffic through the full in-process deployment shape — a wire
// Probe streaming framed batches into a Collector event loop feeding the
// sharded MonitorEngine — in rounds, for a configured wall-clock duration,
// and asserts that the process RSS stays under a ceiling the whole way.
//
//   vqoe_soak --duration=60 --rss-ceiling=512m
//   vqoe_soak --duration=600 --mem-ceiling=4m --stats-csv=soak.csv
//
// Each round synthesizes a fresh corpus (seed base+round) whose timestamps
// are shifted past everything already ingested, so the engine sees one
// continuous, globally time-sorted feed with full session churn between
// rounds: every subscriber's sessions close via the idle gap and their
// state recirculates through the shard arenas. Harvests run every round, so
// nothing accumulates by design; what the RSS assertion catches is
// anything that accumulates by accident.
//
// Exits 0 when the duration elapses under the ceiling, 1 on an RSS breach
// (printing the offending round), 2 on usage errors. --stats-csv spools a
// per-round time series for plotting.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "tool_args.h"
#include "vqoe/core/model_io.h"
#include "vqoe/core/pipeline.h"
#include "vqoe/engine/engine.h"
#include "vqoe/lifecycle/model_slot.h"
#include "vqoe/trace/weblog.h"
#include "vqoe/wire/transport.h"
#include "vqoe/workload/corpus.h"

namespace {

using vqoe::tool::arg_value;
using vqoe::tool::parse_arg_or;
using vqoe::tool::parse_bytes_arg_or;

volatile std::sig_atomic_t g_reload_requested = 0;

void on_sighup(int) { g_reload_requested = 1; }

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: vqoe_soak [--duration=SECONDS] [--rss-ceiling=BYTES[k|m|g]]\n"
      "                 [--mem-ceiling=BYTES[k|m|g]] [--shards=N]\n"
      "                 [--sessions-per-round=N] [--subscribers=N]\n"
      "                 [--window=SECONDS] [--train=N] [--seed=N]\n"
      "                 [--model-dir=DIR] [--stats-csv=FILE]\n"
      "  --duration=S          wall-clock soak length (default 60)\n"
      "  --rss-ceiling=B       fail if process RSS ever exceeds this\n"
      "                        (default 512m; 0 disables the assertion)\n"
      "  --mem-ceiling=B       per-shard session-state ceiling handed to the\n"
      "                        engine (default 0 = unbounded; eviction via\n"
      "                        the normal close path when set)\n"
      "  --sessions-per-round  churn intensity per replay round (default 150)\n"
      "  --window=S            mid-session verdicts every S stream-seconds\n"
      "                        (default 10; 0 disables windowing)\n"
      "  --model-dir=DIR       load models from DIR instead of training\n"
      "                        in-process; SIGHUP re-reads the directory and\n"
      "                        hot-swaps it mid-soak (the soak then asserts\n"
      "                        the generation advanced with zero drops)\n"
      "  --stats-csv=FILE      spool per-round stats as CSV\n");
  std::exit(2);
}

/// Current resident set in bytes (Linux /proc/self/statm, field 2).
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long long vm_pages = 0;
  unsigned long long rss_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(rss_pages) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vqoe;

  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || !std::strchr(argv[i], '=')) {
      usage();
    }
  }

  const double duration_s = parse_arg_or<double>(
      "--duration", arg_value(argc, argv, "--duration"), 60.0);
  const std::size_t rss_ceiling = parse_bytes_arg_or(
      "--rss-ceiling", arg_value(argc, argv, "--rss-ceiling"),
      std::size_t{512} << 20);
  const std::size_t mem_ceiling = parse_bytes_arg_or(
      "--mem-ceiling", arg_value(argc, argv, "--mem-ceiling"), 0);
  const auto shards = parse_arg_or<std::size_t>(
      "--shards", arg_value(argc, argv, "--shards"), 2);
  const auto sessions_per_round = parse_arg_or<std::size_t>(
      "--sessions-per-round", arg_value(argc, argv, "--sessions-per-round"),
      150);
  const auto subscribers = parse_arg_or<std::size_t>(
      "--subscribers", arg_value(argc, argv, "--subscribers"), 48);
  const double window_s = parse_arg_or<double>(
      "--window", arg_value(argc, argv, "--window"), 10.0);
  const auto train_sessions = parse_arg_or<std::size_t>(
      "--train", arg_value(argc, argv, "--train"), 400);
  const auto seed = parse_arg_or<std::uint64_t>(
      "--seed", arg_value(argc, argv, "--seed"), 42);

  std::FILE* csv = nullptr;
  if (const char* path = arg_value(argc, argv, "--stats-csv")) {
    csv = std::fopen(path, "w");
    if (!csv) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return 2;
    }
    std::fprintf(csv,
                 "round,elapsed_s,records,sessions,verdicts,live_sessions,"
                 "arena_bytes,arena_high_water,evictions,rss_bytes\n");
  }

  const char* model_dir = arg_value(argc, argv, "--model-dir");
  std::shared_ptr<const core::QoePipeline> pipeline;
  if (model_dir) {
    std::printf("loading models from %s...\n", model_dir);
    pipeline = std::make_shared<const core::QoePipeline>(
        core::load_pipeline(model_dir));
  } else {
    std::printf("training on %zu synthesized sessions (seed %llu)...\n",
                train_sessions, static_cast<unsigned long long>(seed));
    auto train_options =
        workload::cleartext_corpus_options(train_sessions, seed);
    train_options.keep_session_results = false;
    pipeline =
        std::make_shared<const core::QoePipeline>(core::QoePipeline::train(
            core::sessions_from_corpus(workload::generate_corpus(train_options))));
  }
  std::optional<lifecycle::ModelSlot> slot;
  if (model_dir) {
    slot.emplace(pipeline,
                 core::load_manifest(std::filesystem::path{model_dir}));
    std::signal(SIGHUP, on_sighup);
  }

  engine::EngineConfig engine_config;
  engine_config.shards = shards;
  engine_config.monitor.mem_ceiling_bytes = mem_ceiling;
  if (window_s > 0.0) {
    engine_config.monitor.window.length_s = window_s;
    engine_config.monitor.window.min_chunks = 2;
  }
  engine::MonitorEngine engine{pipeline, engine_config};

  std::printf("soaking for %.0f s: %zu shards, %zu sessions/round, "
              "rss ceiling %.0f MiB, shard mem ceiling %s\n",
              duration_s, shards, sessions_per_round,
              static_cast<double>(rss_ceiling) / (1024.0 * 1024.0),
              mem_ceiling ? "set" : "unbounded");

  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const double idle_gap_s =
      engine_config.monitor.reconstruction.idle_gap_s;

  double stream_offset_s = 0.0;
  std::uint64_t round = 0;
  std::uint64_t records_total = 0;
  std::uint64_t sessions_total = 0;
  std::uint64_t verdicts_total = 0;
  std::uint64_t reloads_published = 0;
  std::size_t rss_peak = 0;
  bool breached = false;

  while (std::chrono::duration<double>(Clock::now() - t0).count() <
         duration_s) {
    // SIGHUP between rounds: re-read the model directory, vet it against
    // the running model, and hot-swap it into every shard. Refusals keep
    // the old model scoring.
    if (slot && g_reload_requested) {
      g_reload_requested = 0;
      try {
        auto next = std::make_shared<const core::QoePipeline>(
            core::load_pipeline(model_dir));
        slot->publish(next,
                      core::load_manifest(std::filesystem::path{model_dir}));
        engine.swap_model(std::move(next));
        ++reloads_published;
        std::printf("model reload: generation %llu published at round %llu\n",
                    static_cast<unsigned long long>(slot->generation()),
                    static_cast<unsigned long long>(round));
        std::fflush(stdout);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "model reload refused: %s\n", e.what());
      }
    }
    // A fresh corpus per round, time-shifted onto the tail of the global
    // feed: subscribers reappear after more than an idle gap, so every
    // prior round's sessions close and recycle through the arenas.
    auto options =
        workload::cleartext_corpus_options(sessions_per_round, seed + round);
    options.adaptive_fraction = 1.0;
    options.subscribers = subscribers;
    options.keep_session_results = false;
    auto records =
        trace::encrypt_view(workload::generate_corpus(options).weblogs);
    std::stable_sort(records.begin(), records.end(),
                     [](const trace::WeblogRecord& a,
                        const trace::WeblogRecord& b) {
                       return a.timestamp_s < b.timestamp_s;
                     });
    double round_end_s = 0.0;
    for (trace::WeblogRecord& r : records) {
      r.timestamp_s += stream_offset_s;
      round_end_s = std::max(round_end_s, r.arrival_time_s());
    }
    stream_offset_s = round_end_s + idle_gap_s + 1.0;

    // The full wire shape, in-process: a collector event loop on its own
    // thread feeding the engine's zero-copy ingest, one probe streaming
    // the round at full speed.
    wire::CollectorConfig collector_config;
    collector_config.port = 0;  // ephemeral
    collector_config.expected_probes = 1;
    wire::Collector collector{collector_config};
    std::thread server([&collector, &engine] {
      (void)collector.run([&engine](const trace::WeblogRecordView& view) {
        engine.ingest(view);
      });
    });
    {
      wire::ProbeOptions probe_options;
      probe_options.port = collector.port();
      wire::Probe probe{probe_options};
      probe.send(records);
      probe.finish();
    }
    server.join();

    // Harvest everything the round produced; the soak only counts it.
    sessions_total += engine.harvest().size();
    verdicts_total += engine.harvest_verdicts().size();
    records_total += records.size();
    ++round;

    const std::size_t rss = rss_bytes();
    rss_peak = std::max(rss_peak, rss);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const engine::EngineStats stats = engine.stats();
    if (csv) {
      std::fprintf(
          csv, "%llu,%.2f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%zu\n",
          static_cast<unsigned long long>(round), elapsed,
          static_cast<unsigned long long>(records_total),
          static_cast<unsigned long long>(sessions_total),
          static_cast<unsigned long long>(verdicts_total),
          static_cast<unsigned long long>(stats.live_sessions),
          static_cast<unsigned long long>(stats.arena_bytes_in_use),
          static_cast<unsigned long long>(stats.arena_high_water),
          static_cast<unsigned long long>(stats.sessions_evicted), rss);
    }
    if ((round & 0x7u) == 1u) {
      std::printf("round %llu (%.0f s): %llu records, %llu sessions, "
                  "%llu verdicts, arena %.1f MiB high water, rss %.1f MiB\n",
                  static_cast<unsigned long long>(round), elapsed,
                  static_cast<unsigned long long>(records_total),
                  static_cast<unsigned long long>(sessions_total),
                  static_cast<unsigned long long>(verdicts_total),
                  static_cast<double>(stats.arena_high_water) /
                      (1024.0 * 1024.0),
                  static_cast<double>(rss) / (1024.0 * 1024.0));
      std::fflush(stdout);
    }
    if (rss_ceiling > 0 && rss > rss_ceiling) {
      std::fprintf(stderr,
                   "FAIL: rss %.1f MiB exceeded ceiling %.1f MiB at round "
                   "%llu (%.0f s in)\n",
                   static_cast<double>(rss) / (1024.0 * 1024.0),
                   static_cast<double>(rss_ceiling) / (1024.0 * 1024.0),
                   static_cast<unsigned long long>(round), elapsed);
      breached = true;
      break;
    }
  }

  sessions_total += engine.drain().size();
  verdicts_total += engine.harvest_verdicts().size();
  if (csv) std::fclose(csv);

  const engine::EngineStats stats = engine.stats();
  std::printf("\nsoak %s: %llu rounds, %llu records, %llu sessions, "
              "%llu verdicts\n",
              breached ? "FAILED" : "passed",
              static_cast<unsigned long long>(round),
              static_cast<unsigned long long>(records_total),
              static_cast<unsigned long long>(sessions_total),
              static_cast<unsigned long long>(verdicts_total));
  std::printf("arena: %.1f MiB high water across %zu shards, "
              "%llu evictions\n",
              static_cast<double>(stats.arena_high_water) / (1024.0 * 1024.0),
              engine.shard_count(),
              static_cast<unsigned long long>(stats.sessions_evicted));
  std::printf("rss: peak %.1f MiB (ceiling %.1f MiB)\n",
              static_cast<double>(rss_peak) / (1024.0 * 1024.0),
              static_cast<double>(rss_ceiling) / (1024.0 * 1024.0));
  if (reloads_published > 0) {
    // Zero-downtime contract: every published swap must have landed on
    // every shard (generation is the min across shards) without shedding
    // a single record on the way.
    std::printf("lifecycle: %llu reloads published, generation %llu, "
                "%llu records dropped\n",
                static_cast<unsigned long long>(reloads_published),
                static_cast<unsigned long long>(stats.model_generation),
                static_cast<unsigned long long>(stats.dropped));
    if (stats.model_generation < reloads_published || stats.dropped != 0) {
      std::fprintf(stderr,
                   "FAIL: hot swap did not land cleanly (generation %llu of "
                   "%llu expected, %llu dropped)\n",
                   static_cast<unsigned long long>(stats.model_generation),
                   static_cast<unsigned long long>(reloads_published),
                   static_cast<unsigned long long>(stats.dropped));
      breached = true;
    }
  }
  return breached ? 1 : 0;
}
