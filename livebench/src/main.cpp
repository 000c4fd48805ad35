// livebench — the live-feed benchmark of the vqoe deployment path.
//
//   livebench --workload <sessions_shadow|windows_paced|transport>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--state-dir <dir>] [--rate <rec/s>] [--git-sha <sha>]
//
// Preparation (untimed): train or reuse the saved models, generate the
// seeded feed, and compute the reference digest with one sequential
// core::OnlineMonitor. Then whole passes of the live path run until
// --seconds have elapsed; every pass is checked against the reference.
// The last stdout line is the JSON result: end-to-end metrics with
// --trace 0, the per-layer cost ledger with --trace 1.
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "digest.h"
#include "feed.h"
#include "ledger.h"
#include "live.h"
#include "schedule.h"
#include "stats.h"
#include "vqoe/core/model_io.h"
#include "vqoe/par/parallel.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LIVEBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define LIVEBENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace vqoe;
using namespace livebench;

constexpr double kWarmUpS = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path state_dir = ".bench_build/livebench";
  double rate = -1.0;  ///< overrides the workload's offered rate (calibration)
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--state-dir") a.state_dir = value;
    else if (flag == "--rate") a.rate = std::stod(value);
    else if (flag == "--git-sha") a.git_sha = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Refuses to time unoptimized or instrumented code.
void guard_build() {
  const std::string type = LIVEBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    throw std::runtime_error("refusing to time a " + type + " build");
  }
#ifndef NDEBUG
  throw std::runtime_error("refusing to time a build with assertions on");
#endif
#ifdef LIVEBENCH_SANITIZED
  throw std::runtime_error("refusing to time a sanitizer build");
#endif
}

/// The sequential reference: its digest, and for every session the stream
/// instant (record or watermark tick) that closed it.
struct Reference {
  Digest digest;
  std::unordered_map<std::string, std::vector<std::pair<double, double>>> closed_by;
  double idle_gap_s = 0.0;

  [[nodiscard]] double closed_by_record(const std::string& subscriber,
                                        double end_s) const {
    const auto it = closed_by.find(subscriber);
    if (it == closed_by.end()) return kNever;
    for (const auto& [end, ts] : it->second) {
      if (end == end_s) return ts;
    }
    return kNever;
  }
};

Reference build_reference(const WorkloadSpec& spec, const Feed& feed,
                          const core::QoePipeline& pipeline) {
  const core::OnlineMonitorConfig config = monitor_config(spec);
  core::OnlineMonitor monitor{pipeline, config};
  Reference ref;
  ref.idle_gap_s = config.reconstruction.idle_gap_s;
  std::vector<core::CompletedSession> sessions;
  std::vector<window::WindowVerdict> verdicts;
  const auto take = [&] {
    for (auto& v : monitor.take_verdicts()) verdicts.push_back(std::move(v));
  };
  const auto closed = [&](std::vector<core::CompletedSession>&& done,
                          double at_s) {
    for (auto& s : done) {
      ref.closed_by[s.subscriber_id].emplace_back(s.end_time_s, at_s);
      sessions.push_back(std::move(s));
    }
  };
  // The engine's watermark cadence, replicated: a tick goes out before the
  // first record a full interval past the previous tick, so each monitor
  // sees the same per-subscriber sequence of ticks and records.
  const double interval = engine::EngineConfig{}.watermark_interval_s;
  double last_tick_s = feed.timestamps.empty() ? 0.0 : feed.timestamps.front();
  for (std::size_t i = 0; i < feed.records.size(); ++i) {
    const double ts = feed.timestamps[i];
    if (interval > 0.0 && ts - last_tick_s >= interval) {
      last_tick_s = ts;
      closed(monitor.advance_to(ts), ts);
    }
    closed(monitor.ingest(feed.records[i]), ts);
    if ((i & 4095) == 4095) take();
  }
  for (auto& done : monitor.flush()) sessions.push_back(std::move(done));
  take();
  ref.digest = make_digest(sessions, verdicts);
  return ref;
}

/// What one pass contributes to the run's figures.
struct PassFigures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double records_per_s = 0.0;
  double cpu_us_per_rec = 0.0;
  std::vector<double> lags_ms;
};

PassFigures evaluate(const PassResult& pass, const Reference& ref,
                     const WorkloadSpec& spec, const Feed& feed) {
  PassFigures f;
  const std::uint64_t out = pass.engine.records_out;
  const std::size_t differ =
      mismatches(ref.digest, make_digest(pass.sessions, pass.verdicts));
  f.attempted = pass.records_sent + ref.digest.size();
  f.failed = (pass.records_sent > out ? pass.records_sent - out : 0) +
             pass.engine.dropped + differ +
             (feed.records.size() - std::min<std::uint64_t>(
                                        feed.records.size(), pass.records_sent));
  f.records_per_s = static_cast<double>(pass.records_sent) / pass.wall_s;
  f.cpu_us_per_rec =
      pass.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, out));

  // Lag samples: window verdicts when the workload windows, else session
  // reports (each closes at its final instant).
  const auto lag = [&](bool final_window, double end_s,
                       const std::string& subscriber, double harvested_s) {
    const double instant = closing_instant(
        final_window, end_s, ref.idle_gap_s,
        ref.closed_by_record(subscriber, end_s));
    if (const auto ms = pass.schedule.lag_ms(feed.timestamps, instant, harvested_s)) {
      f.lags_ms.push_back(*ms);
    }
  };
  if (spec.windows) {
    for (std::size_t i = 0; i < pass.verdicts.size(); ++i) {
      const auto& v = pass.verdicts[i];
      lag(v.final_window, v.end_s, v.subscriber_id, pass.verdict_harvest_s[i]);
    }
  } else {
    for (std::size_t i = 0; i < pass.sessions.size(); ++i) {
      const auto& s = pass.sessions[i];
      lag(true, s.end_time_s, s.subscriber_id, pass.session_harvest_s[i]);
    }
  }
  return f;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The p-th quantile of an ascending sample; throws when the sample is too
/// small for that percentile to have 10 samples beyond it.
double supported_quantile(std::span<const double> sorted, std::size_t p_tenths,
                          const char* what) {
  if (!percentile_supported(sorted.size(), p_tenths)) {
    throw std::runtime_error(std::string(what) + ": " +
                             std::to_string(sorted.size()) +
                             " samples cannot support the percentile");
  }
  return quantile_sorted(sorted, static_cast<double>(p_tenths) / 1000.0);
}

int run(const Args& args) {
  guard_build();
  WorkloadSpec spec = workload_spec(args.workload);
  if (args.rate >= 0.0) spec.offered_rate = args.rate;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

  // --- preparation (untimed).
  const ModelDirs models = ensure_models(args.state_dir);
  const Feed feed = make_feed(spec, args.seed);
  const std::vector<EncodedStream> streams =
      encode_streams(feed, spec.connections, spec.connections > 1 ? 512 : 256);
  // Join the preparation pool: from here on only the live path's threads run.
  par::set_threads(1);
  const core::QoePipeline reference_model = core::load_pipeline(models.active);
  const Reference ref = build_reference(spec, feed, reference_model);

  PassInputs in;
  in.spec = &spec;
  in.feed = &feed;
  in.models = &models;
  in.streams = &streams;

  std::printf("provenance git_sha=%s build_type=%s nproc=%u shards=%zu threads=%zu "
              "workload=%s seed=%llu records=%zu video_records=%zu "
              "offered_rate=%.0f reference_sessions=%zu reference_verdicts=%zu\n",
              args.git_sha.c_str(), LIVEBENCH_BUILD_TYPE, nproc, kShards,
              2 + kShards, spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), feed.records.size(),
              feed.video_records, spec.offered_rate, ref.digest.sessions,
              ref.digest.verdicts);

  // Warm-up passes, not timed: page cache, allocator and socket buffers,
  // and the host. After the single-threaded preparation the other virtual
  // CPUs have idled, and on a shared host they can take about a second to
  // run at full speed again.
  const std::int64_t warm_start = now_ns();
  do {
    in.pass_index = 0;
    const PassResult warm = run_pass(in);
    if (evaluate(warm, ref, spec, feed).failed != 0) {
      throw std::runtime_error("warm-up pass disagrees with the reference");
    }
  } while (static_cast<double>(now_ns() - warm_start) * 1e-9 < kWarmUpS);

  // --- timed passes. Traced runs alternate untraced and traced passes so
  // the tracing overhead is measured on the same footing.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> rps, cpu, setup, lag_p50s, lag_p99s, traced_rps;
  std::size_t min_lag_samples = std::numeric_limits<std::size_t>::max();
  std::vector<PassResult> traced;
  // At least ten untraced passes, so the better decile has a pass beyond it
  // (three each in a traced run, whose end-to-end figures are not reported).
  const std::size_t min_passes = args.trace ? 3 : 10;
  const std::int64_t start = now_ns();
  for (std::uint64_t pass = 1;
       rps.size() < min_passes || (args.trace && traced.size() < min_passes) ||
       static_cast<double>(now_ns() - start) * 1e-9 < args.seconds;
       ++pass) {
    in.pass_index = pass;
    in.traced = args.trace && pass % 2 == 0;
    PassResult result = run_pass(in);
    if (result.threads > nproc) {
      throw std::runtime_error("the live path used " +
                               std::to_string(result.threads) +
                               " threads on " + std::to_string(nproc) + " cores");
    }
    const PassFigures f = evaluate(result, ref, spec, feed);
    attempted += f.attempted;
    failed += f.failed;
    std::vector<double> pass_lags = f.lags_ms;
    std::sort(pass_lags.begin(), pass_lags.end());
    const double lag_p50 = supported_quantile(pass_lags, 500, "verdict lag");
    const double lag_p99 = supported_quantile(pass_lags, 990, "verdict lag");
    min_lag_samples = std::min(min_lag_samples, pass_lags.size());
    std::printf("pass %llu%s records_per_s=%.0f cpu_us_per_rec=%.4f setup_s=%.5f "
                "lag_p50=%.3f lag_p99=%.3f lag_samples=%zu failed=%llu\n",
                static_cast<unsigned long long>(pass), in.traced ? " (traced)" : "",
                f.records_per_s, f.cpu_us_per_rec, result.setup_s, lag_p50, lag_p99,
                pass_lags.size(), static_cast<unsigned long long>(f.failed));
    if (in.traced) {
      traced_rps.push_back(f.records_per_s);
      traced.push_back(std::move(result));
      continue;
    }
    rps.push_back(f.records_per_s);
    cpu.push_back(f.cpu_us_per_rec);
    setup.push_back(result.setup_s);
    lag_p50s.push_back(lag_p50);
    lag_p99s.push_back(lag_p99);
  }
  std::printf("lag samples per pass >= %zu (highest supported percentile p%.1f), "
              "untraced passes=%zu\n",
              min_lag_samples,
              static_cast<double>(highest_supported_percentile(min_lag_samples)) / 10.0,
              rps.size());
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted));
  std::printf("failed_frac %.6g ratio (failed=%llu attempted=%llu)\n", failed_frac,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"records_per_s", better_decile(rps, true), "rec/s"},
        {"verdict_lag_ms_p50", better_decile(lag_p50s, false), "ms"},
        {"verdict_lag_ms_p99", better_decile(lag_p99s, false), "ms"},
        {"cpu_us_per_rec", better_decile(cpu, false), "us/rec"},
        {"setup_s", better_decile(setup, false), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    print_result(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
  }

  // --- traced run: per-layer figures from the traced passes...
  std::map<std::string, std::vector<double>> per_pass;
  std::vector<double> late;
  for (const PassResult& p : traced) {
    const auto& c = p.collector;
    const auto& e = p.engine;
    const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
    // CPU inside the sink, scaled up from the sampled calls (net of the
    // clock reads' own cost).
    const double sink_cpu_s =
        (p.sink_cpu_sampled_s -
         static_cast<double>(p.sink_cpu_samples) * p.cpu_clock_overhead_s) *
        ratio(static_cast<double>(p.sink_calls),
              static_cast<double>(p.sink_cpu_samples));
    per_pass["wire.collector_self_frac"].push_back(
        ratio(p.collector_cpu_s - sink_cpu_s, p.collector_wall_s));
    per_pass["wire.frames_per_wakeup"].push_back(
        ratio(static_cast<double>(c.frames_received), static_cast<double>(c.wakeups)));
    per_pass["wire.acks_per_frame"].push_back(
        ratio(static_cast<double>(c.acks_sent), static_cast<double>(c.frames_received)));
    per_pass["wire.slab_reuse"].push_back(
        1.0 - ratio(static_cast<double>(c.slab_allocations),
                    static_cast<double>(c.slab_acquires)));
    per_pass["wire.ack_stalls_per_kframe"].push_back(
        1000.0 * ratio(static_cast<double>(p.ack_stalls),
                       static_cast<double>(p.frames_sent)));
    per_pass["engine.ingest_ns_per_rec"].push_back(
        ratio(static_cast<double>(p.ingest_ns), static_cast<double>(e.records_out)));
    std::size_t peak = 0;
    double busy = 0.0, max_out = 0.0, sum_out = 0.0;
    for (const auto& s : e.shards) {
      peak = std::max(peak, s.queue_peak);
      busy += static_cast<double>(s.ingest_ns) * 1e-9;
      max_out = std::max(max_out, static_cast<double>(s.records_out));
      sum_out += static_cast<double>(s.records_out);
    }
    const auto shards = static_cast<double>(e.shards.size());
    per_pass["engine.queue_peak_frac"].push_back(
        ratio(static_cast<double>(peak), static_cast<double>(p.queue_capacity)));
    per_pass["engine.shard_busy_frac"].push_back(ratio(busy, shards * p.wall_s));
    per_pass["engine.shard_skew"].push_back(ratio(max_out, sum_out / shards));
    per_pass["engine.harvest_ns_per_verdict"].push_back(
        ratio(static_cast<double>(p.harvest_ns), static_cast<double>(p.harvested)));
    per_pass["engine.drain_ms"].push_back(p.drain_ms);
    per_pass["mem.arena_high_water_kb"].push_back(
        static_cast<double>(e.arena_high_water) / 1024.0);
    late.insert(late.end(), p.send_late_ms.begin(), p.send_late_ms.end());
  }
  std::sort(late.begin(), late.end());
  const std::size_t late_support = highest_supported_percentile(late.size());
  std::printf("send_late samples=%zu highest_supported_percentile=p%.1f\n",
              late.size(), static_cast<double>(late_support) / 10.0);

  // ...plus the single-threaded ledger over the same records.
  const auto shadow = std::make_shared<const core::QoePipeline>(
      core::load_pipeline(models.shadow));
  LedgerResult ledger = run_ledger(spec, feed, reference_model, shadow, streams);
  for (const std::string& row : ledger.table) std::printf("%s\n", row.c_str());

  std::map<std::string, double> values = ledger.metrics;
  for (const auto& [name, v] : per_pass) values[name] = median(v);
  values["wire.send_late_ms_p99"] =
      supported_quantile(late, std::min<std::size_t>(990, late_support), "send lateness");
  const double untraced = median(rps);
  values["trace.overhead_frac"] = (untraced - median(traced_rps)) / untraced;

  // Spans of the traced passes and the ledger, written out at exit.
  const auto dir = args.state_dir / "spans";
  std::filesystem::create_directories(dir);
  const auto path =
      dir / (spec.name + "-seed" + std::to_string(args.seed) + ".tsv");
  std::ofstream os{path};
  std::vector<const SpanLog*> logs;
  for (const PassResult& p : traced) {
    logs.push_back(&p.generator_spans);
    logs.push_back(&p.collector_spans);
  }
  logs.push_back(&ledger.spans);
  write_spans(os, logs);
  std::printf("spans written to %s\n", path.string().c_str());

  static const std::map<std::string, std::string> kUnits = {
      {"wire.decode_ns_per_rec", "ns/rec"},
      {"wire.crc_ns_per_kb", "ns/KiB"},
      {"wire.collector_self_frac", "ratio"},
      {"wire.frames_per_wakeup", "frames"},
      {"wire.acks_per_frame", "ratio"},
      {"wire.slab_reuse", "ratio"},
      {"wire.ack_stalls_per_kframe", "count"},
      {"wire.send_late_ms_p99", "ms"},
      {"engine.ingest_ns_per_rec", "ns/rec"},
      {"engine.queue_peak_frac", "ratio"},
      {"engine.shard_busy_frac", "ratio"},
      {"engine.shard_skew", "ratio"},
      {"engine.harvest_ns_per_verdict", "ns"},
      {"engine.drain_ms", "ms"},
      {"core.monitor_ns_per_rec", "ns/rec"},
      {"core.bookkeeping_ns_per_rec", "ns/rec"},
      {"core.assess_us_per_session", "us"},
      {"core.assess_us_per_window", "us"},
      {"core.stall_features_us", "us"},
      {"core.repr_features_us", "us"},
      {"ml.stall_forest_us", "us"},
      {"ml.repr_forest_us", "us"},
      {"ts.cusum_us", "us"},
      {"window.accumulator_ns_per_chunk", "ns/chunk"},
      {"window.verdicts_per_krec", "count/krec"},
      {"mem.arena_high_water_kb", "KiB"},
      {"mem.allocs_per_krec", "count/krec"},
      {"mem.reuse_ratio", "ratio"},
      {"lifecycle.drift_us_per_session", "us"},
      {"lifecycle.shadow_us_per_session", "us"},
      {"ledger.coverage", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : kUnits) {
    const auto it = values.find(name);
    if (it == values.end()) throw std::logic_error("missing metric " + name);
    metrics.push_back({name, it->second, unit});
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "livebench: %s\n", e.what());
    return 2;
  }
}
