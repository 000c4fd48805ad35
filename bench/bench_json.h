// Shared google-benchmark entry point that makes every perf binary emit
// machine-readable results by default: a full run that names no
// --benchmark_out also writes its results as JSON to a fixed file
// (BENCH_pipeline.json / BENCH_engine.json / BENCH_train.json /
// BENCH_predict.json / BENCH_window.json / BENCH_wire.json) in the working
// directory, so the perf trajectory is tracked without remembering the
// flags. A listing (--benchmark_list_tests) or a filtered run
// (--benchmark_filter) gets no default file: it would truncate or replace
// a full run's rows with a subset. Console output is unchanged.
//
// The entry point also defaults to repeated trials (3 repetitions,
// aggregates only) so every BENCH_*.json row is a median with min/max
// spread rather than a single noisy sample; pass --benchmark_repetitions
// explicitly to override. Register benchmarks through perf_defaults() to
// pick up the warmup window and the min/max aggregate statistics.
// Every BENCH_*.json additionally carries provenance in its `context`
// block — git SHA and build type (stamped in by bench/CMakeLists.txt at
// configure time), hardware thread count and a UTC run timestamp — so a
// number in the perf trajectory can always be traced back to the commit
// and machine shape that produced it.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

namespace vqoe::bench {

/// Standard registration defaults for perf_* binaries, applied with
/// ->Apply(vqoe::bench::perf_defaults): a short warmup so first-touch page
/// faults and cold caches stay out of the measured window, plus min/max
/// across repetitions next to the default mean/median/stddev aggregates.
inline void perf_defaults(benchmark::internal::Benchmark* b) {
  b->MinWarmUpTime(0.1);
  b->ComputeStatistics("min", [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  });
  b->ComputeStatistics("max", [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  });
}

/// Stamps run provenance into the benchmark context (console and JSON).
/// VQOE_GIT_SHA / VQOE_BUILD_TYPE come from bench/CMakeLists.txt; a build
/// outside a git checkout reports "unknown".
inline void add_run_metadata() {
#ifdef VQOE_GIT_SHA
  benchmark::AddCustomContext("git_sha", VQOE_GIT_SHA);
#endif
#ifdef VQOE_BUILD_TYPE
  benchmark::AddCustomContext("build_type", VQOE_BUILD_TYPE);
#endif
  benchmark::AddCustomContext(
      "hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char stamp[32];
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc);
  benchmark::AddCustomContext("run_timestamp_utc", stamp);
}

inline int run_benchmarks_with_default_json(int argc, char** argv,
                                            const char* default_out) {
  bool has_out = false;
  bool partial_run = false;  // a listing or a filtered run
  bool has_repetitions = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_list_tests", 22) == 0 ||
        std::strncmp(argv[i], "--benchmark_filter", 18) == 0) {
      partial_run = true;
    }
    if (std::strncmp(argv[i], "--benchmark_repetitions", 23) == 0) {
      has_repetitions = true;
    }
  }

  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out && !partial_run) {
    out_flag = std::string{"--benchmark_out="} + default_out;
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  // Repeated trials by default; aggregates-only keeps the per-repetition
  // rows out of the JSON so downstream tooling always reads the median.
  std::string repetitions_flag = "--benchmark_repetitions=3";
  std::string aggregates_flag = "--benchmark_report_aggregates_only=true";
  if (!has_repetitions) {
    args.push_back(repetitions_flag.data());
    args.push_back(aggregates_flag.data());
  }

  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  add_run_metadata();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace vqoe::bench

#define VQOE_BENCHMARK_MAIN_JSON(default_out)                                \
  int main(int argc, char** argv) {                                          \
    return vqoe::bench::run_benchmarks_with_default_json(argc, argv,         \
                                                         default_out);       \
  }
