#include "ledger.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <span>
#include <unordered_map>

#include "stats.h"
#include "vqoe/core/features.h"
#include "vqoe/core/online.h"
#include "vqoe/lifecycle/drift.h"
#include "vqoe/lifecycle/shadow.h"
#include "vqoe/window/window.h"
#include "vqoe/wire/codec.h"
#include "vqoe/wire/crc32c.h"

namespace livebench {

using namespace vqoe;

namespace {

/// Keeps the replayed calls' results observable.
volatile std::uint64_t g_sink = 0;

void consume(std::uint64_t v) { g_sink = g_sink + v; }

/// Scored spans kept per kind (sessions, windows): a uniform reservoir
/// sample, so replay cost is bounded however long the feed is.
constexpr std::size_t kCaptureCap = 1200;
/// Repetitions of the micro loops; the median is reported.
constexpr int kRounds = 3;
/// Alternating rounds of the full single-threaded pass and the in-stream
/// replay.
constexpr int kPairs = 5;

struct Captured {
  std::vector<core::ChunkObs> chunks;
  core::QoePipeline::SessionFeatures features;
  core::QoeReport report;
};

/// A span the monitor scored, and the feed position of the call (ingest or
/// take_verdicts) that scored it.
struct InStream {
  std::size_t position = 0;
  std::vector<core::ChunkObs> chunks;
};

/// Benchmark-owned observer. Keeps every scored span of the workload in
/// stream order (for the in-stream replay) and a reservoir sample of
/// sessions and windows with the feature vectors the monitor just built
/// (for the per-layer replay).
class Capture final : public core::ScoreObserver {
 public:
  explicit Capture(bool stream_windows) : stream_windows_(stream_windows) {}

  void on_session(std::string_view, std::span<const core::ChunkObs> chunks,
                  const core::QoePipeline::SessionFeatures& features,
                  const core::QoeReport& report) override {
    stream_sessions.push_back(InStream{position, {chunks.begin(), chunks.end()}});
    keep(sessions, sessions_seen, chunks, features, report);
  }
  void on_window(std::string_view, std::span<const core::ChunkObs> chunks,
                 const core::QoePipeline::SessionFeatures& features,
                 const window::WindowVerdict& verdict) override {
    if (stream_windows_) {
      stream_windows.push_back(InStream{position, {chunks.begin(), chunks.end()}});
    }
    core::QoeReport report;
    report.stall = static_cast<core::StallLabel>(verdict.stall);
    report.representation = static_cast<core::ReprLabel>(verdict.representation);
    report.quality_switches = verdict.quality_switches;
    report.switch_score = verdict.switch_score;
    keep(windows, windows_seen, chunks, features, report);
  }
  void on_model_swap(std::uint64_t) override {}

  std::size_t position = 0;  ///< set by the driving loop before each call
  std::vector<InStream> stream_sessions;
  std::vector<InStream> stream_windows;
  std::vector<Captured> sessions;
  std::vector<Captured> windows;
  std::uint64_t sessions_seen = 0;
  std::uint64_t windows_seen = 0;

 private:
  bool stream_windows_;
  void keep(std::vector<Captured>& pool, std::uint64_t& seen,
            std::span<const core::ChunkObs> chunks,
            const core::QoePipeline::SessionFeatures& features,
            const core::QoeReport& report) {
    ++seen;
    std::size_t slot = pool.size();
    if (pool.size() >= kCaptureCap) {
      slot = static_cast<std::size_t>(rng_() % seen);
      if (slot >= kCaptureCap) return;
    } else {
      pool.emplace_back();
    }
    Captured& c = pool[slot];
    c.chunks.assign(chunks.begin(), chunks.end());
    c.features = features;
    c.report = report;
  }

  std::mt19937_64 rng_{0x6c6564676572ull};
};

struct MonitorRun {
  double ns = 0.0;
  std::size_t sessions = 0;
  std::size_t verdicts = 0;
  mem::SessionArenaStats arena;
};

/// ingest + periodic take_verdicts + flush: the single-threaded baseline.
MonitorRun monitor_pass(const core::QoePipeline& pipeline,
                        const core::OnlineMonitorConfig& config,
                        const Feed& feed) {
  core::OnlineMonitor monitor{pipeline, config};
  MonitorRun run;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < feed.records.size(); ++i) {
    run.sessions += monitor.ingest(feed.records[i]).size();
    if ((i & 4095) == 4095) run.verdicts += monitor.take_verdicts().size();
  }
  run.sessions += monitor.flush().size();
  run.verdicts += monitor.take_verdicts().size();
  run.ns = static_cast<double>(now_ns() - t0);
  run.arena = monitor.arena().stats();
  return run;
}

struct InStreamRun {
  double bookkeeping_ns = 0.0;  ///< the pass's self time
  double session_ns = 0.0;      ///< in-stream assess() time, all sessions
  double window_ns = 0.0;       ///< in-stream assess_scored() time, all windows
};

/// The gated monitor (every session and window below its chunk gate, so
/// only reconstruction, window accumulation and session state run) over the
/// feed, with each captured span's assessment replayed at the feed position
/// where the full monitor scored it: the same interleaving, and so the same
/// cache state, as in the full pass. Bookkeeping is the pass's self time:
/// its duration minus its assess children. Spans go to `log` when given.
InStreamRun in_stream_pass(const core::QoePipeline& pipeline,
                           const core::OnlineMonitorConfig& gated,
                           const Feed& feed, const Capture& capture,
                           SpanLog* log, std::uint64_t parent) {
  const auto& ss = capture.stream_sessions;
  const auto& ws = capture.stream_windows;
  core::DetectorScratch scratch;
  core::OnlineMonitor monitor{pipeline, gated};
  std::size_t next_s = 0;
  std::size_t next_w = 0;
  InStreamRun run;
  const std::int64_t t0 = now_ns();
  const std::uint64_t root = log ? log->open("core.bookkeeping", parent, 0) : 0;
  const auto sessions_at = [&](std::size_t position) {
    for (; next_s < ss.size() && ss[next_s].position == position; ++next_s) {
      const std::int64_t a = now_ns();
      consume(static_cast<std::uint64_t>(
          pipeline.assess(ss[next_s].chunks, scratch).stall));
      const std::int64_t b = now_ns();
      run.session_ns += static_cast<double>(b - a);
      if (log) log->add("core.assess_session", root, next_s, a, b);
    }
  };
  const auto windows_at = [&](std::size_t position) {
    (void)monitor.take_verdicts();
    for (; next_w < ws.size() && ws[next_w].position == position; ++next_w) {
      const std::int64_t a = now_ns();
      consume(static_cast<std::uint64_t>(
          pipeline.assess_scored(ws[next_w].chunks, scratch).report.stall));
      const std::int64_t b = now_ns();
      run.window_ns += static_cast<double>(b - a);
      if (log) log->add("core.assess_window", root, next_w, a, b);
    }
  };
  const std::size_t n = feed.records.size();
  for (std::size_t i = 0; i < n; ++i) {
    (void)monitor.ingest(feed.records[i]);
    sessions_at(i);
    if ((i & 4095) == 4095) windows_at(i);
  }
  (void)monitor.flush();
  sessions_at(n);
  windows_at(n);
  if (log) log->close(root);
  run.bookkeeping_ns =
      static_cast<double>(now_ns() - t0) - run.session_ns - run.window_ns;
  return run;
}

/// Times one call into a layer: a span in the log plus a running total.
class Replayer {
 public:
  Replayer(SpanLog* spans, std::map<std::string, double>& totals)
      : spans_(spans), totals_(totals) {}

  template <typename F>
  void operator()(const char* name, std::uint64_t parent, std::uint64_t request,
                  F&& f) {
    const std::int64_t a = now_ns();
    f();
    const std::int64_t b = now_ns();
    totals_[name] += static_cast<double>(b - a);
    if (spans_ != nullptr) spans_->add(name, parent, request, a, b);
  }

 private:
  SpanLog* spans_;
  std::map<std::string, double>& totals_;
};

/// Replays every layer's public call over the captured spans; returns the
/// mean ns per call of each layer (a warm-up round runs first, untimed).
std::map<std::string, double> replay(
    const std::vector<Captured>& items, bool window_path,
    const core::QoePipeline& active,
    const std::shared_ptr<const core::QoePipeline>& shadow, SpanLog& spans,
    std::uint64_t parent) {
  core::DetectorScratch scratch;
  std::vector<double> buf;
  lifecycle::DriftConfig drift_config;
  drift_config.enabled = true;
  lifecycle::DriftMonitor drift{drift_config, 1};
  lifecycle::ShadowScorer shadow_scorer{shadow};
  const char* root_name = window_path ? "replay.window" : "replay.session";
  const char* assess_name =
      window_path ? "core.assess_window" : "core.assess_session";

  std::map<std::string, double> totals;
  for (int round = 0; round < 2; ++round) {
    std::map<std::string, double> round_totals;
    SpanLog* log = round == 0 ? nullptr : &spans;
    Replayer time{log, round_totals};
    for (std::size_t k = 0; k < items.size(); ++k) {
      const Captured& item = items[k];
      const std::span<const core::ChunkObs> span{item.chunks};
      const std::uint64_t root = log ? log->open(root_name, parent, k) : 0;
      time(assess_name, root, k, [&] {
        consume(static_cast<std::uint64_t>(
            window_path ? active.assess_scored(span, scratch).report.stall
                        : active.assess(span, scratch).stall));
      });
      time("core.stall_features", root, k, [&] {
        core::stall_features_into(span, buf);
        consume(buf.size());
      });
      time("core.repr_features", root, k, [&] {
        core::representation_features_into(span, buf);
        consume(buf.size());
      });
      time("ml.stall_forest", root, k, [&] {
        consume(static_cast<std::uint64_t>(
            active.stall_detector().classify_features(item.features.stall,
                                                      scratch)));
      });
      time("ml.repr_forest", root, k, [&] {
        if (active.representation_detector().trained() &&
            !item.features.repr.empty()) {
          consume(static_cast<std::uint64_t>(
              active.representation_detector().classify_features(
                  item.features.repr, scratch)));
        }
      });
      time("ts.cusum", root, k, [&] {
        consume(active.switch_detector().score(span) > 0.0 ? 1 : 0);
      });
      if (!window_path) {
        time("lifecycle.drift", root, k, [&] { drift.observe(span); });
        time("lifecycle.shadow", root, k, [&] {
          shadow_scorer.score_session(span, item.features, item.report);
        });
      }
      if (log) log->close(root);
    }
    totals = std::move(round_totals);
  }
  for (auto& [name, ns] : totals) {
    ns /= static_cast<double>(std::max<std::size_t>(1, items.size()));
  }
  return totals;
}

/// Median over kRounds of `body()`'s elapsed ns.
template <typename F>
double median_ns(F&& body) {
  std::vector<double> ns;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t a = now_ns();
    body();
    ns.push_back(static_cast<double>(now_ns() - a));
  }
  return median(ns);
}

/// Payload [begin, end) of each data frame of the encoded streams.
std::vector<std::span<const std::uint8_t>> payloads(
    const std::vector<EncodedStream>& streams) {
  std::vector<std::span<const std::uint8_t>> out;
  for (const EncodedStream& s : streams) {
    std::size_t start = s.hello_bytes;
    for (const FrameSpan& f : s.frames) {
      const std::size_t begin = start + wire::kFrameHeaderBytes;
      out.emplace_back(s.bytes.data() + begin, f.byte_end - begin);
      start = f.byte_end;
    }
  }
  return out;
}

}  // namespace

LedgerResult run_ledger(const WorkloadSpec& spec, const Feed& feed,
                        const core::QoePipeline& active,
                        std::shared_ptr<const core::QoePipeline> shadow,
                        const std::vector<EncodedStream>& frames) {
  LedgerResult out;
  auto& m = out.metrics;
  SpanLog& spans = out.spans;
  const auto records = static_cast<double>(feed.records.size());
  const std::uint64_t root = spans.open("ledger", 0, 0);

  // --- capture: the scored spans and their features. Windows are always
  // on here so window scoring is measured on every workload's records;
  // only a windowed workload replays them in stream.
  const core::OnlineMonitorConfig config = monitor_config(spec);
  Capture capture{spec.windows};
  {
    core::OnlineMonitorConfig capture_config = config;
    capture_config.window.length_s = 10.0;
    capture_config.window.min_chunks = 2;
    capture_config.observer = &capture;
    const std::int64_t a = now_ns();
    core::OnlineMonitor monitor{active, capture_config};
    const std::size_t n = feed.records.size();
    for (std::size_t i = 0; i < n; ++i) {
      capture.position = i;
      (void)monitor.ingest(feed.records[i]);
      if ((i & 4095) == 4095) (void)monitor.take_verdicts();
    }
    capture.position = n;
    (void)monitor.flush();
    (void)monitor.take_verdicts();
    spans.add("capture", root, 0, a, now_ns());
  }

  // --- core: the single-threaded total, alternating with reconstruction
  // alone plus assessment replayed in stream, so each pair of rounds sees
  // the same host conditions. Coverage is the median of the pairs' ratios;
  // the layer figures come from the pair that ran fastest.
  core::OnlineMonitorConfig gated = config;
  gated.min_chunks = std::numeric_limits<std::size_t>::max();
  gated.window.min_chunks = std::numeric_limits<std::size_t>::max();
  MonitorRun full;
  InStreamRun in_stream;
  double best_pair_ns = std::numeric_limits<double>::infinity();
  std::vector<double> coverage;
  for (int r = 0; r < kPairs; ++r) {
    const std::int64_t a = now_ns();
    const MonitorRun f = monitor_pass(active, config, feed);
    spans.add("core.monitor", root, static_cast<std::uint64_t>(r), a, now_ns());
    const InStreamRun in = in_stream_pass(active, gated, feed, capture,
                                          r == kPairs - 1 ? &spans : nullptr, root);
    const double in_ns = in.bookkeeping_ns + in.session_ns + in.window_ns;
    coverage.push_back(in_ns / f.ns);
    if (f.ns + in_ns < best_pair_ns) {
      best_pair_ns = f.ns + in_ns;
      full = f;
      in_stream = in;
    }
  }
  m["core.monitor_ns_per_rec"] = full.ns / records;
  m["core.bookkeeping_ns_per_rec"] = in_stream.bookkeeping_ns / records;
  m["mem.allocs_per_krec"] =
      1000.0 * static_cast<double>(full.arena.block_fresh) / records;
  m["mem.reuse_ratio"] = full.arena.reuse_ratio();

  // --- each layer's call replayed on the sampled spans.
  const auto sessions =
      replay(capture.sessions, false, active, shadow, spans, root);
  const auto windows = replay(capture.windows, true, active, shadow, spans, root);
  const auto get = [](const std::map<std::string, double>& means,
                      const char* name) {
    const auto it = means.find(name);
    return it == means.end() ? 0.0 : it->second;
  };

  // Layer means over the spans this workload scores: sessions always,
  // windows when the workload runs them, weighted by how many it scores.
  const auto n_s = static_cast<double>(full.sessions);
  const auto n_w = static_cast<double>(full.verdicts);
  const auto per_span = [&](const char* name) {
    return (n_s * get(sessions, name) + n_w * get(windows, name)) /
           std::max(1.0, n_s + n_w) * 1e-3;
  };
  m["core.assess_us_per_session"] = in_stream.session_ns / std::max(1.0, n_s) * 1e-3;
  m["core.assess_us_per_window"] =
      (spec.windows ? in_stream.window_ns / std::max(1.0, n_w)
                    : get(windows, "core.assess_window")) *
      1e-3;
  m["core.stall_features_us"] = per_span("core.stall_features");
  m["core.repr_features_us"] = per_span("core.repr_features");
  m["ml.stall_forest_us"] = per_span("ml.stall_forest");
  m["ml.repr_forest_us"] = per_span("ml.repr_forest");
  m["ts.cusum_us"] = per_span("ts.cusum");
  m["lifecycle.drift_us_per_session"] = get(sessions, "lifecycle.drift") * 1e-3;
  m["lifecycle.shadow_us_per_session"] = get(sessions, "lifecycle.shadow") * 1e-3;

  // --- ledger: bookkeeping + in-stream assessment should add back up to
  // the single-threaded total. Under each assess row, the layers it calls,
  // as the isolated replay times them (not part of the sum).
  const double assess_s_ns = in_stream.session_ns;
  const double assess_w_ns = in_stream.window_ns;
  const double layers_ns = in_stream.bookkeeping_ns + assess_s_ns + assess_w_ns;
  m["ledger.coverage"] = median(coverage);
  const auto row = [&](const std::string& layer, double ns_total) {
    char line[160];
    std::snprintf(line, sizeof line, "ledger %-34s %10.1f ns/rec %6.1f%%",
                  layer.c_str(), ns_total / records, 100.0 * ns_total / full.ns);
    out.table.emplace_back(line);
  };
  row("core.bookkeeping", in_stream.bookkeeping_ns);
  const auto split = [&](const std::string& assess, double n, double total_ns,
                         const std::map<std::string, double>& means) {
    if (n == 0.0) return;
    row(assess, total_ns);
    for (const char* layer : {"core.stall_features", "core.repr_features",
                              "ml.stall_forest", "ml.repr_forest", "ts.cusum"}) {
      row(std::string("  of which ") + layer, n * get(means, layer));
    }
  };
  split("core.assess (sessions)", n_s, assess_s_ns, sessions);
  split("core.assess (windows)", n_w, assess_w_ns, windows);
  row("sum of layers", layers_ns);
  row("core.monitor (single-threaded)", full.ns);

  // --- window: the O(1) accumulator over every media chunk of the feed.
  {
    const session::ReconstructionOptions recon;
    std::unordered_map<std::string, std::uint32_t> slot_of;
    struct ChunkIn {
      std::uint32_t slot;
      const trace::WeblogRecord* record;
    };
    std::vector<ChunkIn> chunks;
    for (const auto& r : feed.records) {
      if (!recon.is_cdn(r.host) || r.object_size_bytes < recon.min_media_bytes) {
        continue;
      }
      const auto [it, fresh] = slot_of.try_emplace(
          r.subscriber_id, static_cast<std::uint32_t>(slot_of.size()));
      (void)fresh;
      chunks.push_back(ChunkIn{it->second, &r});
    }
    std::vector<window::WindowAccumulator> accs;
    const std::int64_t a = now_ns();
    const double ns = median_ns([&] {
      accs.assign(slot_of.size(), window::WindowAccumulator{});
      for (const ChunkIn& c : chunks) {
        accs[c.slot].add(c.record->timestamp_s, c.record->arrival_time_s(),
                         static_cast<double>(c.record->object_size_bytes),
                         c.record->transport);
      }
      consume(accs.empty() ? 0 : accs.front().chunks());
    });
    spans.add("window.accumulator", root, chunks.size(), a, now_ns());
    m["window.accumulator_ns_per_chunk"] =
        ns / static_cast<double>(std::max<std::size_t>(1, chunks.size()));
    // Windowed workloads count their own verdicts; the others count what a
    // 10 s tumbling schedule would score over the same records.
    m["window.verdicts_per_krec"] =
        1000.0 *
        (spec.windows ? n_w : static_cast<double>(capture.windows_seen)) /
        records;
  }

  // --- wire: decode and CRC over the run's frame payloads.
  {
    const auto frame_payloads = payloads(frames);
    std::size_t bytes = 0;
    for (const auto& p : frame_payloads) bytes += p.size();
    std::vector<trace::WeblogRecordView> views;
    const std::int64_t a = now_ns();
    const double decode_ns = median_ns([&] {
      for (const auto& p : frame_payloads) {
        wire::decode_batch_views(p.data(), p.size(), wire::kWireVersionMax, views);
        consume(views.size());
      }
    });
    spans.add("wire.decode", root, frame_payloads.size(), a, now_ns());
    const std::int64_t b = now_ns();
    const double crc_ns = median_ns([&] {
      for (const auto& p : frame_payloads) consume(wire::crc32c(p.data(), p.size()));
    });
    spans.add("wire.crc32c", root, frame_payloads.size(), b, now_ns());
    m["wire.decode_ns_per_rec"] = decode_ns / records;
    m["wire.crc_ns_per_kb"] =
        crc_ns / (static_cast<double>(std::max<std::size_t>(1, bytes)) / 1024.0);
  }
  spans.close(root);
  return out;
}

}  // namespace livebench
