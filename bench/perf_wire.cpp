// Wire throughput benchmarks (google-benchmark, JSON to BENCH_wire.json).
//
// The ISSUE-4 acceptance bar is a single-threaded encode+decode round trip
// of at least 1M records/sec — the codec must never be the bottleneck in
// front of an engine that ingests millions of records per second. The
// spool benchmarks price durability (one write(2) per frame, batched
// fsync), and the loopback pair measures the full probe → collector →
// engine path over real TCP against direct in-process ingest, so the
// transport's overhead is a tracked number rather than a guess.
//
// The collector-ingest pair at the bottom tracks the collector's own
// receive path (epoll, pooled slabs, zero-copy views) at 16 probes and
// the 64-probe aggregate headline.
#include <arpa/inet.h>
#include <benchmark/benchmark.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "vqoe/engine/engine.h"
#include "vqoe/wire/codec.h"
#include "vqoe/wire/crc32c.h"
#include "vqoe/wire/spool.h"
#include "vqoe/wire/transport.h"
#include "vqoe/workload/corpus.h"

namespace {

using namespace vqoe;
namespace fs = std::filesystem;

const std::shared_ptr<const core::QoePipeline>& trained_pipeline() {
  static const auto pipeline = std::make_shared<const core::QoePipeline>([] {
    auto options = workload::has_corpus_options(400, 42);
    options.keep_session_results = false;
    return core::QoePipeline::train(
        core::sessions_from_corpus(workload::generate_corpus(options)));
  }());
  return pipeline;
}

/// The same multi-subscriber encrypted feed perf_engine measures against.
const std::vector<trace::WeblogRecord>& live_records() {
  static const auto records = [] {
    auto options = workload::cleartext_corpus_options(800, 99);
    options.adaptive_fraction = 1.0;
    options.subscribers = 64;
    options.keep_session_results = false;
    return trace::encrypt_view(workload::generate_corpus(options).weblogs);
  }();
  return records;
}

fs::path bench_spool_dir() {
  return fs::temp_directory_path() /
         ("vqoe_perf_wire_" + std::to_string(::getpid()));
}

void BM_EncodeRecords(benchmark::State& state) {
  const auto& records = live_records();
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    wire::encode_batch(records, wire::kWireVersionMax, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
  state.counters["bytes_per_record"] =
      static_cast<double>(buf.size()) / static_cast<double>(records.size());
}
BENCHMARK(BM_EncodeRecords)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

void BM_DecodeRecords(benchmark::State& state) {
  const auto& records = live_records();
  std::vector<std::uint8_t> buf;
  wire::encode_batch(records, wire::kWireVersionMax, buf);
  for (auto _ : state) {
    auto decoded = wire::decode_batch(buf.data(), buf.size(),
                                      wire::kWireVersionMax);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_DecodeRecords)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// The acceptance number: full encode+decode round trip, single thread —
/// items/sec here must clear 1M records/sec.
void BM_CodecRoundTrip(benchmark::State& state) {
  const auto& records = live_records();
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    wire::encode_batch(records, wire::kWireVersionMax, buf);
    auto decoded = wire::decode_batch(buf.data(), buf.size(),
                                      wire::kWireVersionMax);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_CodecRoundTrip)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

void BM_Crc32c(benchmark::State& state) {
  const auto& records = live_records();
  std::vector<std::uint8_t> buf;
  wire::encode_batch(records, wire::kWireVersionMax, buf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32c)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

void BM_SpoolWrite(benchmark::State& state) {
  const auto& records = live_records();
  const auto dir = bench_spool_dir();
  constexpr std::size_t kBatch = 512;
  for (auto _ : state) {
    wire::SpoolWriter writer{dir};  // O_TRUNC: each iteration rewrites
    for (std::size_t i = 0; i < records.size(); i += kBatch) {
      writer.append(records.data() + i,
                    std::min(kBatch, records.size() - i));
    }
    writer.close();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fs::file_size(dir / "spool-000000.vqs")));
  fs::remove_all(dir);
}
BENCHMARK(BM_SpoolWrite)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

void BM_SpoolRead(benchmark::State& state) {
  const auto& records = live_records();
  const auto dir = bench_spool_dir();
  {
    wire::SpoolWriter writer{dir};
    constexpr std::size_t kBatch = 512;
    for (std::size_t i = 0; i < records.size(); i += kBatch) {
      writer.append(records.data() + i,
                    std::min(kBatch, records.size() - i));
    }
    writer.close();
  }
  for (auto _ : state) {
    auto replayed = wire::read_spool(dir);
    benchmark::DoNotOptimize(replayed.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_SpoolRead)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// Baseline for the loopback number: the same feed pushed straight into
/// Engine::ingest from this thread (no sockets, no codec).
void BM_DirectEngineIngest(benchmark::State& state) {
  const auto& records = live_records();
  std::size_t completed = 0;
  for (auto _ : state) {
    engine::EngineConfig config;
    config.shards = 4;
    engine::MonitorEngine eng{trained_pipeline(), config};
    for (const auto& record : records) eng.ingest(record);
    completed += eng.drain().size();
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_DirectEngineIngest)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// End-to-end over real TCP loopback: encode → frame+CRC → socket →
/// decode → merge → Engine::ingest, one probe, unthrottled.
void BM_LoopbackProbeToEngine(benchmark::State& state) {
  const auto& records = live_records();
  std::size_t completed = 0;
  for (auto _ : state) {
    engine::EngineConfig engine_config;
    engine_config.shards = 4;
    engine::MonitorEngine eng{trained_pipeline(), engine_config};

    wire::CollectorConfig config;
    config.port = 0;
    config.expected_probes = 1;
    wire::Collector collector{config};
    std::thread server([&] {
      (void)collector.run(
          [&](const trace::WeblogRecordView& view) { eng.ingest(view); });
    });

    wire::ProbeOptions probe_options;
    probe_options.port = collector.port();
    wire::Probe probe{probe_options};
    probe.send(records);
    probe.finish();
    server.join();
    completed += eng.drain().size();
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_LoopbackProbeToEngine)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

// --- collector ingest scaling ----------------------------------------------
//
// Concurrent probes replaying pre-encoded streams into one collector. The
// sink only counts, so the number is the transport itself: accept, event
// loop, reassembly, CRC, decode, k-way merge.

/// Lightweight synthetic feed each probe replays: realistic field shapes
/// (googlevideo host, media records) but small enough that the collector
/// thread, not the generator, is what gets measured.
const std::vector<trace::WeblogRecord>& collector_feed() {
  static const auto records = [] {
    std::vector<trace::WeblogRecord> out(100'000);
    for (std::size_t i = 0; i < out.size(); ++i) {
      auto& r = out[i];
      r.subscriber_id = "s-" + std::to_string(i % 8);
      r.timestamp_s = static_cast<double>(i) * 0.001;
      r.transaction_time_s = 0.05;
      r.object_size_bytes = 700'000 + 1'000 * (i % 113);
      r.host = "r" + std::to_string(i % 5) + "---sn-h5q7dne7.googlevideo.com";
      r.kind = trace::RecordKind::media;
      r.encrypted = true;
    }
    return out;
  }();
  return records;
}

/// The full wire byte stream one probe contributes — hello, 512-record
/// data frames, FIN — encoded ONCE per scenario. Senders replay raw bytes
/// so probe-side encode cost stays off the measured path: on small
/// machines the senders share cores with the collector, and per-iteration
/// encoding would swamp the ingest-path delta this bench exists to track.
std::vector<std::uint8_t> probe_stream_bytes(std::size_t records_per_probe) {
  const auto& feed = collector_feed();
  records_per_probe = std::min(records_per_probe, feed.size());
  std::vector<std::uint8_t> out(wire::kHelloBytes, 0);
  const std::uint32_t hello_magic = wire::kHelloMagic;
  std::memcpy(out.data(), &hello_magic, 4);  // x86-64: already little-endian
  out[4] = wire::kWireVersionMin;
  out[5] = wire::kWireVersionMax;

  constexpr std::size_t kBatch = 512;
  std::vector<std::uint8_t> payload;
  for (std::size_t begin = 0; begin < records_per_probe; begin += kBatch) {
    const std::size_t n = std::min(kBatch, records_per_probe - begin);
    payload.clear();
    wire::encode_batch(feed.data() + begin, n, wire::kWireVersionMax, payload);
    std::uint8_t header[wire::kFrameHeaderBytes];
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = wire::crc32c(payload.data(), payload.size());
    std::memcpy(header, &len, 4);
    std::memcpy(header + 4, &crc, 4);
    out.insert(out.end(), header, header + sizeof header);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  std::uint8_t fin[wire::kFrameHeaderBytes] = {};
  const std::uint32_t fin_crc = wire::crc32c(nullptr, 0);
  std::memcpy(fin + 4, &fin_crc, 4);
  out.insert(out.end(), fin, fin + sizeof fin);
  return out;
}

/// Connects, blasts a pre-encoded stream, then drains acks until the
/// collector closes the connection.
void replay_stream(std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    std::uint8_t buf[4096];
    while (::recv(fd, buf, sizeof buf, 0) > 0) {
    }
  }
  // vqoe-lint: allow(unchecked-syscall): bench socket close
  ::close(fd);
}

void collector_ingest_run(benchmark::State& state, std::size_t probes,
                          std::size_t records_per_probe) {
  records_per_probe = std::min(records_per_probe, collector_feed().size());
  const auto bytes = probe_stream_bytes(records_per_probe);
  wire::CollectorStats stats;
  for (auto _ : state) {
    wire::CollectorConfig config;
    config.port = 0;
    config.expected_probes = probes;
    wire::Collector collector{config};

    std::uint64_t emitted = 0;
    std::thread server([&] {
      stats = collector.run(
          [&](const trace::WeblogRecordView&) { ++emitted; });
    });

    std::vector<std::thread> senders;
    senders.reserve(probes);
    for (std::size_t i = 0; i < probes; ++i) {
      senders.emplace_back([&] { replay_stream(collector.port(), bytes); });
    }
    for (auto& t : senders) t.join();
    server.join();
    if (emitted != probes * records_per_probe) {
      state.SkipWithError("collector dropped records");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probes *
                                                    records_per_probe));
  state.counters["probes"] = static_cast<double>(probes);
  state.counters["frames_per_wakeup"] =
      stats.wakeups == 0 ? 0.0
                         : static_cast<double>(stats.frames_received) /
                               static_cast<double>(stats.wakeups);
  state.counters["acks_per_frame"] =
      stats.frames_received == 0
          ? 0.0
          : static_cast<double>(stats.acks_sent) /
                static_cast<double>(stats.frames_received);
  if (stats.slab_acquires > 0) {
    state.counters["slab_reuse"] =
        1.0 - static_cast<double>(stats.slab_allocations) /
                  static_cast<double>(stats.slab_acquires);
    state.counters["slab_high_water"] =
        static_cast<double>(stats.slab_high_water);
  }
}

/// 16 concurrent probes, 50k records each.
void BM_CollectorIngestEpollPooled16Probes(benchmark::State& state) {
  collector_ingest_run(state, 16, 50'000);
}
BENCHMARK(BM_CollectorIngestEpollPooled16Probes)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

/// Headline aggregate: 64 concurrent probes into one collector thread.
void BM_CollectorIngest64ProbeAggregate(benchmark::State& state) {
  collector_ingest_run(state, 64, 25'000);
}
BENCHMARK(BM_CollectorIngest64ProbeAggregate)->Unit(benchmark::kMillisecond)->UseRealTime()->Apply(vqoe::bench::perf_defaults);

}  // namespace

VQOE_BENCHMARK_MAIN_JSON("BENCH_wire.json")
