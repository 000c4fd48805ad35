// Probe → collector record transport.
//
// The deployment split of Section 3 (and of Schmitt et al.'s production
// system, PAPERS.md): passive probes at network vantage points ship
// per-transaction records to a central service that runs the trained
// models. This header is that wire: a Probe streams framed record batches
// over TCP; a Collector accepts N probes with one level-triggered epoll
// event loop, k-way merges the per-probe streams back into one globally
// time-sorted feed and hands each record to a caller-supplied sink
// (normally engine::MonitorEngine::ingest), optionally tee-ing the merged
// feed to a SpoolWriter for replay.
//
// The receive path is zero-copy: sockets recv(2) into pooled fixed-size
// slabs (buffer_pool.h), frames decode in place into WeblogRecordView
// batches, and Collector::run() hands those views straight to the sink —
// with MonitorEngine::ingest(const WeblogRecordView&) behind it, each
// record materializes inside its shard queue slot: one string copy end to
// end, no intermediate WeblogRecord.
//
// Protocol (version negotiated per connection, all integers little-endian):
//   hello      probe → collector   "VQOW", u8 min_ver, u8 max_ver, u16 rsvd
//   hello-ack  collector → probe   "VQOA", u8 version (0 = refused),
//                                  u8 rsvd, u16 rsvd, u32 ack_window
//   data frame probe → collector   u32 payload_len, u32 crc32c(payload),
//                                  payload = record batch (codec.h);
//                                  payload_len == 0 is end-of-stream
//   ack        collector → probe   u64 cumulative data frames consumed
//
// Backpressure is the ack window: the collector acknowledges a frame only
// once every record in it has been handed to the sink, and a probe never
// has more than `ack_window` unacknowledged frames in flight — a slow
// merge (or a slow engine behind it) therefore propagates back to every
// probe as bounded buffering, not unbounded queueing. DESIGN.md §5e.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "vqoe/trace/weblog.h"
#include "vqoe/wire/codec.h"

namespace vqoe::wire {

class SpoolWriter;

inline constexpr std::uint32_t kHelloMagic = 0x574F5156u;     // "VQOW" LE
inline constexpr std::uint32_t kHelloAckMagic = 0x414F5156u;  // "VQOA" LE
inline constexpr std::size_t kHelloBytes = 8;
inline constexpr std::size_t kHelloAckBytes = 12;

/// Stable assignment of a subscriber to one of `probes` vantage points
/// (trace::subscriber_bucket). Partitioning a feed this way keeps every
/// subscriber's records on one probe, so per-subscriber arrival order
/// survives the k-way merge regardless of how the probes' streams
/// interleave.
[[nodiscard]] inline std::size_t probe_of_subscriber(
    std::string_view subscriber, std::size_t probes) {
  return trace::subscriber_bucket(subscriber, probes);
}

/// The subset of `records` probe `probe_index` of `probe_count` would see,
/// in feed order.
[[nodiscard]] std::vector<trace::WeblogRecord> partition_for_probe(
    const std::vector<trace::WeblogRecord>& records, std::size_t probe_index,
    std::size_t probe_count);

// --- Probe ----------------------------------------------------------------

struct ProbeOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Records per data frame.
  std::size_t batch_records = 256;
  /// Replay pacing: 0 = unthrottled, 1 = real time, N = N× faster than
  /// real time (record timestamps mapped onto the wall clock).
  double speed = 0.0;
  /// How long a send may block on a stalled ack window (or finish() on
  /// outstanding acks) before the probe gives up and throws. Guards
  /// against a hung or disappeared collector; 0 waits forever.
  double ack_timeout_s = 30.0;
};

struct ProbeStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t records_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t ack_stalls = 0;  ///< sends that waited on the ack window
};

/// One probe connection. Construction connects and negotiates the wire
/// version; send() streams records (splitting into frames, pacing, and
/// blocking on the ack window); finish() sends end-of-stream and waits for
/// the final acknowledgement. Not thread-safe.
class Probe {
 public:
  explicit Probe(ProbeOptions options);
  ~Probe();

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void send(const trace::WeblogRecord* records, std::size_t count);
  void send(const std::vector<trace::WeblogRecord>& records) {
    send(records.data(), records.size());
  }

  /// End of stream: FIN frame, then waits until the collector has
  /// acknowledged every data frame. Idempotent.
  void finish();

  [[nodiscard]] std::uint8_t version() const { return version_; }
  [[nodiscard]] const ProbeStats& stats() const { return stats_; }

 private:
  void send_frame(const std::uint8_t* payload, std::size_t size);
  void drain_acks(bool block);
  void throttle(const trace::WeblogRecord& record);

  ProbeOptions options_;
  int fd_ = -1;
  std::uint8_t version_ = 0;
  std::uint32_t ack_window_ = 0;
  std::uint64_t frames_acked_ = 0;
  bool finished_ = false;
  ProbeStats stats_;
  std::vector<std::uint8_t> frame_;
  std::uint8_t ack_partial_[8];
  std::size_t ack_partial_len_ = 0;
  // Pacing state: the first sent record pins stream time to wall time.
  bool pacing_pinned_ = false;
  double pace_t0_s_ = 0.0;
  std::chrono::steady_clock::time_point pace_wall0_;
};

// --- Collector ------------------------------------------------------------

struct CollectorConfig {
  /// 0 binds an ephemeral port; read it back with port().
  std::uint16_t port = 0;
  /// When > 0, run() returns after this many probes have connected and
  /// finished their streams; 0 serves until stop().
  std::size_t expected_probes = 0;
  /// Max unacknowledged data frames per probe (sent in the hello-ack).
  std::uint32_t ack_window = 8;
  /// Optional tee: every record is appended (in merged order) before the
  /// sink sees it, so the feed can be replayed after a crash. Borrowed.
  SpoolWriter* tee = nullptr;
  /// Records per tee frame.
  std::size_t tee_batch_records = 512;
  /// Capacity of each pooled receive slab (clamped to >= 4096). Small
  /// values force frames to straddle slab boundaries — useful in tests.
  std::size_t rx_slab_bytes = 256 * 1024;
};

struct CollectorStats {
  std::uint64_t probes_connected = 0;
  std::uint64_t probes_completed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t records_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t records_emitted = 0;
  std::uint64_t protocol_errors = 0;  ///< rejected/failed connections
  // Event-loop economics: frames_received / wakeups is the batching factor
  // the epoll rework buys; acks_sent < frames_received shows ack batching.
  std::uint64_t wakeups = 0;          ///< event-loop wait() returns
  std::uint64_t acks_sent = 0;        ///< ack writes (cumulative, batched)
  std::uint64_t frames_assembled = 0; ///< frames copied out of slabs
                                      ///< (straddled a boundary / oversized)
  // Buffer-pool counters: BufferPoolStats at run() exit.
  std::uint64_t slab_acquires = 0;     ///< slab checkouts
  std::uint64_t slab_allocations = 0;  ///< checkouts that allocated fresh
  std::uint64_t slab_high_water = 0;   ///< peak slabs simultaneously out
  std::uint64_t slabs_in_use = 0;      ///< slabs still out at exit (0 on a
                                       ///< clean drain)
};

/// Event-loop collector server. run() owns the calling thread until the
/// expected probes finish (or stop() is called from another thread) and
/// invokes the sink for every record in merged order — single-threaded, so
/// the sink may drive engine ingest directly.
class Collector {
 public:
  explicit Collector(CollectorConfig config);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Receives each merged record. Views point into pooled receive buffers
  /// and are valid only for the duration of the call: pair with
  /// MonitorEngine::ingest(const WeblogRecordView&) to materialize straight
  /// into shard queue slots, or call view.materialize() to keep a record.
  using ViewSink = std::function<void(const trace::WeblogRecordView&)>;

  /// The bound listen port (useful with config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  CollectorStats run(const ViewSink& sink);

  /// Thread-safe, idempotent: makes run() drain what it can and return.
  void stop();

 private:
  struct Conn;

  CollectorConfig config_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  /// The only cross-thread state in the collector: stop() (any thread)
  /// release-stores it, the event loop acquire-loads it each iteration.
  /// Everything else — conns, buffers, stats — is owned by the loop thread
  /// and needs no lock, which is why this class has no mutex to annotate.
  std::atomic<bool> stop_{false};
};

}  // namespace vqoe::wire
