// Sharded multi-threaded real-time QoE monitoring engine.
//
// Section 8 of the paper puts the trained models on an operator's passive
// monitoring path, reporting issues in real time. core::OnlineMonitor is
// the single-threaded unit of that deployment; MonitorEngine scales it to
// the multi-gigabit ingest a large subscriber base produces by running N
// monitor shards behind one ingest API:
//
//   * records are hash-partitioned by subscriber id (ShardRouter), so each
//     subscriber's records stay in arrival order on one shard while shards
//     run independently — the per-subscriber ordering invariant the
//     monitor requires is preserved by construction;
//   * the router applies the monitor's host filter (Section 5.2 step 1,
//     ReconstructionOptions::is_service) to the record view before it is
//     copied into a queue: a record on no service host is counted as
//     handled on its shard and goes no further, so non-video traffic costs
//     a hash and a suffix test, not a copy, a queue slot and a worker pass;
//   * each shard owns a bounded SPSC ring (spsc_queue.h) fed by the ingest
//     thread and drained by a dedicated worker into the shard's
//     OnlineMonitor; completed sessions — and, with windowing enabled
//     (config.monitor.window), the live mid-session WindowVerdict stream —
//     accumulate in per-shard output buffers the caller harvests at its own
//     pace (harvest() / harvest_verdicts());
//   * a watermark clock rides the ingest stream: because the feed is
//     globally time-sorted, the last ingested timestamp lower-bounds every
//     future record, and broadcasting it as advance_to() ticks lets idle
//     shards close gapped sessions without waiting for their own traffic;
//   * backpressure is explicit: Block stalls the ingest thread until the
//     shard queue has space, DropNewest sheds the incoming record and
//     counts it in the shard's drop counter.
//
// Determinism: with the Block policy, the multiset of CompletedSession
// reports equals what a single sequential OnlineMonitor emits over the
// same records — a tested invariant (tests/engine/engine_test.cpp).
//
// Model lifecycle (DESIGN.md §5j): the engine can replace its model
// without stopping. swap_model() registers a candidate on the ingest
// thread; the next watermark broadcast (or explicit advance_to / drain)
// delivers it to every shard as a queue item *ahead of* the tick, so each
// worker applies the swap at the same deterministic stream position — the
// epoch boundary. Everything scored before the boundary used the old
// model, everything after uses the new one, and the output is
// bit-identical to two offline runs split at that epoch (a tested
// invariant at 1/2/4/8 shards). With config.drift / config.shadow set,
// each shard additionally carries a lifecycle::ShardLifecycle observer —
// per-shard feature-drift distances and shadow-model divergence surfaced
// through EngineStats without touching the verdict path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/core/sync.h"
#include "vqoe/core/thread_annotations.h"
#include "vqoe/engine/spsc_queue.h"
#include "vqoe/lifecycle/shard_lifecycle.h"

namespace vqoe::engine {

/// What ingest() does when a shard's queue is full.
enum class BackpressurePolicy : std::uint8_t {
  Block,       ///< wait for the worker to free a slot (lossless)
  DropNewest,  ///< discard the incoming record, counting the drop
};

struct EngineConfig {
  /// Number of monitor shards (= worker threads). 0 is clamped to 1.
  std::size_t shards = 4;
  /// Per-shard queue capacity (rounded up to a power of two).
  std::size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::Block;
  /// Stream-time between automatic watermark broadcasts; <= 0 disables the
  /// clock (sessions then close only on same-shard traffic or drain()).
  double watermark_interval_s = 5.0;
  /// Configuration applied to every shard's OnlineMonitor.
  core::OnlineMonitorConfig monitor;
  /// Per-shard feature-drift tracking (lifecycle::DriftMonitor). Disabled
  /// by default; enabling costs one O(chunks) pass per session close.
  lifecycle::DriftConfig drift;
  /// Candidate model scored in shadow on every shard alongside the active
  /// one (lifecycle::ShadowScorer). Null disables shadow scoring. Never
  /// affects emitted verdicts.
  std::shared_ptr<const core::QoePipeline> shadow;
};

/// Per-shard counters. Snapshot values; the engine keeps running while you
/// read them.
struct ShardStats {
  /// Routed to this shard, including dropped and host-filtered records.
  std::uint64_t records_in = 0;
  /// Handled: ingested by the shard's monitor, or dropped by the router's
  /// host filter (a record on no service host, which the monitor would
  /// drop on its first line). records_in == records_out + dropped once the
  /// queue is drained.
  std::uint64_t records_out = 0;
  std::uint64_t dropped = 0;          ///< shed under DropNewest
  std::uint64_t sessions_reported = 0;
  std::uint64_t sessions_discarded = 0;
  /// Sessions closed by the shard monitor's memory ceiling (each also
  /// counts in sessions_reported or sessions_discarded).
  std::uint64_t sessions_evicted = 0;
  std::uint64_t windows_emitted = 0;   ///< chunk-bearing windows closed
  std::uint64_t verdicts_emitted = 0;  ///< windows scored into a WindowVerdict
  std::uint64_t live_sessions = 0;    ///< sessions currently open on the shard
  std::uint64_t arena_bytes_in_use = 0;  ///< shard arena occupancy
  std::uint64_t arena_high_water = 0;    ///< peak shard arena occupancy
  std::uint64_t ingest_ns = 0;        ///< worker time spent inside the monitor
  std::size_t queue_depth = 0;        ///< approximate current occupancy
  /// High-watermark occupancy observed by the ingest thread: how close the
  /// shard came to its capacity (= to blocking or shedding). A peak at the
  /// queue capacity means backpressure actually engaged.
  std::size_t queue_peak = 0;
  /// Lifecycle instrumentation (0 when drift/shadow are not configured).
  double drift_distance = 0.0;  ///< max KS distance over the tracked metrics
  std::uint64_t shadow_scored = 0;         ///< sessions+windows shadow-scored
  std::uint64_t shadow_disagreements = 0;  ///< any-label divergences
  std::uint64_t model_generation = 0;  ///< swaps this shard has applied
  std::uint64_t swaps_applied = 0;     ///< swap items processed (== generation)
};

/// Engine-wide snapshot: totals plus the per-shard breakdown.
struct EngineStats {
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sessions_reported = 0;
  std::uint64_t sessions_discarded = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t windows_emitted = 0;
  std::uint64_t verdicts_emitted = 0;
  std::uint64_t live_sessions = 0;
  std::uint64_t arena_bytes_in_use = 0;  ///< summed across shards
  std::uint64_t arena_high_water = 0;    ///< summed per-shard peaks
  /// Worst (max) per-shard drift distance: the operator's one-glance
  /// "has traffic moved away from what the model was loaded against".
  double drift_distance = 0.0;
  /// Shadow-vs-active divergence over all shards: summed disagreements /
  /// summed scored events, in [0, 1]. 0 when no shadow model is set.
  double shadow_divergence = 0.0;
  std::uint64_t shadow_scored = 0;         ///< summed across shards
  std::uint64_t shadow_disagreements = 0;  ///< summed across shards
  /// Swaps every shard has fully applied (min over shards): the model
  /// generation the whole engine is guaranteed to have reached.
  std::uint64_t model_generation = 0;
  /// Same min-over-shards count from the swap-item side; equals
  /// model_generation once a broadcast swap has landed everywhere.
  std::uint64_t swaps_applied = 0;
  std::vector<ShardStats> shards;
};

/// Stable hash partitioning of subscribers onto shards (FNV-1a, so the
/// mapping does not depend on the standard library's std::hash).
class ShardRouter {
 public:
  explicit ShardRouter(std::size_t shards) : shards_(shards ? shards : 1) {}

  [[nodiscard]] std::size_t shard_of(std::string_view subscriber) const {
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : subscriber) {
      h ^= c;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h % shards_);
  }

  [[nodiscard]] std::size_t shards() const { return shards_; }

 private:
  std::size_t shards_;
};

/// N OnlineMonitor shards behind one ingest API. The ingest-side methods
/// (ingest, advance_to, drain) must be called from one thread at a time;
/// harvest() and stats() may be called concurrently from any thread.
class MonitorEngine {
 public:
  /// @param pipeline trained detectors, shared with every shard (and with
  ///        whoever else holds the model). Must not be null.
  explicit MonitorEngine(std::shared_ptr<const core::QoePipeline> pipeline,
                         EngineConfig config = {});
  ~MonitorEngine();

  MonitorEngine(const MonitorEngine&) = delete;
  MonitorEngine& operator=(const MonitorEngine&) = delete;

  /// Routes one record to its subscriber's shard: ingest(view) over a view
  /// of `record`.
  bool ingest(const trace::WeblogRecord& record);

  /// Routes one record to its subscriber's shard. Records must arrive in
  /// non-decreasing timestamp order. A record on no service host
  /// (config.monitor.reconstruction.is_service) still advances the
  /// watermark clock, then is counted as handled on its shard and never
  /// queued. Returns false when the record was shed (DropNewest with a
  /// full queue) or the engine is already drained.
  /// The view (typically pointing into a collector socket buffer) is
  /// materialized directly into the shard's ring slot — assignment into
  /// the resident record recycles the slot's string capacity, so a
  /// warmed-up engine ingests without allocating. The view only needs to
  /// stay valid for the duration of the call.
  bool ingest(const trace::WeblogRecordView& view);

  /// Broadcasts a watermark tick to every shard: sessions idle past the
  /// gap at `now_s` close without further traffic. Never sheds the tick.
  void advance_to(double now_s);

  /// Registers a model hot-swap. Ingest-thread API (same thread as
  /// ingest/advance_to). The swap is *epoch-aligned*: it is delivered to
  /// every shard immediately before the next watermark broadcast (or the
  /// next explicit advance_to, or drain), as a queue item ahead of the
  /// tick — so every shard applies it at the same deterministic stream
  /// position, and the output is bit-identical to offline runs split at
  /// that epoch. Each shard's monitor scores its pending windows with the
  /// outgoing model before installing `next` (see
  /// core::OnlineMonitor::swap_pipeline). A second call before delivery
  /// replaces the pending candidate. Throws std::invalid_argument on null.
  /// Compatibility validation is the caller's job (lifecycle::ModelSlot);
  /// the engine applies what it is given.
  void swap_model(std::shared_ptr<const core::QoePipeline> next);

  /// Takes every session completed so far. Non-blocking; call at any pace.
  [[nodiscard]] std::vector<core::CompletedSession> harvest();

  /// Takes every window verdict emitted so far — the live mid-session
  /// stream when config.monitor.window is enabled (always empty otherwise).
  /// Non-blocking, any thread, any pace; per-subscriber verdict order is
  /// preserved (a subscriber lives on exactly one shard).
  [[nodiscard]] std::vector<window::WindowVerdict> harvest_verdicts();

  /// End of stream: drains all queues, flushes every shard's open
  /// sessions, joins the workers, and returns the remaining completed
  /// sessions (everything not already harvested). The engine accepts no
  /// records afterwards.
  std::vector<core::CompletedSession> drain();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const ShardRouter& router() const { return router_; }

 private:
  struct Item {
    enum class Kind : std::uint8_t { record, watermark, stop, swap };
    Kind kind = Kind::record;
    double watermark_s = 0.0;
    trace::WeblogRecord record;
    /// Kind::swap payload. Slots are recycled, so every push path clears
    /// it — a ring must not pin a retired model alive.
    std::shared_ptr<const core::QoePipeline> model;
  };

  static std::unique_ptr<lifecycle::ShardLifecycle> make_lifecycle(
      const lifecycle::ShardLifecycleConfig& config, std::uint64_t salt) {
    if (!config.drift.enabled && !config.shadow) return nullptr;
    return std::make_unique<lifecycle::ShardLifecycle>(config, salt);
  }

  static core::OnlineMonitorConfig with_observer(
      core::OnlineMonitorConfig config, core::ScoreObserver* observer) {
    if (observer != nullptr) config.observer = observer;
    return config;
  }

  struct Shard {
    Shard(std::shared_ptr<const core::QoePipeline> pipeline,
          const core::OnlineMonitorConfig& monitor_config,
          const lifecycle::ShardLifecycleConfig& lifecycle_config,
          std::uint64_t shard_salt, std::size_t queue_capacity)
        : queue(queue_capacity),
          lifecycle(make_lifecycle(lifecycle_config, shard_salt)),
          monitor(std::move(pipeline),
                  with_observer(monitor_config, lifecycle.get())) {}

    SpscQueue<Item> queue;
    /// Drift/shadow observer; declared before (so destroyed after) the
    /// monitor that borrows it. Null when lifecycle is not configured.
    std::unique_ptr<lifecycle::ShardLifecycle> lifecycle;
    core::OnlineMonitor monitor;  ///< touched by the worker thread only

    /// Guards the harvest buffers: the shard worker appends under the
    /// lock in publish(), harvest()/harvest_verdicts() drain under it from
    /// any thread. Everything else in the Shard is either the worker's
    /// alone (monitor), the ingest thread's alone (queue producer side),
    /// or an atomic mirror — the lock covers exactly the two vectors.
    core::Mutex out_mutex;
    std::vector<core::CompletedSession> out VQOE_GUARDED_BY(out_mutex);
    std::vector<window::WindowVerdict> out_verdicts VQOE_GUARDED_BY(out_mutex);

    /// Written by the ingest thread for every record and never by the
    /// worker, so they get a cache line of their own: the worker's
    /// per-record counters and publish() mirrors below start on the next
    /// line and never invalidate this one under the collector.
    struct alignas(kCacheLineBytes) IngestCounters {
      std::atomic<std::uint64_t> records_in{0};  ///< queued or shed
      std::atomic<std::uint64_t> dropped{0};
      std::atomic<std::size_t> queue_peak{0};
      /// Handled by the router's host filter; stats() adds them to both
      /// records_in and records_out.
      std::atomic<std::uint64_t> filtered{0};
    };
    static_assert(alignof(IngestCounters) == kCacheLineBytes);
    static_assert(sizeof(IngestCounters) == kCacheLineBytes);
    IngestCounters ingest_side;

    /// Worker-written: counters and mirrors of the monitor, read by stats().
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> records_out{0};
    std::atomic<std::uint64_t> sessions_reported{0};
    std::atomic<std::uint64_t> sessions_discarded{0};
    std::atomic<std::uint64_t> sessions_evicted{0};
    std::atomic<std::uint64_t> windows_emitted{0};
    std::atomic<std::uint64_t> verdicts_emitted{0};
    std::atomic<std::uint64_t> live_sessions{0};
    std::atomic<std::uint64_t> arena_bytes_in_use{0};
    std::atomic<std::uint64_t> arena_high_water{0};
    std::atomic<std::uint64_t> ingest_ns{0};
    /// Lifecycle mirrors (worker-written, stats()-read). drift_distance is
    /// an atomic<double> — lock-free on every target this builds for.
    std::atomic<double> drift_distance{0.0};
    std::atomic<std::uint64_t> shadow_scored{0};
    std::atomic<std::uint64_t> shadow_disagreements{0};
    std::atomic<std::uint64_t> model_generation{0};
    std::atomic<std::uint64_t> swaps_applied{0};

    std::thread worker;
  };

  void worker_loop(Shard& shard);
  /// Moves scored output into the shard's harvest buffers and mirrors the
  /// monitor counters into the stats atomics. `lifecycle_dirty` forces the
  /// lifecycle mirror even when nothing was scored (a swap resets the
  /// drift/shadow counters without emitting anything).
  void publish(Shard& shard, std::vector<core::CompletedSession>&& done,
               bool lifecycle_dirty = false);
  static void push_blocking(Shard& shard, Item&& item);
  static void note_queue_depth(Shard& shard);
  void maybe_watermark(double now_s);
  /// Pushes the pending swap (if any) to every shard — the epoch boundary.
  void deliver_pending_swap();
  void stop_workers();

  EngineConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool saw_record_ = false;
  double last_watermark_s_ = 0.0;
  bool stopped_ = false;
  /// Swap candidate awaiting the next epoch boundary (ingest thread only).
  std::shared_ptr<const core::QoePipeline> pending_swap_;
};

}  // namespace vqoe::engine
