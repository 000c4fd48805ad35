// Online (streaming) QoE monitoring.
//
// Section 8 of the paper: "The trained models can be then directly applied
// on the passively monitored traffic and report issues in real time."
// OnlineMonitor is that deployment shape: weblog records are ingested one
// at a time in timestamp order, session boundaries are recovered
// incrementally with the batch reconstructor's own rule (YouTube-host
// filter, then session::step for watch-page markers and idle gaps — Section
// 5.2), and a QoeReport is emitted the moment a session closes.
//
// With a window::WindowConfig the monitor additionally reports *mid-session*:
// every time a window of the configured length closes (by a record or an
// advance_to tick moving the stream clock past its end), the ingest path
// only records the window's chunk span — the chunks the schedule's
// membership test (window::SessionWindows::locate) places inside it, found
// by binary search over request times. No per-window state is kept while a
// window is open, and no inference runs. take_verdicts() then scores each
// pending span through the same QoePipeline::assess_scored code path as
// session close and folds it through window::WindowSummary, yielding a
// window::WindowVerdict (labels, forest confidences, windowed CUSUM and
// goodput) per window: every number a verdict carries comes from the chunks
// inside its own bounds. Deferring the work to harvest time keeps the
// per-record ingest overhead to the schedule's bookkeeping (bench/perf_window
// measures it), and in the sharded engine it puts scoring on the shard
// workers' publish step rather than under ingest. A verdict's content
// depends only on its chunk span and the pipeline, never on *when* the
// harvest runs, so the stream stays deterministic. Because the scoring
// path is shared with session close, a full-session window (length
// covering the whole session) reproduces the session-close QoeReport
// bit-identically — a tested invariant, like the equivalence with the
// batch path (session::reconstruct + QoePipeline::assess).
//
// Memory model (DESIGN.md §5i): every piece of per-session state — the
// session map's nodes, the interned subscriber keys, the slab-chained
// chunk logs, the pending-window queues — lives in a per-monitor
// mem::SessionArena. Freed sessions recirculate through the arena's
// freelists, so a churning monitor ingests without calling malloc, and
// occupancy is explicit: with mem_ceiling_bytes set, ingest evicts
// least-recently-active sessions through the *normal close path* whenever
// the arena is over the ceiling — an evicted session is a session
// boundary, indistinguishable from an idle-gap close at the same instant
// (a tested invariant), so bounded memory costs no correctness, only
// session splits under pressure.
// Model lifecycle: the monitor holds its pipeline through a
// shared_ptr<const QoePipeline> and can hot-swap it mid-stream with
// swap_pipeline(). A swap first scores every still-pending window with the
// *outgoing* model — a verdict's model is pinned at window close time, so
// harvest cadence never changes which model scored a window — then installs
// the new pipeline and bumps model_generation(). Everything after the swap
// call (session closes, window scoring) uses the new model, which makes a
// swap a deterministic stream position: the engine aligns it on a watermark
// boundary and the result is bit-identical to an offline run split at the
// same epoch (a tested invariant). An optional ScoreObserver sees every
// scored session/window — the lifecycle library's drift tracking and
// shadow scoring hang off that hook without touching the verdict path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vqoe/core/pipeline.h"
#include "vqoe/mem/arena.h"
#include "vqoe/mem/slab_chain.h"
#include "vqoe/session/reconstruct.h"
#include "vqoe/window/window.h"

namespace vqoe::core {

/// Sees every session and window the monitor scores with its *active*
/// pipeline, plus model swaps. Implemented by lifecycle::ShardLifecycle
/// (drift tracking, shadow scoring); observers must not mutate the monitor
/// and run on the monitor's (single) scoring thread. The chunk spans,
/// and the feature capture, are only valid for the duration of the call.
///
/// `features` holds the feature cells the monitor just built for this span
/// (QoePipeline::SessionFeatures): the active pipeline's selection, plus
/// the selection of the model shadow_pipeline() names. A shadow model
/// re-scores the span from them for the cost of a projection and a forest
/// walk instead of a second feature build, which is what keeps observer
/// overhead inside the lifecycle ingest budget.
class ScoreObserver {
 public:
  virtual ~ScoreObserver() = default;
  /// A second model this observer scores the same spans with. The monitor
  /// also builds that model's feature cells into every capture, compiled
  /// when the monitor is constructed and at every swap_pipeline(). The
  /// default names none.
  [[nodiscard]] virtual const QoePipeline* shadow_pipeline() const {
    return nullptr;
  }
  /// A session closed and was assessed; `report` is the emitted verdict.
  virtual void on_session(std::string_view subscriber,
                          std::span<const ChunkObs> chunks,
                          const QoePipeline::SessionFeatures& features,
                          const QoeReport& report) = 0;
  /// A pending window was scored; `verdict` is the emitted verdict.
  virtual void on_window(std::string_view subscriber,
                         std::span<const ChunkObs> chunks,
                         const QoePipeline::SessionFeatures& features,
                         const window::WindowVerdict& verdict) = 0;
  /// swap_pipeline() installed a new model; `generation` is the new count.
  virtual void on_model_swap(std::uint64_t generation) = 0;
};

struct OnlineMonitorConfig {
  session::ReconstructionOptions reconstruction;
  /// Sessions with fewer media chunks than this are discarded unreported
  /// (page visits without playback, probe traffic).
  std::size_t min_chunks = 1;
  /// Mid-session windowing. Disabled by default (length_s == 0): the
  /// monitor then reports on session close only, the pre-window behaviour,
  /// and the ingest hot path carries no windowing cost beyond one branch.
  window::WindowConfig window;
  /// Session-state memory ceiling in bytes for this monitor's arena (per
  /// *shard* in the engine). When > 0, ingest closes least-recently-active
  /// sessions through the normal close path until arena occupancy is back
  /// at or under the ceiling — the session of the record being ingested is
  /// never evicted, so a single session larger than the ceiling may exceed
  /// it (there is nothing left to evict). 0 = unbounded.
  std::size_t mem_ceiling_bytes = 0;
  /// Optional scoring observer (drift / shadow instrumentation). Borrowed;
  /// must outlive the monitor. nullptr = no observation, zero cost.
  ScoreObserver* observer = nullptr;
};

/// A finished session with its assessed QoE.
struct CompletedSession {
  std::string subscriber_id;
  double start_time_s = 0.0;
  double end_time_s = 0.0;
  std::size_t chunk_count = 0;
  QoeReport report;
};

/// Transparent string hashing so open-session lookups can take a
/// string_view (no per-record std::string construction on the hot path).
struct TransparentStringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Transparent equality over anything convertible to string_view — lets
/// the arena-interned key type compare against plain strings and views.
struct TransparentStringEq {
  using is_transparent = void;
  [[nodiscard]] bool operator()(std::string_view a,
                                std::string_view b) const noexcept {
    return a == b;
  }
};

/// Incremental reconstruction + assessment over a live record stream.
/// Not thread-safe; engine::MonitorEngine shards by subscriber for
/// parallel deployments.
class OnlineMonitor {
 public:
  /// @param pipeline trained detectors; borrowed, must outlive the monitor
  ///        (and any pipeline later passed to swap_pipeline()).
  explicit OnlineMonitor(const QoePipeline& pipeline,
                         OnlineMonitorConfig config = {});

  /// Shared-ownership variant: the monitor keeps the pipeline alive itself,
  /// the shape hot-swap deployments use. Must not be null.
  explicit OnlineMonitor(std::shared_ptr<const QoePipeline> pipeline,
                         OnlineMonitorConfig config = {});

  /// Feeds one record. Records must arrive in non-decreasing timestamp
  /// order per subscriber. Returns the sessions this record closed
  /// (usually none or one — plus any sessions the memory ceiling evicted,
  /// which close exactly as if their idle gap had elapsed). With windowing
  /// enabled the record's timestamp first closes (and scores) any due
  /// windows of its own subscriber's session — a record exactly at a
  /// window end closes that window and lands in the next one (the pinned
  /// half-open boundary rule).
  std::vector<CompletedSession> ingest(const trace::WeblogRecord& record);

  /// Advances the clock without traffic: closes due windows of *every*
  /// open session, then closes sessions whose subscriber has been idle
  /// past the gap. A tick exactly at a window end closes the window; a
  /// tick exactly at last_activity + idle_gap does *not* close the session
  /// (the gap rule is strictly greater, matching the batch reconstructor).
  std::vector<CompletedSession> advance_to(double now_s);

  /// End of stream: closes and reports every open session.
  std::vector<CompletedSession> flush();

  /// Hot-swaps the active pipeline. Pending windows are scored with the
  /// outgoing model and its feature plan first (their windows closed under
  /// it), then `next` becomes the model for every subsequent close and
  /// score — deterministic in the stream position of this call. Must not
  /// be null; throws std::invalid_argument otherwise. Call from the
  /// scoring thread.
  void swap_pipeline(std::shared_ptr<const QoePipeline> next);

  /// Number of swap_pipeline() calls applied so far (0 = the load model).
  [[nodiscard]] std::uint64_t model_generation() const { return generation_; }

  /// Scores every window closed since the last call and returns the
  /// verdicts (per session in close order). This is where the forest runs:
  /// the ingest path only queues closed windows, so harvest cadence — not
  /// record rate — sets the inference cost. Cheap no-op when nothing
  /// closed since the last call: the open sessions are not walked then, so
  /// harvesting after every record (as the engine's shard workers do)
  /// costs a few branches per record. Also the point where detached chunk
  /// logs (from sessions that died with pending windows) return to the
  /// arena.
  [[nodiscard]] std::vector<window::WindowVerdict> take_verdicts();

  [[nodiscard]] std::size_t open_sessions() const { return open_.size(); }
  [[nodiscard]] std::size_t sessions_reported() const { return reported_; }
  [[nodiscard]] std::size_t sessions_discarded() const { return discarded_; }
  /// Sessions closed by the memory ceiling rather than their own traffic
  /// pattern (each also counts in reported_ or discarded_ as usual).
  [[nodiscard]] std::size_t sessions_evicted() const { return evicted_; }
  /// Chunk-bearing windows closed so far (empty windows are never
  /// materialized and never counted).
  [[nodiscard]] std::size_t windows_closed() const { return windows_closed_; }
  /// Closed windows that met window.min_chunks and were scored into a
  /// WindowVerdict (counted when take_verdicts() scores them).
  [[nodiscard]] std::size_t verdicts_emitted() const {
    return verdicts_emitted_;
  }
  /// The session-state arena (occupancy, high water, reuse counters).
  [[nodiscard]] const mem::SessionArena& arena() const { return arena_; }

 private:
  /// A closed, gate-passing window awaiting scoring. The ingest hot path
  /// only records the chunk span here; take_verdicts() runs the detectors
  /// and the window summary over it.
  struct PendingWindow {
    std::uint64_t index = 0;
    double start_s = 0.0;
    double end_s = 0.0;
    bool final_window = false;
    std::uint32_t begin_chunk = 0;  ///< span [begin, end) into the chunk log
    std::uint32_t end_chunk = 0;
  };

  struct OpenSession {
    explicit OpenSession(mem::SessionArena& arena)
        : chunks(arena), pending(mem::ArenaAllocator<PendingWindow>(arena)) {}
    OpenSession(OpenSession&&) = default;
    OpenSession& operator=(OpenSession&&) = default;

    double start_time_s = 0.0;
    /// The session's own last activity, its reported end. The subscriber's
    /// clock may run later: a watch-page split carries it over.
    double last_activity_s = 0.0;
    session::ActivityClock clock;  ///< Section 5.2 state (session::step)
    mem::SlabChain<ChunkObs> chunks;
    window::SessionWindows windows;
    /// Windows closed but not yet harvested. Span indices stay valid while
    /// the session lives (the chunk log only grows); close() detaches them.
    mem::ArenaVector<PendingWindow> pending;
    /// Intrusive LRU hooks, ordered by last activity (head = coldest).
    /// The session map is node-based, so these pointers survive rehashing;
    /// `key` views the owning map node's key, stable for the same reason.
    OpenSession* lru_prev = nullptr;
    OpenSession* lru_next = nullptr;
    std::string_view key;
  };

  /// The pending windows of one session that closed before a harvest ran.
  /// Detaching *moves* the session's chunk log (truncated to the last
  /// chunk any pending window references, so the unreferenced tail goes
  /// back to the arena immediately) and pending list here — O(1) per
  /// dying session plus the tail release, nothing per window or per chunk.
  struct DetachedWindows {
    mem::ArenaString subscriber_id;
    mem::SlabChain<ChunkObs> chunks;
    mem::ArenaVector<PendingWindow> windows;
  };

  using SessionMap =
      std::unordered_map<mem::ArenaString, OpenSession, TransparentStringHash,
                         TransparentStringEq,
                         mem::ArenaAllocator<
                             std::pair<const mem::ArenaString, OpenSession>>>;

  /// Closes one subscriber's open session, emitting it when large enough.
  void close(std::string_view subscriber, std::vector<CompletedSession>& out);

  /// Closes this session's windows due at now_s, enqueueing the
  /// gate-passing ones as pending verdicts.
  void close_windows_due(OpenSession& session, double now_s);
  /// Converts closed_scratch_ into PendingWindow entries and clears it.
  void enqueue_closed_windows(OpenSession& session);
  /// Moves a closing session's pending windows and chunk log into
  /// detached_ in one step. The caller must be done with session.chunks
  /// (it is left moved-from when anything was pending).
  void detach_pending(std::string_view subscriber, OpenSession& session);
  /// Runs the detectors and the window summary over one pending window's
  /// span into verdicts_.
  void score_pending(std::string_view subscriber, const PendingWindow& w,
                     const mem::SlabChain<ChunkObs>& chunk_log);
  /// Scores every pending window (detached + open sessions') into
  /// verdicts_: the shared body of take_verdicts() and swap_pipeline().
  void score_all_pending();

  /// Compiles plan_ from the active pipeline and the observer's shadow.
  void compile_plan();

  /// LRU maintenance: O(1) unlink / append / move-to-back.
  void lru_unlink(OpenSession& session);
  void lru_push_back(OpenSession& session);
  void lru_touch(OpenSession& session);
  /// Closes least-recently-active sessions (never `keep`) until the arena
  /// is back at or under the ceiling or nothing evictable remains.
  void evict_over_ceiling(const OpenSession* keep,
                          std::vector<CompletedSession>& out);

  /// The active model. Swappable (swap_pipeline), so every scoring site
  /// reads through this pointer; the reference ctor wraps its argument in a
  /// non-owning aliasing shared_ptr.
  std::shared_ptr<const QoePipeline> pipeline_;
  OnlineMonitorConfig config_;
  std::uint64_t generation_ = 0;
  /// The cells every scoring call builds: the active pipeline's plan
  /// united with the observer's shadow pipeline's.
  FeaturePlan plan_;
  /// Classification buffers reused across every session this monitor
  /// scores (the monitor is single-threaded; engine shards each own one
  /// monitor and therefore one scratch). Its feature capture is what the
  /// observer is handed, so a shadow model skips the feature build.
  DetectorScratch scratch_;
  /// Declared before every arena-backed member: destruction order tears
  /// the containers down while the arena still exists.
  mem::SessionArena arena_;
  SessionMap open_;
  /// Reused buffer for SessionWindows::close_due / close_all output.
  std::vector<window::ClosedWindow> closed_scratch_;
  /// Pending windows that outlived their sessions, scored at next harvest.
  std::vector<DetachedWindows> detached_;
  /// Some open session may hold a pending window: set when a window is
  /// queued, cleared by score_all_pending()'s walk over the open sessions,
  /// which a harvest with nothing pending skips.
  bool open_pending_ = false;
  /// Verdicts scored by the current take_verdicts() call.
  std::vector<window::WindowVerdict> verdicts_;
  /// Gather buffer for chunk spans that cross slab-chain segments.
  std::vector<ChunkObs> span_scratch_;
  /// Reused key buffer for advance_to / flush (views into map nodes).
  std::vector<std::string_view> expired_scratch_;
  OpenSession* lru_head_ = nullptr;  ///< least recently active
  OpenSession* lru_tail_ = nullptr;  ///< most recently active
  std::size_t reported_ = 0;
  std::size_t discarded_ = 0;
  std::size_t evicted_ = 0;
  std::size_t windows_closed_ = 0;
  std::size_t verdicts_emitted_ = 0;
};

}  // namespace vqoe::core
