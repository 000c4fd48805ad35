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
// advance_to tick moving the stream clock past its end, or by its session
// closing), the call that closed it recovers the window's chunk span — the
// chunks the schedule's membership test (window::SessionWindows::locate)
// places inside it, found by binary search over request times — scores it
// through the same QoePipeline::assess_scored code path as session close
// and folds it through window::WindowSummary, yielding a
// window::WindowVerdict (labels, forest confidences, windowed CUSUM and
// goodput). No per-window state is kept while a window is open: every
// number a verdict carries comes from the chunks inside its own bounds.
// take_verdicts() only hands over the verdicts scored so far, so sessions,
// verdicts and evictions depend on the records alone, never on when (or
// whether) anyone harvests. Because the scoring path is shared with
// session close, a full-session window (length covering the whole session)
// reproduces the session-close QoeReport bit-identically — a tested
// invariant, like the equivalence with the batch path (session::reconstruct
// + QoePipeline::assess).
//
// Memory model (DESIGN.md §5i): every piece of per-session state — the
// session map's nodes, the interned subscriber keys, the slab-chained
// chunk logs — lives in a per-monitor mem::SessionArena. Freed sessions
// recirculate through the arena's freelists, so a churning monitor
// ingests without calling malloc, and occupancy is explicit: with
// mem_ceiling_bytes set, ingest evicts least-recently-active sessions
// through the *normal close path* whenever the arena is over the ceiling —
// an evicted session is a session boundary, indistinguishable from an
// idle-gap close at the same instant (a tested invariant), so bounded
// memory costs no correctness, only session splits under pressure.
// Model lifecycle: the monitor holds its pipeline through a
// shared_ptr<const QoePipeline> and can hot-swap it mid-stream with
// swap_pipeline(), which installs the new pipeline and bumps
// model_generation(). A window is scored by the model installed when it
// closed, and everything after the swap call (session closes, window
// closes) uses the new model, which makes a swap a deterministic stream
// position: the engine aligns it on a watermark boundary and the result
// is bit-identical to an offline run split at the same epoch (a tested
// invariant). An optional ScoreObserver sees every scored session/window
// — the lifecycle library's drift tracking and shadow scoring hang off
// that hook without touching the verdict path.
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
  /// A window closed and was scored; `verdict` is the emitted verdict. A
  /// closing session's last windows reach the observer before its
  /// on_session.
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
  /// enabled the record's timestamp first closes and scores any due
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

  /// Hot-swaps the active pipeline: `next` becomes the model for every
  /// subsequent session and window close — deterministic in the stream
  /// position of this call. Windows that closed earlier were already scored
  /// by the outgoing model. Must not be null; throws std::invalid_argument
  /// otherwise. Call from the scoring thread.
  void swap_pipeline(std::shared_ptr<const QoePipeline> next);

  /// Number of swap_pipeline() calls applied so far (0 = the load model).
  [[nodiscard]] std::uint64_t model_generation() const { return generation_; }

  /// Hands over the verdicts of every window scored since the last call,
  /// in the order the windows closed. The scoring already happened in the
  /// ingest / advance_to / flush call that closed each window, so this is
  /// a vector move whatever the cadence.
  [[nodiscard]] std::vector<window::WindowVerdict> take_verdicts() {
    return std::exchange(verdicts_, {});
  }

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
  /// WindowVerdict.
  [[nodiscard]] std::size_t verdicts_emitted() const {
    return verdicts_emitted_;
  }
  /// The session-state arena (occupancy, high water, reuse counters).
  [[nodiscard]] const mem::SessionArena& arena() const { return arena_; }

 private:
  /// One open session. Constructed in place in its map node and never
  /// moved: the LRU hooks and `key` rely on that.
  struct OpenSession {
    explicit OpenSession(mem::SessionArena& arena) : chunks(arena) {}

    double start_time_s = 0.0;
    /// The session's own last activity, its reported end. The subscriber's
    /// clock may run later: a watch-page split carries it over.
    double last_activity_s = 0.0;
    session::ActivityClock clock;  ///< Section 5.2 state (session::step)
    mem::SlabChain<ChunkObs> chunks;
    window::SessionWindows windows;
    /// Intrusive LRU hooks, ordered by last activity (head = coldest).
    /// The session map is node-based, so these pointers survive rehashing;
    /// `key` views the owning map node's key, stable for the same reason.
    OpenSession* lru_prev = nullptr;
    OpenSession* lru_next = nullptr;
    std::string_view key;
  };

  using SessionMap =
      std::unordered_map<mem::ArenaString, OpenSession, TransparentStringHash,
                         TransparentStringEq,
                         mem::ArenaAllocator<
                             std::pair<const mem::ArenaString, OpenSession>>>;

  /// Closes one subscriber's open session, emitting it when large enough.
  void close(std::string_view subscriber, std::vector<CompletedSession>& out);

  /// Closes this session's windows due at now_s and scores them.
  void close_windows_due(OpenSession& session, double now_s);
  /// Scores every window in closed_scratch_ that passes window.min_chunks
  /// into verdicts_, then clears closed_scratch_.
  void score_closed_windows(const OpenSession& session);

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
  /// Verdicts scored since the last take_verdicts() call.
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
