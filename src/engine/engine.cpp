#include "vqoe/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace vqoe::engine {
namespace {

/// Short yield-then-sleep backoff for both queue sides. The first rounds
/// stay on-CPU (the opposite side is usually a few hundred ns away); after
/// that the thread parks briefly so an idle engine does not spin cores.
inline void backoff(std::size_t& idle_rounds) {
  if (++idle_rounds < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

}  // namespace

MonitorEngine::MonitorEngine(std::shared_ptr<const core::QoePipeline> pipeline,
                             EngineConfig config)
    : config_(std::move(config)), router_(config_.shards) {
  if (!pipeline) {
    throw std::invalid_argument{"MonitorEngine: null pipeline"};
  }
  const lifecycle::ShardLifecycleConfig lifecycle_config{
      .drift = config_.drift, .shadow = config_.shadow};
  shards_.reserve(router_.shards());
  for (std::size_t i = 0; i < router_.shards(); ++i) {
    shards_.push_back(std::make_unique<Shard>(pipeline, config_.monitor,
                                              lifecycle_config, i,
                                              config_.queue_capacity));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { worker_loop(*raw); });
  }
}

MonitorEngine::~MonitorEngine() { stop_workers(); }

void MonitorEngine::push_blocking(Shard& shard, Item&& item) {
  std::size_t idle_rounds = 0;
  while (!shard.queue.try_push(std::move(item))) backoff(idle_rounds);
}

void MonitorEngine::note_queue_depth(Shard& shard) {
  // Single-writer (the ingest thread), so a relaxed read-compare-store is
  // race-free; stats() only ever reads it.
  const std::size_t depth = shard.queue.size();
  // order: relaxed — single-writer max tracker; no other data is published
  if (depth > shard.ingest_side.queue_peak.load(std::memory_order_relaxed)) {
    // order: relaxed — monotone peak, readers tolerate any staleness
    shard.ingest_side.queue_peak.store(depth, std::memory_order_relaxed);
  }
}

bool MonitorEngine::ingest(const trace::WeblogRecord& record) {
  return ingest(trace::WeblogRecordView::of(record));
}

bool MonitorEngine::ingest(const trace::WeblogRecordView& view) {
  if (stopped_) return false;
  maybe_watermark(view.timestamp_s);

  Shard& shard = *shards_[router_.shard_of(view.subscriber_id)];
  // order: relaxed — independent counter; nothing is ordered against it
  shard.ingest_side.records_in.fetch_add(1, std::memory_order_relaxed);

  // In-place fill: assigning into the ring slot's resident record reuses
  // its string capacity, so the steady state allocates nothing.
  const auto fill = [&view](Item& slot) {
    slot.kind = Item::Kind::record;
    slot.watermark_s = 0.0;
    slot.model.reset();  // a recycled swap slot must not pin the old model
    view.assign_to(slot.record);
  };
  if (config_.backpressure == BackpressurePolicy::Block) {
    std::size_t idle_rounds = 0;
    while (!shard.queue.try_push_with(fill)) backoff(idle_rounds);
    note_queue_depth(shard);
    return true;
  }
  if (shard.queue.try_push_with(fill)) {
    note_queue_depth(shard);
    return true;
  }
  // order: relaxed — shed counter; stats() reads are advisory snapshots
  shard.ingest_side.dropped.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void MonitorEngine::maybe_watermark(double now_s) {
  if (config_.watermark_interval_s <= 0.0) return;
  if (!saw_record_) {
    saw_record_ = true;
    last_watermark_s_ = now_s;
    return;
  }
  if (now_s - last_watermark_s_ < config_.watermark_interval_s) return;
  last_watermark_s_ = now_s;
  // The watermark broadcast is the swap epoch: a pending model lands on
  // every shard *before* the tick, so all shards change models at the same
  // stream position.
  deliver_pending_swap();
  // The stream is globally time-sorted, so `now_s` lower-bounds every
  // future record: broadcasting it cannot close a session a later record
  // would still extend (advance_to uses a strict idle-gap comparison).
  for (auto& shard : shards_) {
    Item tick;
    tick.kind = Item::Kind::watermark;
    tick.watermark_s = now_s;
    if (config_.backpressure == BackpressurePolicy::Block) {
      push_blocking(*shard, std::move(tick));
    } else {
      // Advisory under DropNewest: a full shard is not idle anyway.
      (void)shard->queue.try_push(std::move(tick));
    }
  }
}

void MonitorEngine::advance_to(double now_s) {
  if (stopped_) return;
  // An explicit tick is an epoch boundary too: the swap precedes it.
  deliver_pending_swap();
  for (auto& shard : shards_) {
    Item tick;
    tick.kind = Item::Kind::watermark;
    tick.watermark_s = now_s;
    push_blocking(*shard, std::move(tick));
  }
}

void MonitorEngine::swap_model(std::shared_ptr<const core::QoePipeline> next) {
  if (!next) {
    throw std::invalid_argument{"MonitorEngine::swap_model: null pipeline"};
  }
  if (stopped_) return;
  pending_swap_ = std::move(next);
  // Without a watermark clock there is no upcoming broadcast to align
  // with: the call position itself is the (still deterministic) epoch.
  if (config_.watermark_interval_s <= 0.0) deliver_pending_swap();
}

void MonitorEngine::deliver_pending_swap() {
  if (!pending_swap_) return;
  for (auto& shard : shards_) {
    Item item;
    item.kind = Item::Kind::swap;
    item.model = pending_swap_;
    push_blocking(*shard, std::move(item));
  }
  pending_swap_.reset();
}

void MonitorEngine::publish(Shard& shard,
                            std::vector<core::CompletedSession>&& done,
                            bool lifecycle_dirty) {
  auto verdicts = shard.monitor.take_verdicts();
  const bool scored = !done.empty() || !verdicts.empty();
  if (scored) {
    const core::MutexLock lock(shard.out_mutex);
    shard.out.insert(shard.out.end(), std::make_move_iterator(done.begin()),
                     std::make_move_iterator(done.end()));
    shard.out_verdicts.insert(shard.out_verdicts.end(),
                              std::make_move_iterator(verdicts.begin()),
                              std::make_move_iterator(verdicts.end()));
  }
  // order: relaxed for every mirror below, for the same reason — each
  // atomic is an independent snapshot of a monitor counter the worker
  // alone advances. stats() reads them individually and promises no
  // cross-counter consistency, so there is nothing stronger to protect.
  shard.sessions_reported.store(shard.monitor.sessions_reported(),
                                std::memory_order_relaxed);  // order: see above
  shard.sessions_discarded.store(shard.monitor.sessions_discarded(),
                                 std::memory_order_relaxed);  // order: see above
  shard.sessions_evicted.store(shard.monitor.sessions_evicted(),
                               std::memory_order_relaxed);  // order: see above
  shard.windows_emitted.store(shard.monitor.windows_closed(),
                              std::memory_order_relaxed);  // order: see above
  shard.verdicts_emitted.store(shard.monitor.verdicts_emitted(),
                               std::memory_order_relaxed);  // order: see above
  shard.live_sessions.store(shard.monitor.open_sessions(),
                            std::memory_order_relaxed);  // order: see above
  shard.arena_bytes_in_use.store(shard.monitor.arena().bytes_in_use(),
                                 std::memory_order_relaxed);  // order: see above
  shard.arena_high_water.store(shard.monitor.arena().high_water(),
                               std::memory_order_relaxed);  // order: see above
  shard.model_generation.store(shard.monitor.model_generation(),
                               std::memory_order_relaxed);  // order: see above
  // The lifecycle counters only move when something was scored (or a swap
  // reset them) — skip the mirror on the per-record fast path otherwise.
  if (shard.lifecycle != nullptr && (scored || lifecycle_dirty)) {
    shard.drift_distance.store(shard.lifecycle->drift().distance(),
                               std::memory_order_relaxed);  // order: see above
    const lifecycle::ShadowStats& shadow = shard.lifecycle->shadow().stats();
    // order: relaxed — same independent stat-mirror contract as above
    shard.shadow_scored.store(shadow.scored(), std::memory_order_relaxed);
    shard.shadow_disagreements.store(shadow.disagreements,
                                     std::memory_order_relaxed);  // order: see above
  }
}

void MonitorEngine::worker_loop(Shard& shard) {
  using clock = std::chrono::steady_clock;
  Item item;
  std::size_t idle_rounds = 0;
  for (;;) {
    if (!shard.queue.try_pop(item)) {
      backoff(idle_rounds);
      continue;
    }
    idle_rounds = 0;
    switch (item.kind) {
      case Item::Kind::record: {
        const auto t0 = clock::now();
        auto done = shard.monitor.ingest(item.record);
        const auto t1 = clock::now();
        // order: relaxed — timing accumulator read only by stats()
        shard.ingest_ns.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()),
            std::memory_order_relaxed);
        // order: relaxed — independent counter; no data published through it
        shard.records_out.fetch_add(1, std::memory_order_relaxed);
        publish(shard, std::move(done));
        break;
      }
      case Item::Kind::watermark:
        publish(shard, shard.monitor.advance_to(item.watermark_s));
        break;
      case Item::Kind::swap:
        // Applied in queue order: every record pushed before the swap is
        // scored by the old model, everything after by the new one. The
        // monitor scores its pending windows with the outgoing model
        // first; publish() then moves those verdicts out.
        shard.monitor.swap_pipeline(std::move(item.model));
        // order: relaxed — progress counter; readers take min over shards
        // and tolerate observing shards at different generations
        shard.swaps_applied.fetch_add(1, std::memory_order_relaxed);
        publish(shard, {}, /*lifecycle_dirty=*/true);
        break;
      case Item::Kind::stop:
        publish(shard, shard.monitor.flush());
        return;
    }
  }
}

std::vector<core::CompletedSession> MonitorEngine::harvest() {
  std::vector<core::CompletedSession> all;
  for (auto& shard : shards_) {
    const core::MutexLock lock(shard->out_mutex);
    all.insert(all.end(), std::make_move_iterator(shard->out.begin()),
               std::make_move_iterator(shard->out.end()));
    shard->out.clear();
  }
  return all;
}

std::vector<window::WindowVerdict> MonitorEngine::harvest_verdicts() {
  std::vector<window::WindowVerdict> all;
  for (auto& shard : shards_) {
    const core::MutexLock lock(shard->out_mutex);
    all.insert(all.end(), std::make_move_iterator(shard->out_verdicts.begin()),
               std::make_move_iterator(shard->out_verdicts.end()));
    shard->out_verdicts.clear();
  }
  return all;
}

void MonitorEngine::stop_workers() {
  if (stopped_) return;
  stopped_ = true;
  // A requested swap is never lost: it lands before the stop items, so the
  // final flush scores with the model the operator last asked for.
  deliver_pending_swap();
  for (auto& shard : shards_) {
    Item stop;
    stop.kind = Item::Kind::stop;
    push_blocking(*shard, std::move(stop));
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::vector<core::CompletedSession> MonitorEngine::drain() {
  stop_workers();
  return harvest();
}

EngineStats MonitorEngine::stats() const {
  EngineStats total;
  total.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    // order: relaxed throughout this snapshot loop — ShardStats documents
    // these as independently-racy snapshot values with no cross-counter
    // consistency guarantee, so no acquire edge would buy the reader
    // anything.
    s.records_in = shard->ingest_side.records_in.load(std::memory_order_relaxed);
    s.records_out = shard->records_out.load(std::memory_order_relaxed);  // order: see above
    s.dropped = shard->ingest_side.dropped.load(std::memory_order_relaxed);  // order: see above
    s.sessions_reported =
        shard->sessions_reported.load(std::memory_order_relaxed);  // order: see above
    s.sessions_discarded =
        shard->sessions_discarded.load(std::memory_order_relaxed);  // order: see above
    s.sessions_evicted =
        shard->sessions_evicted.load(std::memory_order_relaxed);  // order: see above
    s.windows_emitted =
        shard->windows_emitted.load(std::memory_order_relaxed);  // order: see above
    s.verdicts_emitted =
        shard->verdicts_emitted.load(std::memory_order_relaxed);  // order: see above
    s.live_sessions = shard->live_sessions.load(std::memory_order_relaxed);  // order: see above
    s.arena_bytes_in_use =
        shard->arena_bytes_in_use.load(std::memory_order_relaxed);  // order: see above
    s.arena_high_water =
        shard->arena_high_water.load(std::memory_order_relaxed);  // order: see above
    s.ingest_ns = shard->ingest_ns.load(std::memory_order_relaxed);  // order: see above
    s.queue_depth = shard->queue.size();
    s.queue_peak = shard->ingest_side.queue_peak.load(std::memory_order_relaxed);  // order: see above
    s.drift_distance =
        shard->drift_distance.load(std::memory_order_relaxed);  // order: see above
    s.shadow_scored = shard->shadow_scored.load(std::memory_order_relaxed);  // order: see above
    s.shadow_disagreements =
        shard->shadow_disagreements.load(std::memory_order_relaxed);  // order: see above
    s.model_generation =
        shard->model_generation.load(std::memory_order_relaxed);  // order: see above
    s.swaps_applied = shard->swaps_applied.load(std::memory_order_relaxed);  // order: see above
    total.records_in += s.records_in;
    total.records_out += s.records_out;
    total.dropped += s.dropped;
    total.sessions_reported += s.sessions_reported;
    total.sessions_discarded += s.sessions_discarded;
    total.sessions_evicted += s.sessions_evicted;
    total.windows_emitted += s.windows_emitted;
    total.verdicts_emitted += s.verdicts_emitted;
    total.live_sessions += s.live_sessions;
    total.arena_bytes_in_use += s.arena_bytes_in_use;
    total.arena_high_water += s.arena_high_water;
    total.drift_distance = std::max(total.drift_distance, s.drift_distance);
    total.shadow_scored += s.shadow_scored;
    total.shadow_disagreements += s.shadow_disagreements;
    // min over shards: the generation / swap count the *whole* engine has
    // reached (a broadcast swap mid-flight shows the pre-swap value).
    if (total.shards.empty()) {
      total.model_generation = s.model_generation;
      total.swaps_applied = s.swaps_applied;
    } else {
      total.model_generation = std::min(total.model_generation,
                                        s.model_generation);
      total.swaps_applied = std::min(total.swaps_applied, s.swaps_applied);
    }
    total.shards.push_back(s);
  }
  if (total.shadow_scored != 0) {
    total.shadow_divergence = static_cast<double>(total.shadow_disagreements) /
                              static_cast<double>(total.shadow_scored);
  }
  return total;
}

}  // namespace vqoe::engine
