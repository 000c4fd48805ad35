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
  // Step 1 of Section 5.2 before the copy: the shard's monitor would drop a
  // record on no service host on its first line, so the router handles it
  // here, on its shard's books, and it never enters the queue. The tick
  // above has already read its timestamp.
  if (!config_.monitor.reconstruction.is_service(view.host)) {
    // order: relaxed — independent counter; stats() reads it as a snapshot
    shard.ingest_side.filtered.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
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
  // order: release — pairs with stats()' acquire load of `dropped`, so a
  // snapshot that counts this shed record also sees its records_in
  // increment above
  shard.ingest_side.dropped.fetch_add(1, std::memory_order_release);
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
                            std::uint64_t records, std::uint64_t monitor_ns) {
  auto verdicts = shard.monitor.take_verdicts();
  const core::OnlineMonitor& monitor = shard.monitor;
  const core::MutexLock lock(shard.out_mutex);
  shard.out.insert(shard.out.end(), std::make_move_iterator(done.begin()),
                   std::make_move_iterator(done.end()));
  shard.out_verdicts.insert(shard.out_verdicts.end(),
                            std::make_move_iterator(verdicts.begin()),
                            std::make_move_iterator(verdicts.end()));
  ShardStats& p = shard.published;
  p.records_out += records;
  p.ingest_ns += monitor_ns;
  p.sessions_reported = monitor.sessions_reported();
  p.sessions_discarded = monitor.sessions_discarded();
  p.sessions_evicted = monitor.sessions_evicted();
  p.windows_emitted = monitor.windows_closed();
  p.verdicts_emitted = monitor.verdicts_emitted();
  p.live_sessions = monitor.open_sessions();
  p.arena_bytes_in_use = monitor.arena().bytes_in_use();
  p.arena_high_water = monitor.arena().high_water();
  p.model_generation = monitor.model_generation();
  if (shard.lifecycle != nullptr) {
    p.drift_distance = shard.lifecycle->drift().distance();
    p.shadow_scored = shard.lifecycle->shadow().stats().scored();
    p.shadow_disagreements = shard.lifecycle->shadow().stats().disagreements;
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
        const auto monitor_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - t0)
                .count();
        publish(shard, std::move(done), 1,
                static_cast<std::uint64_t>(monitor_ns));
        break;
      }
      case Item::Kind::watermark:
        publish(shard, shard.monitor.advance_to(item.watermark_s));
        break;
      case Item::Kind::swap:
        // Applied in queue order: every record pushed before the swap is
        // scored by the old model, everything after by the new one.
        shard.monitor.swap_pipeline(std::move(item.model));
        publish(shard, {});
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
    {
      const core::MutexLock lock(shard->out_mutex);
      s = shard->published;
    }
    // Read order matters: the worker's copy first, the ingest side after.
    // A record counted in records_out was popped after its records_in
    // increment, and the lock orders this read after that pop, so the
    // records_in load below sees the increment; the acquire on `dropped`
    // does the same for a shed record. Reading the ingest side first
    // could count a record out that it never counted in.
    // order: acquire — pairs with ingest()'s release on a shed record
    s.dropped = shard->ingest_side.dropped.load(std::memory_order_acquire);
    // A host-filtered record was routed to the shard and handled there.
    // order: relaxed for the three loads below — the lock and the acquire
    // above already order them after everything they must cover
    const std::uint64_t filtered =
        shard->ingest_side.filtered.load(std::memory_order_relaxed);  // order: see above
    s.records_in =
        shard->ingest_side.records_in.load(std::memory_order_relaxed) +  // order: see above
        filtered;
    s.records_out += filtered;
    s.queue_peak = shard->ingest_side.queue_peak.load(std::memory_order_relaxed);  // order: see above
    s.queue_depth = shard->queue.size();
    total.shards.push_back(s);
  }
  for_each_counter([&total](std::string_view, auto ShardStats::*field,
                            Merge merge) {
    auto& folded = total.*field;
    folded = total.shards.front().*field;
    for (std::size_t i = 1; i < total.shards.size(); ++i) {
      const auto v = total.shards[i].*field;
      switch (merge) {
        case Merge::sum: folded += v; break;
        case Merge::max: folded = std::max(folded, v); break;
        case Merge::min: folded = std::min(folded, v); break;
      }
    }
  });
  if (total.shadow_scored != 0) {
    total.shadow_divergence = static_cast<double>(total.shadow_disagreements) /
                              static_cast<double>(total.shadow_scored);
  }
  return total;
}

}  // namespace vqoe::engine
