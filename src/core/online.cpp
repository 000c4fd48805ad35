#include "vqoe/core/online.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace vqoe::core {

OnlineMonitor::OnlineMonitor(const QoePipeline& pipeline,
                             OnlineMonitorConfig config)
    // Non-owning aliasing shared_ptr: the borrowed-reference contract of
    // this ctor is unchanged — the caller keeps the pipeline alive.
    : OnlineMonitor(std::shared_ptr<const QoePipeline>(
                        std::shared_ptr<const QoePipeline>{}, &pipeline),
                    config) {}

OnlineMonitor::OnlineMonitor(std::shared_ptr<const QoePipeline> pipeline,
                             OnlineMonitorConfig config)
    : pipeline_(std::move(pipeline)),
      config_(config),
      open_(0, TransparentStringHash{}, TransparentStringEq{},
            mem::ArenaAllocator<std::pair<const mem::ArenaString, OpenSession>>(
                arena_)) {
  if (!pipeline_) {
    throw std::invalid_argument{"OnlineMonitor: null pipeline"};
  }
  compile_plan();
}

void OnlineMonitor::compile_plan() {
  plan_ = pipeline_->feature_plan();
  const QoePipeline* shadow =
      config_.observer != nullptr ? config_.observer->shadow_pipeline() : nullptr;
  if (shadow != nullptr) plan_ |= shadow->feature_plan();
}

void OnlineMonitor::swap_pipeline(std::shared_ptr<const QoePipeline> next) {
  if (!next) {
    throw std::invalid_argument{"OnlineMonitor::swap_pipeline: null pipeline"};
  }
  pipeline_ = std::move(next);
  compile_plan();
  ++generation_;
  if (config_.observer != nullptr) config_.observer->on_model_swap(generation_);
}

void OnlineMonitor::lru_unlink(OpenSession& session) {
  if (session.lru_prev != nullptr) {
    session.lru_prev->lru_next = session.lru_next;
  } else if (lru_head_ == &session) {
    lru_head_ = session.lru_next;
  }
  if (session.lru_next != nullptr) {
    session.lru_next->lru_prev = session.lru_prev;
  } else if (lru_tail_ == &session) {
    lru_tail_ = session.lru_prev;
  }
  session.lru_prev = nullptr;
  session.lru_next = nullptr;
}

void OnlineMonitor::lru_push_back(OpenSession& session) {
  session.lru_prev = lru_tail_;
  session.lru_next = nullptr;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = &session;
  } else {
    lru_head_ = &session;
  }
  lru_tail_ = &session;
}

void OnlineMonitor::lru_touch(OpenSession& session) {
  if (lru_tail_ == &session) return;
  lru_unlink(session);
  lru_push_back(session);
}

void OnlineMonitor::evict_over_ceiling(const OpenSession* keep,
                                       std::vector<CompletedSession>& out) {
  if (config_.mem_ceiling_bytes == 0) return;
  // The soft ceiling: close coldest sessions through the normal path until
  // occupancy fits. The record's own session is never a victim (its state
  // is what the record is about to extend), so a lone session larger than
  // the ceiling is allowed to exceed it — the alternative is losing the
  // stream's active work.
  while (arena_.bytes_in_use() > config_.mem_ceiling_bytes) {
    OpenSession* victim = lru_head_;
    if (victim == keep) victim = victim->lru_next;
    if (victim == nullptr) return;  // nothing evictable remains
    ++evicted_;
    close(victim->key, out);
  }
}

void OnlineMonitor::score_closed_windows(const OpenSession& session) {
  // The chunks of a closed window are the log entries its membership test
  // (SessionWindows::locate) places inside it. Chunks are appended in
  // non-decreasing request-time order, so the log splits into three runs
  // per window (before, inside, past) and two binary searches find the
  // span. It is final: a regular window only closed because the stream
  // clock passed its end, so every future chunk lies past it, and a final
  // window's nominal end lies beyond the session's last activity.
  const auto log_size = static_cast<std::uint32_t>(session.chunks.size());
  // The first log position in [lo, log_size) beyond `side` of window
  // `index`.
  const auto beyond = [&session, log_size](std::uint32_t lo,
                                           std::uint64_t index,
                                           window::Side side) {
    std::uint32_t hi = log_size;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (session.windows.locate(index, session.chunks[mid].request_time_s) <=
          side) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  for (const window::ClosedWindow& closed : closed_scratch_) {
    ++windows_closed_;
    const std::uint32_t begin_chunk =
        beyond(0, closed.index, window::Side::kBefore);
    const std::uint32_t end_chunk =
        beyond(begin_chunk, closed.index, window::Side::kInside);
    if (begin_chunk == end_chunk ||
        end_chunk - begin_chunk < config_.window.min_chunks) {
      continue;
    }
    const std::span<const ChunkObs> span =
        session.chunks.view(begin_chunk, end_chunk, span_scratch_);
    const QoePipeline::ScoredReport scored =
        pipeline_->assess_scored(span, scratch_, nullptr, &plan_);
    window::WindowSummary summary;
    for (const ChunkObs& chunk : span) {
      summary.add(chunk.request_time_s, chunk.arrival_time_s, chunk.size_bytes);
    }

    window::WindowVerdict verdict;
    verdict.subscriber_id = std::string(session.key);
    verdict.window_index = closed.index;
    verdict.start_s = closed.start_s;
    verdict.end_s = closed.end_s;
    verdict.chunk_count = static_cast<std::uint32_t>(span.size());
    verdict.final_window = closed.final_window;
    verdict.stall = static_cast<std::uint8_t>(scored.report.stall);
    verdict.representation =
        static_cast<std::uint8_t>(scored.report.representation);
    verdict.quality_switches = scored.report.quality_switches;
    verdict.switch_score = scored.report.switch_score;
    verdict.stall_confidence = scored.stall_confidence;
    verdict.repr_confidence = scored.repr_confidence;
    verdict.window_cusum = summary.cusum_std();
    verdict.mean_goodput_kbps = summary.mean_goodput_kbps();
    if (config_.observer != nullptr) {
      config_.observer->on_window(session.key, span, scratch_.features,
                                  verdict);
    }
    verdicts_.push_back(std::move(verdict));
    ++verdicts_emitted_;
  }
  closed_scratch_.clear();
}

void OnlineMonitor::close_windows_due(OpenSession& session, double now_s) {
  if (!session.windows.enabled() || session.windows.in_flight() == 0) return;
  session.windows.close_due(now_s, closed_scratch_);
  if (!closed_scratch_.empty()) score_closed_windows(session);
}

void OnlineMonitor::close(std::string_view subscriber,
                          std::vector<CompletedSession>& out) {
  const auto it = open_.find(subscriber);
  if (it == open_.end()) return;
  OpenSession& session = it->second;
  lru_unlink(session);
  if (session.chunks.size() < config_.min_chunks || session.chunks.empty()) {
    ++discarded_;
    // Windows the session already closed were scored when they closed (a
    // live stream can't retract them); only the would-be final windows
    // vanish with the discarded session.
    open_.erase(it);
    return;
  }
  // Windows whose nominal end precedes the session end close as regular
  // windows; the rest are emitted truncated (final_window) so the tail of
  // the session is covered.
  if (session.windows.enabled()) {
    close_windows_due(session, session.last_activity_s);
    session.windows.close_all(session.last_activity_s, closed_scratch_);
    if (!closed_scratch_.empty()) score_closed_windows(session);
  }
  CompletedSession done;
  done.subscriber_id = std::string(session.key);
  done.start_time_s = session.start_time_s;
  done.end_time_s = session.last_activity_s;
  done.chunk_count = session.chunks.size();
  const std::span<const ChunkObs> span =
      session.chunks.view(0, session.chunks.size(), span_scratch_);
  done.report = pipeline_->assess_scored(span, scratch_, nullptr, &plan_).report;
  if (config_.observer != nullptr) {
    config_.observer->on_session(session.key, span, scratch_.features,
                                 done.report);
  }
  open_.erase(it);
  ++reported_;
  out.push_back(std::move(done));
}

std::vector<CompletedSession> OnlineMonitor::ingest(
    const trace::WeblogRecord& record) {
  std::vector<CompletedSession> completed;
  if (!config_.reconstruction.is_service(record.host)) return completed;

  auto it = open_.find(std::string_view(record.subscriber_id));
  session::ActivityClock clock =
      it != open_.end() ? it->second.clock : session::ActivityClock{};
  const session::Step step =
      session::step(clock, record.timestamp_s, &record, config_.reconstruction);
  if (step.split) close(record.subscriber_id, completed);
  if (step.opens) {
    it = open_
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(std::string_view(
                                                record.subscriber_id),
                                            mem::ArenaAllocator<char>(arena_)),
                      std::forward_as_tuple(arena_))
             .first;
    OpenSession& fresh = it->second;
    fresh.start_time_s = record.timestamp_s;
    fresh.last_activity_s = record.timestamp_s;
    fresh.windows.start(config_.window, record.timestamp_s);
    fresh.key = it->first;  // node-stable: views the map node's own key
    lru_push_back(fresh);
  }

  OpenSession& session = it->second;
  session.clock = clock;
  // Windows due at this record's time close *before* the record is added:
  // a record exactly at a window end closes that window and belongs to the
  // next one (half-open [start, end) windows).
  close_windows_due(session, record.timestamp_s);
  session.last_activity_s =
      std::max(session.last_activity_s, record.arrival_time_s());
  lru_touch(session);
  if (step.media) {
    ChunkObs chunk;
    chunk.request_time_s = record.timestamp_s;
    chunk.arrival_time_s = record.arrival_time_s();
    chunk.size_bytes = static_cast<double>(record.object_size_bytes);
    chunk.transport = record.transport;
    session.chunks.push_back(chunk);
    session.windows.add(chunk.request_time_s);
  }
  evict_over_ceiling(&session, completed);
  return completed;
}

std::vector<CompletedSession> OnlineMonitor::advance_to(double now_s) {
  std::vector<CompletedSession> completed;
  expired_scratch_.clear();
  for (auto& [subscriber, session] : open_) {
    close_windows_due(session, now_s);
    if (session::step(session.clock, now_s, nullptr, config_.reconstruction)
            .split) {
      // Views into map nodes: stable across the closes below (node-based
      // erase touches only the erased node).
      expired_scratch_.push_back(session.key);
    }
  }
  for (const std::string_view subscriber : expired_scratch_) {
    close(subscriber, completed);
  }
  expired_scratch_.clear();
  return completed;
}

std::vector<CompletedSession> OnlineMonitor::flush() {
  std::vector<CompletedSession> completed;
  expired_scratch_.clear();
  expired_scratch_.reserve(open_.size());
  for (const auto& [subscriber, session] : open_) {
    expired_scratch_.push_back(session.key);
  }
  for (const std::string_view subscriber : expired_scratch_) {
    close(subscriber, completed);
  }
  expired_scratch_.clear();
  return completed;
}

}  // namespace vqoe::core
