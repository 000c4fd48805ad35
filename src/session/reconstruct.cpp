#include "vqoe/session/reconstruct.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace vqoe::session {

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool ReconstructionOptions::is_cdn(const std::string& host) const {
  for (const std::string& suffix : cdn_suffixes) {
    if (ends_with(host, suffix)) return true;
  }
  return false;
}

bool ReconstructionOptions::is_page_marker(const std::string& host) const {
  for (const std::string& marker : page_marker_hosts) {
    if (host == marker) return true;
  }
  return false;
}

bool ReconstructionOptions::is_service(std::string_view host) const {
  for (const std::string& suffix : service_suffixes) {
    if (ends_with(host, suffix)) return true;
  }
  return false;
}

bool is_video_cdn_host(const std::string& host) {
  return ends_with(host, "googlevideo.com");
}

bool is_page_marker_host(const std::string& host) {
  return host == "m.youtube.com" || host == "i.ytimg.com" ||
         host == "www.youtube.com" || ends_with(host, ".ytimg.com");
}

bool is_youtube_host(const std::string& host) {
  return is_video_cdn_host(host) || is_page_marker_host(host) ||
         ends_with(host, "youtube.com");
}

std::vector<ReconstructedSession> reconstruct(
    std::span<const trace::WeblogRecord> records,
    const ReconstructionOptions& options) {
  // Step 1: per-subscriber service traffic, time-ordered.
  std::map<std::string, std::vector<const trace::WeblogRecord*>> by_subscriber;
  for (const trace::WeblogRecord& r : records) {
    if (!options.is_service(r.host)) continue;
    by_subscriber[r.subscriber_id].push_back(&r);
  }

  std::vector<ReconstructedSession> sessions;
  for (auto& [subscriber, recs] : by_subscriber) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const trace::WeblogRecord* a, const trace::WeblogRecord* b) {
                       return a->timestamp_s < b->timestamp_s;
                     });

    ReconstructedSession current;
    ActivityClock clock;
    auto emit = [&]() {
      if (!current.media.empty()) sessions.push_back(std::move(current));
    };

    for (const trace::WeblogRecord* r : recs) {
      const Step s = step(clock, r->timestamp_s, r, options);
      if (s.split) emit();
      if (s.opens) {
        current = ReconstructedSession{};
        current.subscriber_id = subscriber;
        current.start_time_s = r->timestamp_s;
      }
      current.end_time_s = std::max(current.end_time_s, r->arrival_time_s());
      if (s.media) {
        current.media.push_back(*r);
      } else {
        current.page_object_count++;
      }
    }
    emit();
  }

  std::stable_sort(sessions.begin(), sessions.end(),
                   [](const ReconstructedSession& a, const ReconstructedSession& b) {
                     if (a.subscriber_id != b.subscriber_id) {
                       return a.subscriber_id < b.subscriber_id;
                     }
                     return a.start_time_s < b.start_time_s;
                   });
  return sessions;
}

std::vector<std::optional<std::size_t>> match_ground_truth(
    std::span<const ReconstructedSession> sessions,
    std::span<const trace::SessionGroundTruth> truths, double tolerance_s) {
  std::vector<std::optional<std::size_t>> matches(sessions.size());
  std::vector<char> used(truths.size(), 0);
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const double media_start = sessions[s].media.empty()
                                   ? sessions[s].start_time_s
                                   : sessions[s].media.front().timestamp_s;
    double best_dist = tolerance_s;
    std::size_t best = truths.size();
    for (std::size_t t = 0; t < truths.size(); ++t) {
      if (used[t] || truths[t].subscriber_id != sessions[s].subscriber_id) {
        continue;
      }
      const double dist = std::abs(truths[t].start_time_s - media_start);
      if (dist <= best_dist) {
        best_dist = dist;
        best = t;
      }
    }
    if (best < truths.size()) {
      used[best] = 1;
      matches[s] = best;
    }
  }
  return matches;
}

double reconstruction_accuracy(std::span<const ReconstructedSession> sessions,
                               std::span<const trace::SessionGroundTruth> truths,
                               double tolerance_s) {
  if (truths.empty()) return 0.0;
  const auto matches = match_ground_truth(sessions, truths, tolerance_s);
  std::size_t exact = 0;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    if (!matches[s]) continue;
    const auto& truth = truths[*matches[s]];
    if (sessions[s].media.size() == truth.media_chunk_count) ++exact;
  }
  return static_cast<double>(exact) / static_cast<double>(truths.size());
}

}  // namespace vqoe::session
