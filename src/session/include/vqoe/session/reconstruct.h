// Encrypted video-session reconstruction.
//
// With TLS the per-session URI identifier is gone, so Section 5.2 rebuilds
// session boundaries from what still leaks: the server identity (SNI/DNS),
// the page-load pattern that brackets every watch (requests to
// m.youtube.com and i.ytimg.com when the watch page is constructed), and
// idle gaps between consecutive sessions. The reconstructor below follows
// the paper's three steps:
//
//  1. keep one subscriber's YouTube traffic (domain filter),
//  2. split on watch-page marker bursts that appear after media traffic,
//  3. split on long silent gaps.
//
// Steps 2 and 3 live in one function, step(), which the batch reconstructor
// and the streaming core::OnlineMonitor both call, so the two draw the same
// boundaries. A timestamp/chunk-count join against instrumented-client
// ground truth (the paper's Section 5.2 dataset merge) is provided for
// evaluation.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "vqoe/trace/weblog.h"

namespace vqoe::session {

struct ReconstructionOptions {
  /// Traffic silence (seconds) interpreted as a session boundary.
  double idle_gap_s = 30.0;
  /// Split when a watch-page marker appears after media traffic in the
  /// current candidate session.
  bool use_page_markers = true;
  /// Objects at least this large on a video CDN host count as media chunks
  /// (filters out range probes and keep-alives; recovery chunks after a
  /// stall can be only a few kilobytes, so the floor must stay low).
  std::uint64_t min_media_bytes = 2'000;

  /// Host classification — defaults are the YouTube names of the paper;
  /// override for other services (workload::ServiceTraits provides them).
  std::vector<std::string> cdn_suffixes{"googlevideo.com"};
  std::vector<std::string> page_marker_hosts{"m.youtube.com"};
  std::vector<std::string> service_suffixes{"googlevideo.com", "youtube.com",
                                            "ytimg.com"};

  [[nodiscard]] bool is_cdn(const std::string& host) const;
  [[nodiscard]] bool is_page_marker(const std::string& host) const;
  /// Step 1's filter: a record on no service host is not the monitor's.
  /// The engine's router asks it of the wire view before copying the
  /// record into a shard queue; the monitor asks it again on ingest.
  [[nodiscard]] bool is_service(std::string_view host) const;
};

/// One recovered session: boundaries plus the media records inside them.
struct ReconstructedSession {
  std::string subscriber_id;
  double start_time_s = 0.0;
  double end_time_s = 0.0;
  std::vector<trace::WeblogRecord> media;  ///< chronological media chunks
  std::size_t page_object_count = 0;
};

/// One subscriber's Section 5.2 state between events.
struct ActivityClock {
  /// The subscriber's last activity: the latest arrival of any of its
  /// service records. A watch-page split carries it into the next session,
  /// because a download still in flight means the subscriber was not
  /// silent: the idle gap is measured from it, not from the first record
  /// of the session the split opened.
  double last_activity_s = 0.0;
  bool open = false;       ///< a session is open
  bool saw_media = false;  ///< the open session holds a media chunk
};

/// What step() made of one event.
struct Step {
  bool media = false;  ///< the record is a media chunk
  bool split = false;  ///< the event ends the open session
  bool opens = false;  ///< the record opens a session (after a split too)
};

/// Section 5.2 for one event on a subscriber's time-ordered stream of
/// service records: `record` at `now_s` (its timestamp), or a clock tick at
/// `now_s` when `record` is null. Classifies the record by host and size
/// only: media is a CDN host at >= min_media_bytes, a marker is the watch
/// page. Then decides whether the event ends the open session: step 3, a
/// silence longer than idle_gap_s since the subscriber's last activity, and
/// step 2, a watch page after media. A record is then folded into `clock`;
/// a tick leaves it as it was. Inline because the online monitor runs it
/// for every open session on every clock tick.
[[nodiscard]] inline Step step(ActivityClock& clock, double now_s,
                               const trace::WeblogRecord* record,
                               const ReconstructionOptions& options) {
  Step s;
  // Host-only classification: no cleartext metadata. The watch page marks
  // a new session; thumbnail hosts also load while browsing, so only the
  // page itself is a reliable marker.
  bool marker = false;
  if (record != nullptr) {
    s.media = options.is_cdn(record->host) &&
              record->object_size_bytes >= options.min_media_bytes;
    marker = options.use_page_markers && options.is_page_marker(record->host);
  }
  // Step 3: long silence terminates the session. Step 2: a new watch page
  // while media was flowing -> next video.
  s.split = clock.open && (now_s - clock.last_activity_s > options.idle_gap_s ||
                           (marker && clock.saw_media));
  if (record == nullptr) return s;
  s.opens = s.split || !clock.open;
  const double arrival = record->arrival_time_s();
  clock.last_activity_s =
      clock.open ? std::max(clock.last_activity_s, arrival) : arrival;
  clock.open = true;
  clock.saw_media = (clock.saw_media && !s.opens) || s.media;
  return s;
}

/// Host classification from the names that survive encryption — YouTube
/// defaults (other services: use ReconstructionOptions::is_* with the
/// service's host lists).
[[nodiscard]] bool is_youtube_host(const std::string& host);
[[nodiscard]] bool is_video_cdn_host(const std::string& host);   // googlevideo
[[nodiscard]] bool is_page_marker_host(const std::string& host); // m.youtube/i.ytimg

/// Rebuilds sessions from a mixed multi-subscriber encrypted log. Records
/// are classified by host only (no cleartext metadata is consulted).
/// Returned sessions are ordered by subscriber, then by start time.
[[nodiscard]] std::vector<ReconstructedSession> reconstruct(
    std::span<const trace::WeblogRecord> records,
    const ReconstructionOptions& options = {});

/// Evaluation join: matches each reconstructed session to the ground-truth
/// entry whose media start lies within `tolerance_s` and whose subscriber
/// matches, preferring the closest start. Each truth entry is used at most
/// once. Returns, per reconstructed session, the index into `truths` or
/// nullopt.
[[nodiscard]] std::vector<std::optional<std::size_t>> match_ground_truth(
    std::span<const ReconstructedSession> sessions,
    std::span<const trace::SessionGroundTruth> truths, double tolerance_s = 10.0);

/// Reconstruction quality: fraction of ground-truth sessions recovered with
/// exactly the right media chunk count (the paper reports that "the vast
/// majority" of sessions were identified).
[[nodiscard]] double reconstruction_accuracy(
    std::span<const ReconstructedSession> sessions,
    std::span<const trace::SessionGroundTruth> truths, double tolerance_s = 10.0);

}  // namespace vqoe::session
