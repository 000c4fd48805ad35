// Proxy weblog records — the operator's view of video traffic.
//
// Section 3.1: the web proxy registers every HTTP transaction with IP-port
// tuples, URIs, object sizes, transaction times and request timestamps, each
// annotated with transport-layer metrics (RTT min/avg/max, BDP,
// bytes-in-flight, loss, retransmissions). For cleartext sessions the URI
// carries metadata (session ID, itag resolution, content type, playback
// reports); for encrypted sessions only the transport view and the server
// identity survive (Section 5.2).
//
// This header defines that record, the conversion from a simulated
// sim::SessionResult into the records a proxy would log (media chunks, the
// page-load objects to m.youtube.com / i.ytimg.com that bracket a session,
// and periodic playback statistics reports), and the encryption transform
// that strips everything an operator loses under TLS.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "vqoe/net/tcp.h"
#include "vqoe/sim/player.h"

namespace vqoe::trace {

/// HTTP transaction categories a YouTube session generates.
enum class RecordKind : std::uint8_t {
  media,            ///< video/audio segment download (googlevideo.com)
  page_object,      ///< watch-page HTML/scripts/thumbnails (m.youtube.com, i.ytimg.com)
  playback_report,  ///< periodic player statistics beacon
};

/// One proxy log line.
struct WeblogRecord {
  std::string subscriber_id;
  double timestamp_s = 0.0;        ///< absolute request time
  double transaction_time_s = 0.0; ///< request -> last byte
  std::uint64_t object_size_bytes = 0;
  std::string host;
  RecordKind kind = RecordKind::media;
  bool encrypted = false;
  bool served_from_cache = false;  ///< proxy cache hit (dropped in data prep)
  net::TransportStats transport;

  // --- URI metadata, cleartext only (cleared by encrypt_view) ---
  std::string session_id;  ///< 16-char per-session hash ("cpn" parameter)
  int itag_height = 0;     ///< segment resolution from the itag; 0 if n/a
  bool is_audio = false;
  int report_stall_count = 0;           ///< playback_report payload
  double report_stall_duration_s = 0.0; ///< playback_report payload

  /// Arrival time of the object's last byte ("chunk time", Section 3.1).
  [[nodiscard]] double arrival_time_s() const {
    return timestamp_s + transaction_time_s;
  }
};

/// Non-owning view of a WeblogRecord — the zero-copy decode target of the
/// wire transport. String fields are string_views into whoever produced the
/// view (a socket buffer slab, an owned record); everything else travels by
/// value. A view is valid only as long as its backing bytes are, so it is a
/// hand-off type: consumers either read it during the call that delivers it
/// or materialize it with assign_to().
struct WeblogRecordView {
  std::string_view subscriber_id;
  double timestamp_s = 0.0;
  double transaction_time_s = 0.0;
  std::uint64_t object_size_bytes = 0;
  std::string_view host;
  RecordKind kind = RecordKind::media;
  bool encrypted = false;
  bool served_from_cache = false;
  net::TransportStats transport;
  std::string_view session_id;
  int itag_height = 0;
  bool is_audio = false;
  int report_stall_count = 0;
  double report_stall_duration_s = 0.0;

  [[nodiscard]] double arrival_time_s() const {
    return timestamp_s + transaction_time_s;
  }

  /// Materializes the view into `out`, overwriting every field. Assigning
  /// into an existing record (instead of constructing a fresh one) lets a
  /// hot path reuse the string capacity already sitting in `out` — the
  /// engine's ring slots and the collector's tee buffer both lean on this.
  void assign_to(WeblogRecord& out) const {
    out.subscriber_id.assign(subscriber_id);
    out.timestamp_s = timestamp_s;
    out.transaction_time_s = transaction_time_s;
    out.object_size_bytes = object_size_bytes;
    out.host.assign(host);
    out.kind = kind;
    out.encrypted = encrypted;
    out.served_from_cache = served_from_cache;
    out.transport = transport;
    out.session_id.assign(session_id);
    out.itag_height = itag_height;
    out.is_audio = is_audio;
    out.report_stall_count = report_stall_count;
    out.report_stall_duration_s = report_stall_duration_s;
  }

  [[nodiscard]] WeblogRecord materialize() const {
    WeblogRecord r;
    assign_to(r);
    return r;
  }

  /// A view over an owned record (the copy-decode fallback path and tests
  /// share the view-based plumbing this way). `r` must outlive the view.
  [[nodiscard]] static WeblogRecordView of(const WeblogRecord& r) {
    WeblogRecordView v;
    v.subscriber_id = r.subscriber_id;
    v.timestamp_s = r.timestamp_s;
    v.transaction_time_s = r.transaction_time_s;
    v.object_size_bytes = r.object_size_bytes;
    v.host = r.host;
    v.kind = r.kind;
    v.encrypted = r.encrypted;
    v.served_from_cache = r.served_from_cache;
    v.transport = r.transport;
    v.session_id = r.session_id;
    v.itag_height = r.itag_height;
    v.is_audio = r.is_audio;
    v.report_stall_count = r.report_stall_count;
    v.report_stall_duration_s = r.report_stall_duration_s;
    return v;
  }
};

/// Stable partition of subscribers into `buckets` groups: 64-bit FNV-1a
/// over the id's bytes, modulo the bucket count (0 is treated as 1). It
/// does not depend on the standard library's std::hash, so a subscriber
/// lands on the same probe (wire::probe_of_subscriber) and the same engine
/// shard (engine::ShardRouter) in every build.
[[nodiscard]] constexpr std::size_t subscriber_bucket(
    std::string_view subscriber, std::size_t buckets) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char ch : subscriber) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % (buckets ? buckets : 1));
}

/// Per-session ground truth as the instrumented client of Section 5.1
/// records it (and as URI metadata encodes it for cleartext sessions).
struct SessionGroundTruth {
  std::string session_id;
  std::string subscriber_id;
  double start_time_s = 0.0;
  double total_duration_s = 0.0;
  double startup_delay_s = 0.0;  ///< request -> playback start (initial delay)
  bool adaptive = true;
  bool abandoned = false;
  std::size_t media_chunk_count = 0;
  int stall_count = 0;
  double stall_duration_s = 0.0;
  double rebuffering_ratio = 0.0;
  double average_height = 0.0;
  std::size_t switch_count = 0;
  double switch_amplitude = 0.0;
};

/// Generates a YouTube-style 16-character alphanumeric session ID.
[[nodiscard]] std::string make_session_id(std::mt19937_64& rng);

/// Options for rendering a simulated session into proxy logs.
struct WeblogOptions {
  std::string subscriber_id = "sub-0";
  std::string session_id;        ///< empty: generated
  double start_time_s = 0.0;     ///< absolute time of the first page request
  double report_interval_s = 20; ///< playback statistics beacon period
  int page_objects = 4;          ///< watch-page objects before the media
  double cache_hit_rate = 0.0;   ///< fraction of page objects served from cache
  /// Service host names (YouTube defaults; other services override —
  /// workload::ServiceTraits carries a matching set).
  std::string cdn_host = "r3---sn-h5q7dne7.googlevideo.com";
  std::string page_host = "m.youtube.com";
  std::string thumbnail_host = "i.ytimg.com";
  std::string report_host = "www.youtube.com";
};

/// Renders one simulated session into the full set of proxy records:
/// page-load objects, media chunks (with ground-truth URI metadata) and
/// playback reports. Records are sorted by timestamp. Also returns the
/// session's ground truth.
struct RenderedSession {
  std::vector<WeblogRecord> records;
  SessionGroundTruth truth;
};
[[nodiscard]] RenderedSession to_weblogs(const sim::SessionResult& session,
                                         const WeblogOptions& options,
                                         std::mt19937_64& rng);

/// The TLS transform: marks records encrypted and clears every URI-derived
/// field (session ID, itag, content type, report payloads). Transport
/// metrics, sizes and timing survive — exactly the paper's encrypted view.
[[nodiscard]] std::vector<WeblogRecord> encrypt_view(std::vector<WeblogRecord> records);

/// Data preparation (Section 3.3): drops records served from the proxy
/// cache; they do not reflect end-to-end delivery.
[[nodiscard]] std::vector<WeblogRecord> remove_cached(std::vector<WeblogRecord> records);

/// Groups *cleartext* media records by their URI session ID — the paper's
/// grouping step for the training corpus. Non-media and encrypted records
/// are ignored. Chunks within each group are sorted by timestamp.
[[nodiscard]] std::map<std::string, std::vector<WeblogRecord>> group_by_session_id(
    const std::vector<WeblogRecord>& records);

}  // namespace vqoe::trace
