#include "vqoe/engine/status_json.h"

#include <cinttypes>
#include <cstdio>
#include <type_traits>

namespace vqoe::engine {

namespace {

/// Appends `,"key":value` (no comma before the first field). Integers print
/// exactly; doubles print with %.17g, which round-trips every finite double
/// exactly (and JSON has no non-finite literals, so those degrade to 0 —
/// the stats never produce them, but a formatter must not emit invalid
/// JSON either way).
template <typename T>
void append(std::string& out, const char* key, T value) {
  char buf[96];
  const char* comma = out.size() > 1 ? "," : "";
  if constexpr (std::is_floating_point_v<T>) {
    double v = value;
    if (v != v || v - v != 0.0) v = 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", comma, key, v);
  } else {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, comma, key,
                  static_cast<std::uint64_t>(value));
  }
  out += buf;
}

}  // namespace

std::string status_json(const EngineStats& stats, const StatusExtras& extras) {
  std::string out;
  out.reserve(768);
  out += '{';
  append(out, "records_merged", extras.records_merged);
  append(out, "elapsed_s", extras.elapsed_s);
  for_each_counter([&](const char* name, auto ShardStats::*field, Merge) {
    append(out, name, stats.*field);
  });
  append(out, "shards", stats.shards.size());
  append(out, "shadow_divergence", stats.shadow_divergence);
  out += '}';
  return out;
}

}  // namespace vqoe::engine
