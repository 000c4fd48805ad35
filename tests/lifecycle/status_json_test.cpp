// --status-json contract: one line, valid JSON, the keys are exactly the
// counter table's rows in order (engine.h for_each_counter), and every
// numeric field parses back to exactly the value the stats carried
// (doubles included — the emitter uses %.17g, which round-trips every
// finite double).
#include "vqoe/engine/status_json.h"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace vqoe::engine {
namespace {

/// Minimal flat-object JSON field extraction: finds "key": and parses the
/// numeric token after it with std::from_chars (no locale, full-string
/// discipline like the tools' own parsing).
double double_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << json;
  if (at == std::string::npos) return -1.0;
  const std::size_t start = at + needle.size();
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  double out = 0.0;
  const auto [ptr, ec] =
      std::from_chars(json.data() + start, json.data() + end, out);
  EXPECT_TRUE(ec == std::errc{} && ptr == json.data() + end)
      << "unparseable " << key << " in " << json;
  return out;
}

std::uint64_t u64_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << json;
  if (at == std::string::npos) return 0;
  const std::size_t start = at + needle.size();
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(json.data() + start, json.data() + end, out);
  EXPECT_TRUE(ec == std::errc{} && ptr == json.data() + end)
      << "unparseable " << key << " in " << json;
  return out;
}

/// Every key of a flat JSON object, in emission order.
std::vector<std::string> keys_of(const std::string& json) {
  std::vector<std::string> keys;
  for (std::size_t at = json.find('"'); at != std::string::npos;
       at = json.find('"', at)) {
    const std::size_t close = json.find('"', at + 1);
    keys.push_back(json.substr(at + 1, close - at - 1));
    at = close + 1;
  }
  return keys;
}

/// Every counter of the table set to its own value: integers past 2^32 (a
/// 32-bit truncation shows), doubles not exactly representable (so only a
/// round-tripping format parses them back bit for bit).
EngineStats sample_stats() {
  EngineStats stats;
  std::uint64_t row = 0;
  for_each_counter([&](const char*, auto ShardStats::*field, Merge) {
    ++row;
    auto& value = stats.*field;
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(value)>>) {
      value = 0.1 * static_cast<double>(row);
    } else {
      value = (std::uint64_t{1} << 33) + 1000 * row + 7;
    }
  });
  stats.shadow_divergence = 1.0 / 3.0;
  stats.shards.resize(4);
  return stats;
}

TEST(StatusJsonTest, OneLineBracedObject) {
  const std::string json = status_json(sample_stats(), {77, 1.5});
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(StatusJsonTest, EveryFieldParsesBackExactly) {
  const EngineStats stats = sample_stats();
  const StatusExtras extras{77, 1.5};
  const std::string json = status_json(stats, extras);

  EXPECT_EQ(u64_field(json, "records_merged"), extras.records_merged);
  EXPECT_EQ(double_field(json, "elapsed_s"), extras.elapsed_s);
  for_each_counter([&](const char* name, auto ShardStats::*field, Merge) {
    const auto value = stats.*field;
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      // Bit equality is the point: %.17g round-trips every finite double.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(double_field(json, name)),
                std::bit_cast<std::uint64_t>(value))
          << name;
    } else {
      EXPECT_EQ(u64_field(json, name), value) << name;
    }
  });
  EXPECT_EQ(u64_field(json, "shards"), stats.shards.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(double_field(json, "shadow_divergence")),
            std::bit_cast<std::uint64_t>(stats.shadow_divergence));
}

TEST(StatusJsonTest, KeysAreTheCounterTableInOrder) {
  // The schema, pinned: adding, renaming, removing or reordering a counter
  // changes this list, so it shows up as a reviewed diff.
  const std::vector<std::string> golden = {
      "records_merged",     "elapsed_s",          "records_in",
      "records_out",        "dropped",            "sessions_reported",
      "sessions_discarded", "sessions_evicted",   "windows_emitted",
      "verdicts_emitted",   "live_sessions",      "arena_bytes_in_use",
      "arena_high_water",   "ingest_ns",          "queue_depth",
      "queue_peak",         "drift_distance",     "shadow_scored",
      "shadow_disagreements", "model_generation", "shards",
      "shadow_divergence"};
  EXPECT_EQ(keys_of(status_json(sample_stats(), {77, 1.5})), golden);
  EXPECT_EQ(keys_of(status_json(EngineStats{})), golden);
}

TEST(StatusJsonTest, DefaultExtrasAndEmptyStats) {
  const std::string json = status_json(EngineStats{});
  EXPECT_EQ(u64_field(json, "records_merged"), 0u);
  EXPECT_EQ(u64_field(json, "shards"), 0u);
  EXPECT_EQ(double_field(json, "drift_distance"), 0.0);
}

TEST(StatusJsonTest, NonFiniteDoublesDegradeToValidJson) {
  EngineStats stats;
  stats.drift_distance = std::numeric_limits<double>::quiet_NaN();
  stats.shadow_divergence = std::numeric_limits<double>::infinity();
  const std::string json = status_json(stats);
  EXPECT_EQ(double_field(json, "drift_distance"), 0.0);
  EXPECT_EQ(double_field(json, "shadow_divergence"), 0.0);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace vqoe::engine
