// Workloads, seeded feeds and the models they are scored with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "vqoe/core/online.h"
#include "vqoe/trace/weblog.h"

namespace livebench {

struct WorkloadSpec {
  std::string name;
  /// Video subscribers of the encrypted all-adaptive day.
  std::size_t subscribers = 64;
  /// Exact feed length (video plus background records).
  std::size_t records = 0;
  /// Share of the feed that is non-video background traffic.
  double background_share = 0.0;
  /// Probe connections; > 1 means pre-encoded frames multiplexed
  /// non-blocking from the generator thread.
  std::size_t connections = 1;
  /// Offered rate in records/s; 0 = unthrottled closed loop.
  double offered_rate = 0.0;
  /// 10 s tumbling windows (min_chunks = 2) on the engine's monitors.
  bool windows = false;
  /// Shadow model and drift tracking on the engine.
  bool lifecycle = false;
};

/// The named workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name);

/// Monitor configuration of a workload (shared by the engine's shards and
/// the sequential reference).
[[nodiscard]] vqoe::core::OnlineMonitorConfig monitor_config(
    const WorkloadSpec& spec);

struct Feed {
  std::vector<vqoe::trace::WeblogRecord> records;  ///< time-sorted
  std::vector<double> timestamps;                  ///< records[i].timestamp_s
  std::size_t video_records = 0;
};

/// Generates the workload's feed from `seed`: the same seed gives the same
/// records. Uses the vqoe::par pool (benchmark preparation, untimed).
[[nodiscard]] Feed make_feed(const WorkloadSpec& spec, std::uint64_t seed);

/// Saved model directories. Models are trained once per state directory
/// from fixed training seeds (benchmark preparation) and reloaded by every
/// pass through core::load_pipeline.
struct ModelDirs {
  std::filesystem::path active;
  std::filesystem::path shadow;
};
[[nodiscard]] ModelDirs ensure_models(const std::filesystem::path& state_dir);

/// One data frame's record range within a connection's partition.
struct FrameSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t byte_end = 0;  ///< offset just past the frame in `bytes`
};

/// A probe connection's full byte stream, pre-encoded: hello, data frames
/// of `batch` records, FIN. `positions` maps the connection's records to
/// feed positions.
struct EncodedStream {
  std::vector<std::uint8_t> bytes;
  std::size_t hello_bytes = 0;
  std::vector<FrameSpan> frames;
  std::vector<std::size_t> positions;
};
[[nodiscard]] std::vector<EncodedStream> encode_streams(const Feed& feed,
                                                        std::size_t connections,
                                                        std::size_t batch);

}  // namespace livebench
