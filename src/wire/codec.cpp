#include "vqoe/wire/codec.h"

#include <bit>
#include <cstring>

namespace vqoe::wire {
namespace {

// Record flag byte (version 1). Unknown bits are a decode error: a flag we
// do not understand means a format we do not speak, and carrying on would
// misparse everything after it.
constexpr std::uint8_t kFlagEncrypted = 1u << 0;
constexpr std::uint8_t kFlagCached = 1u << 1;
constexpr std::uint8_t kFlagMetadata = 1u << 2;
constexpr std::uint8_t kKnownFlags = kFlagEncrypted | kFlagCached | kFlagMetadata;

// Metadata trailer flag byte.
constexpr std::uint8_t kMetaAudio = 1u << 0;
constexpr std::uint8_t kKnownMetaFlags = kMetaAudio;

constexpr std::uint8_t kMaxRecordKind =
    static_cast<std::uint8_t>(trace::RecordKind::playback_report);

void put_u64(std::uint64_t v, std::vector<std::uint8_t>& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_u64(const std::uint8_t* data, std::size_t size,
                      std::size_t& offset) {
  if (offset > size || size - offset < 8) {
    throw WireError{"truncated fixed64", offset};
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data[offset + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  offset += 8;
  return v;
}

void put_string(const std::string& s, std::vector<std::uint8_t>& out) {
  if (s.size() > kMaxStringBytes) {
    throw WireError{"string exceeds wire bound", out.size()};
  }
  put_varint(s.size(), out);
  out.insert(out.end(), s.begin(), s.end());
}

std::string_view get_string_view(const std::uint8_t* data, std::size_t size,
                                 std::size_t& offset) {
  const std::size_t at = offset;
  const std::uint64_t len = get_varint(data, size, offset);
  if (len > kMaxStringBytes) throw WireError{"string length out of bounds", at};
  if (len > size - offset) throw WireError{"truncated string", offset};
  const std::string_view s(reinterpret_cast<const char*>(data + offset),
                           static_cast<std::size_t>(len));
  offset += static_cast<std::size_t>(len);
  return s;
}

/// Non-negative int fields (itag height, report stall count) travel as
/// varints; negative values would be a record-construction bug, not a
/// representable state.
void put_nonneg(int v, const char* field, std::vector<std::uint8_t>& out) {
  if (v < 0) {
    throw WireError{std::string{"negative "} + field + " not encodable",
                    out.size()};
  }
  put_varint(static_cast<std::uint64_t>(v), out);
}

int get_nonneg_int(const std::uint8_t* data, std::size_t size,
                   std::size_t& offset, const char* field) {
  const std::size_t at = offset;
  const std::uint64_t v = get_varint(data, size, offset);
  if (v > static_cast<std::uint64_t>(INT32_MAX)) {
    throw WireError{std::string{field} + " out of int range", at};
  }
  return static_cast<int>(v);
}

[[nodiscard]] bool has_metadata(const trace::WeblogRecord& r) {
  return !r.session_id.empty() || r.itag_height != 0 || r.is_audio ||
         r.report_stall_count != 0 || r.report_stall_duration_s != 0.0;
}

void check_version(std::uint8_t version, std::size_t offset) {
  if (!version_supported(version)) {
    throw WireError{"unsupported wire version " + std::to_string(version),
                    offset};
  }
}

}  // namespace

void put_varint(std::uint64_t value, std::vector<std::uint8_t>& out) {
  while (value >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t get_varint(const std::uint8_t* data, std::size_t size,
                         std::size_t& offset) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (offset >= size) throw WireError{"truncated varint", offset};
    const std::uint8_t byte = data[offset++];
    const std::uint64_t low = byte & 0x7Fu;
    if (shift == 63 && low > 1) {
      throw WireError{"varint overflows 64 bits", offset - 1};
    }
    value |= low << shift;
    if (!(byte & 0x80u)) return value;
  }
  throw WireError{"varint longer than 10 bytes", offset};
}

void put_f64(double value, std::vector<std::uint8_t>& out) {
  put_u64(std::bit_cast<std::uint64_t>(value), out);
}

double get_f64(const std::uint8_t* data, std::size_t size,
               std::size_t& offset) {
  return std::bit_cast<double>(get_u64(data, size, offset));
}

void encode_record(const trace::WeblogRecord& record, std::uint8_t version,
                   std::vector<std::uint8_t>& out) {
  check_version(version, out.size());

  std::uint8_t flags = 0;
  if (record.encrypted) flags |= kFlagEncrypted;
  if (record.served_from_cache) flags |= kFlagCached;
  const bool meta = has_metadata(record);
  if (meta) flags |= kFlagMetadata;
  out.push_back(flags);

  const auto kind = static_cast<std::uint8_t>(record.kind);
  if (kind > kMaxRecordKind) {
    throw WireError{"record kind out of range", out.size()};
  }
  out.push_back(kind);

  put_string(record.subscriber_id, out);
  put_f64(record.timestamp_s, out);
  put_f64(record.transaction_time_s, out);
  put_varint(record.object_size_bytes, out);
  put_string(record.host, out);

  put_f64(record.transport.rtt_min_ms, out);
  put_f64(record.transport.rtt_avg_ms, out);
  put_f64(record.transport.rtt_max_ms, out);
  put_f64(record.transport.bdp_bytes, out);
  put_f64(record.transport.bif_avg_bytes, out);
  put_f64(record.transport.bif_max_bytes, out);
  put_f64(record.transport.loss_pct, out);
  put_f64(record.transport.retrans_pct, out);

  if (meta) {
    std::uint8_t meta_flags = 0;
    if (record.is_audio) meta_flags |= kMetaAudio;
    out.push_back(meta_flags);
    put_string(record.session_id, out);
    put_nonneg(record.itag_height, "itag_height", out);
    put_nonneg(record.report_stall_count, "report_stall_count", out);
    put_f64(record.report_stall_duration_s, out);
  }
}

void decode_record_view(const std::uint8_t* data, std::size_t size,
                        std::size_t& offset, std::uint8_t version,
                        trace::WeblogRecordView& out) {
  check_version(version, offset);
  if (offset >= size) throw WireError{"truncated record", offset};

  const std::uint8_t flags = data[offset++];
  if (flags & ~kKnownFlags) throw WireError{"unknown record flags", offset - 1};

  if (offset >= size) throw WireError{"truncated record kind", offset};
  const std::uint8_t kind = data[offset++];
  if (kind > kMaxRecordKind) {
    throw WireError{"record kind out of range", offset - 1};
  }

  trace::WeblogRecordView r;
  r.encrypted = (flags & kFlagEncrypted) != 0;
  r.served_from_cache = (flags & kFlagCached) != 0;
  r.kind = static_cast<trace::RecordKind>(kind);

  r.subscriber_id = get_string_view(data, size, offset);
  r.timestamp_s = get_f64(data, size, offset);
  r.transaction_time_s = get_f64(data, size, offset);
  r.object_size_bytes = get_varint(data, size, offset);
  r.host = get_string_view(data, size, offset);

  r.transport.rtt_min_ms = get_f64(data, size, offset);
  r.transport.rtt_avg_ms = get_f64(data, size, offset);
  r.transport.rtt_max_ms = get_f64(data, size, offset);
  r.transport.bdp_bytes = get_f64(data, size, offset);
  r.transport.bif_avg_bytes = get_f64(data, size, offset);
  r.transport.bif_max_bytes = get_f64(data, size, offset);
  r.transport.loss_pct = get_f64(data, size, offset);
  r.transport.retrans_pct = get_f64(data, size, offset);

  if (flags & kFlagMetadata) {
    if (offset >= size) throw WireError{"truncated metadata flags", offset};
    const std::uint8_t meta_flags = data[offset++];
    if (meta_flags & ~kKnownMetaFlags) {
      throw WireError{"unknown metadata flags", offset - 1};
    }
    r.is_audio = (meta_flags & kMetaAudio) != 0;
    r.session_id = get_string_view(data, size, offset);
    r.itag_height = get_nonneg_int(data, size, offset, "itag_height");
    r.report_stall_count =
        get_nonneg_int(data, size, offset, "report_stall_count");
    r.report_stall_duration_s = get_f64(data, size, offset);
  }
  out = r;
}

trace::WeblogRecord decode_record(const std::uint8_t* data, std::size_t size,
                                  std::size_t& offset, std::uint8_t version) {
  trace::WeblogRecordView view;
  decode_record_view(data, size, offset, version, view);
  return view.materialize();
}

void encode_batch(const trace::WeblogRecord* records, std::size_t count,
                  std::uint8_t version, std::vector<std::uint8_t>& out) {
  check_version(version, out.size());
  if (count > kMaxBatchRecords) {
    throw WireError{"batch exceeds record bound", out.size()};
  }
  put_varint(count, out);
  for (std::size_t i = 0; i < count; ++i) {
    encode_record(records[i], version, out);
  }
}

std::vector<trace::WeblogRecord> decode_batch(const std::uint8_t* data,
                                              std::size_t size,
                                              std::uint8_t version) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(data, size, offset);
  if (count > kMaxBatchRecords) {
    throw WireError{"batch record count out of bounds", 0};
  }
  std::vector<trace::WeblogRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    records.push_back(decode_record(data, size, offset, version));
  }
  if (offset != size) {
    throw WireError{"trailing bytes after batch", offset};
  }
  return records;
}

void decode_batch_views(const std::uint8_t* data, std::size_t size,
                        std::uint8_t version,
                        std::vector<trace::WeblogRecordView>& out) {
  out.clear();
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(data, size, offset);
  if (count > kMaxBatchRecords) {
    throw WireError{"batch record count out of bounds", 0};
  }
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    trace::WeblogRecordView view;
    decode_record_view(data, size, offset, version, view);
    out.push_back(view);
  }
  if (offset != size) {
    out.clear();  // reject the frame whole
    throw WireError{"trailing bytes after batch", offset};
  }
}

}  // namespace vqoe::wire
