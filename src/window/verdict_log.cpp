#include "vqoe/window/verdict_log.h"

#include <cstdint>

#include "vqoe/wire/codec.h"

namespace vqoe::window {
namespace {

using wire::get_f64;
using wire::get_varint;
using wire::put_f64;
using wire::put_varint;
using wire::WireError;

constexpr std::uint8_t kFlagFinalWindow = 1u << 0;
constexpr std::uint8_t kFlagSwitches = 1u << 1;
constexpr std::uint8_t kFlagMask = kFlagFinalWindow | kFlagSwitches;

// Subscriber ids in weblogs are short ("sub-123"); anything kilobytes long
// in a verdict frame is corruption, not data.
constexpr std::size_t kMaxSubscriberBytes = 4096;

std::uint8_t get_u8(const std::uint8_t* data, std::size_t size,
                    std::size_t& offset) {
  if (offset >= size) throw WireError{"truncated u8", offset};
  return data[offset++];
}

}  // namespace

void encode_verdicts(std::span<const WindowVerdict> verdicts,
                     std::vector<std::uint8_t>& out) {
  put_varint(verdicts.size(), out);
  for (const WindowVerdict& v : verdicts) {
    put_varint(v.subscriber_id.size(), out);
    out.insert(out.end(), v.subscriber_id.begin(), v.subscriber_id.end());
    put_varint(v.window_index, out);
    put_f64(v.start_s, out);
    put_f64(v.end_s, out);
    put_varint(v.chunk_count, out);
    std::uint8_t flags = 0;
    if (v.final_window) flags |= kFlagFinalWindow;
    if (v.quality_switches) flags |= kFlagSwitches;
    out.push_back(flags);
    out.push_back(v.stall);
    out.push_back(v.representation);
    put_f64(v.switch_score, out);
    put_f64(v.stall_confidence, out);
    put_f64(v.repr_confidence, out);
    put_f64(v.window_cusum, out);
    put_f64(v.mean_goodput_kbps, out);
  }
}

std::vector<WindowVerdict> decode_verdicts(const std::uint8_t* data,
                                           std::size_t size) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(data, size, offset);
  // Each verdict is at least ~50 bytes; a count beyond that is garbage and
  // must not drive a giant reserve.
  if (count > size) throw WireError{"verdict count exceeds payload", 0};
  std::vector<WindowVerdict> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    WindowVerdict v;
    const std::uint64_t sub_len = get_varint(data, size, offset);
    if (sub_len > kMaxSubscriberBytes || sub_len > size - offset) {
      throw WireError{"subscriber id length out of bounds", offset};
    }
    v.subscriber_id.assign(reinterpret_cast<const char*>(data + offset),
                           static_cast<std::size_t>(sub_len));
    offset += static_cast<std::size_t>(sub_len);
    v.window_index = get_varint(data, size, offset);
    v.start_s = get_f64(data, size, offset);
    v.end_s = get_f64(data, size, offset);
    const std::uint64_t chunks = get_varint(data, size, offset);
    if (chunks > UINT32_MAX) {
      throw WireError{"chunk count out of bounds", offset};
    }
    v.chunk_count = static_cast<std::uint32_t>(chunks);
    const std::uint8_t flags = get_u8(data, size, offset);
    if ((flags & ~kFlagMask) != 0) {
      throw WireError{"unknown verdict flags", offset - 1};
    }
    v.final_window = (flags & kFlagFinalWindow) != 0;
    v.quality_switches = (flags & kFlagSwitches) != 0;
    v.stall = get_u8(data, size, offset);
    v.representation = get_u8(data, size, offset);
    v.switch_score = get_f64(data, size, offset);
    v.stall_confidence = get_f64(data, size, offset);
    v.repr_confidence = get_f64(data, size, offset);
    v.window_cusum = get_f64(data, size, offset);
    v.mean_goodput_kbps = get_f64(data, size, offset);
    out.push_back(std::move(v));
  }
  if (offset != size) throw WireError{"trailing bytes after verdicts", offset};
  return out;
}

namespace {

wire::SpoolWriterOptions verdict_spool_options(wire::SpoolWriterOptions options) {
  options.flags = wire::kSpoolPayloadWindowVerdicts;
  return options;
}

}  // namespace

VerdictSpoolWriter::VerdictSpoolWriter(std::filesystem::path dir,
                                       wire::SpoolWriterOptions options)
    : spool_(std::move(dir), verdict_spool_options(options)) {}

void VerdictSpoolWriter::append(std::span<const WindowVerdict> verdicts) {
  if (verdicts.empty()) return;
  payload_.clear();
  encode_verdicts(verdicts, payload_);
  spool_.append_frame(payload_.data(), payload_.size());
  verdicts_ += verdicts.size();
}

bool VerdictSpoolReader::next(WindowVerdict& out) {
  while (batch_pos_ >= batch_.size()) {
    if (!frames_.next_frame(payload_)) return false;
    try {
      batch_ = decode_verdicts(payload_.data(), payload_.size());
    } catch (const WireError& e) {
      frames_.corrupt(std::string{"undecodable verdict payload: "} + e.what(),
                      frames_.frame_payload_offset() + e.offset());
    }
    batch_pos_ = 0;
  }
  out = std::move(batch_[batch_pos_++]);
  ++verdicts_;
  return true;
}

std::vector<WindowVerdict> VerdictSpoolReader::read_all() {
  std::vector<WindowVerdict> all;
  WindowVerdict v;
  while (next(v)) all.push_back(std::move(v));
  return all;
}

}  // namespace vqoe::window
