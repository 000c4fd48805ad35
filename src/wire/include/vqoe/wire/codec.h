// Binary record codec — the wire encoding of trace::WeblogRecord.
//
// trace::csv hands datasets across process boundaries as text; operator
// deployments ship per-transaction records continuously from edge probes
// to a central inference service (Schmitt et al., PAPERS.md), where a
// compact, exact encoding matters: doubles travel as raw IEEE-754 bits so
// a decode(encode(r)) round trip is bit-identical (CSV is not), lengths
// and small integers are LEB128 varints, and the cleartext URI metadata
// (session id, itag, playback-report payload) lives in an optional trailer
// that the encrypted view simply omits — an encrypted record costs zero
// bytes for the fields TLS hides.
//
// The format is versioned (kWireVersionMin..kWireVersionMax supported by
// this build); spool segment headers and the probe/collector hello carry
// the version explicitly, and every decode validates exhaustively —
// unknown flag bits, out-of-range enums, oversized strings and truncated
// buffers raise WireError with the byte offset instead of misparsing.
// Layout details: DESIGN.md section 5e.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "vqoe/trace/weblog.h"

namespace vqoe::wire {

/// Versions this build can encode and decode. A peer (or spool segment)
/// advertising only versions outside this range is rejected.
inline constexpr std::uint8_t kWireVersionMin = 1;
inline constexpr std::uint8_t kWireVersionMax = 1;

/// Decode-side sanity bounds: no legitimate record carries strings or
/// batches anywhere near these, so hitting one means corrupt input.
inline constexpr std::size_t kMaxStringBytes = 1u << 20;
inline constexpr std::size_t kMaxBatchRecords = 1u << 22;

/// Frame container shared by the spool log and the TCP transport:
/// u32 payload_len, u32 crc32c(payload), payload = record batch. Payloads
/// larger than the bound are rejected on read — no configuration writes
/// them, so a bigger length prefix means corrupt or hostile input.
inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr std::uint32_t kMaxFramePayloadBytes = 64u << 20;

/// Malformed wire bytes. `offset()` is the byte position (within the
/// buffer handed to the decoder) where validation failed.
class WireError : public std::runtime_error {
 public:
  WireError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte offset " +
                           std::to_string(offset) + ")"),
        offset_(offset) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// True when `version` is one this build speaks.
[[nodiscard]] constexpr bool version_supported(std::uint8_t version) {
  return version >= kWireVersionMin && version <= kWireVersionMax;
}

/// LEB128 varint append / read. get_varint throws WireError on truncation
/// or a value wider than 64 bits.
void put_varint(std::uint64_t value, std::vector<std::uint8_t>& out);
[[nodiscard]] std::uint64_t get_varint(const std::uint8_t* data,
                                       std::size_t size, std::size_t& offset);

/// f64 append / read: the IEEE-754 bits as 8 little-endian bytes, so every
/// value (NaN payloads and -0.0 included) round-trips bit for bit. get_f64
/// throws WireError on truncation.
void put_f64(double value, std::vector<std::uint8_t>& out);
[[nodiscard]] double get_f64(const std::uint8_t* data, std::size_t size,
                             std::size_t& offset);

/// Appends one record in the given format version. Throws WireError when
/// `version` is unsupported or a field exceeds the format bounds.
void encode_record(const trace::WeblogRecord& record, std::uint8_t version,
                   std::vector<std::uint8_t>& out);

/// Decodes one record starting at `offset`, advancing `offset` past it.
/// Throws WireError on any malformed input.
[[nodiscard]] trace::WeblogRecord decode_record(const std::uint8_t* data,
                                                std::size_t size,
                                                std::size_t& offset,
                                                std::uint8_t version);

/// Zero-copy variant: decodes one record into a non-owning view whose
/// string fields point straight into `data` — no allocation, no byte
/// copied. The view is valid only while `data` is; callers that need the
/// record past that lifetime materialize it (trace::WeblogRecordView::
/// assign_to). Validation is identical to decode_record — the owning
/// decoder is implemented on top of this one, so the two can never drift.
void decode_record_view(const std::uint8_t* data, std::size_t size,
                        std::size_t& offset, std::uint8_t version,
                        trace::WeblogRecordView& out);

/// Decodes a full batch payload into views (appended to `out`, which is
/// cleared first). Throws WireError before touching `out`'s prior content
/// semantics: on any malformed record the batch is rejected whole — no
/// partially-decoded frame ever reaches a consumer.
void decode_batch_views(const std::uint8_t* data, std::size_t size,
                        std::uint8_t version,
                        std::vector<trace::WeblogRecordView>& out);

/// Batch payload: varint record count followed by that many records. This
/// is the payload of every spool frame and every TCP data frame.
void encode_batch(const trace::WeblogRecord* records, std::size_t count,
                  std::uint8_t version, std::vector<std::uint8_t>& out);
inline void encode_batch(const std::vector<trace::WeblogRecord>& records,
                         std::uint8_t version,
                         std::vector<std::uint8_t>& out) {
  encode_batch(records.data(), records.size(), version, out);
}

/// Decodes a full batch payload. Trailing bytes after the last record are
/// a framing violation and raise WireError.
[[nodiscard]] std::vector<trace::WeblogRecord> decode_batch(
    const std::uint8_t* data, std::size_t size, std::uint8_t version);

}  // namespace vqoe::wire
