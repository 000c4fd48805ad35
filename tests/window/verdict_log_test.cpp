// Verdict stream framing: codec round-trip, bound validation, and the
// spool-level payload-tag gate (a verdict spool cannot be misread as a
// record spool or vice versa).
#include "vqoe/window/verdict_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "vqoe/wire/spool.h"

namespace vqoe::window {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("vqoe_vlog_" + name);
  fs::remove_all(dir);
  return dir;
}

WindowVerdict sample_verdict(int i) {
  WindowVerdict v;
  v.subscriber_id = "sub-" + std::to_string(i);
  v.window_index = static_cast<std::uint64_t>(i);
  v.start_s = 10.0 * i;
  v.end_s = 10.0 * i + 10.0;
  v.chunk_count = static_cast<std::uint32_t>(3 + i);
  v.final_window = (i % 2) == 1;
  v.stall = static_cast<std::uint8_t>(i % 3);
  v.representation = static_cast<std::uint8_t>((i + 1) % 3);
  v.quality_switches = (i % 3) == 0;
  v.switch_score = 123.456 + i;
  v.stall_confidence = 0.5 + 0.01 * i;
  v.repr_confidence = 0.25 + 0.01 * i;
  v.window_cusum = 77.5 * i;
  v.mean_goodput_kbps = 2'500.0 + i;
  return v;
}

void expect_equal(const WindowVerdict& a, const WindowVerdict& b) {
  EXPECT_EQ(a.subscriber_id, b.subscriber_id);
  EXPECT_EQ(a.window_index, b.window_index);
  EXPECT_DOUBLE_EQ(a.start_s, b.start_s);
  EXPECT_DOUBLE_EQ(a.end_s, b.end_s);
  EXPECT_EQ(a.chunk_count, b.chunk_count);
  EXPECT_EQ(a.final_window, b.final_window);
  EXPECT_EQ(a.stall, b.stall);
  EXPECT_EQ(a.representation, b.representation);
  EXPECT_EQ(a.quality_switches, b.quality_switches);
  EXPECT_DOUBLE_EQ(a.switch_score, b.switch_score);
  EXPECT_DOUBLE_EQ(a.stall_confidence, b.stall_confidence);
  EXPECT_DOUBLE_EQ(a.repr_confidence, b.repr_confidence);
  EXPECT_DOUBLE_EQ(a.window_cusum, b.window_cusum);
  EXPECT_DOUBLE_EQ(a.mean_goodput_kbps, b.mean_goodput_kbps);
}

TEST(VerdictCodec, RoundTripsEveryField) {
  std::vector<WindowVerdict> verdicts;
  for (int i = 0; i < 5; ++i) verdicts.push_back(sample_verdict(i));
  std::vector<std::uint8_t> payload;
  encode_verdicts(verdicts, payload);
  const auto decoded = decode_verdicts(payload.data(), payload.size());
  ASSERT_EQ(decoded.size(), verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    expect_equal(decoded[i], verdicts[i]);
  }
}

TEST(VerdictCodec, GoldenBytes) {
  // The verdict format, pinned byte for byte: a two-verdict batch with a
  // multi-byte varint index and chunk count, both flag bits, a negative
  // double and one near the bottom of the normal range. Any change to the
  // layout or to the shared varint/f64 helpers shows up here.
  std::vector<WindowVerdict> batch(2);
  WindowVerdict& a = batch[0];
  a.subscriber_id = "sub-7";
  a.window_index = 3;
  a.start_s = 30.0;
  a.end_s = 40.0;
  a.chunk_count = 5;
  a.final_window = false;
  a.stall = 1;
  a.representation = 2;
  a.quality_switches = true;
  a.switch_score = 0.1;
  a.stall_confidence = 0.75;
  a.repr_confidence = 1.0 / 3.0;
  a.window_cusum = 12.5;
  a.mean_goodput_kbps = 2500.25;
  WindowVerdict& b = batch[1];
  b.subscriber_id = "subscriber-300";
  b.window_index = 300;
  b.start_s = 2990.5;
  b.end_s = 3000.0;
  b.chunk_count = 200;
  b.final_window = true;
  b.quality_switches = false;
  b.switch_score = -1.5;
  b.stall_confidence = 1e-300;
  b.repr_confidence = 0.0;
  b.window_cusum = 7.25e6;
  b.mean_goodput_kbps = 0.5;

  const std::vector<std::uint8_t> golden = {
      0x02, 0x05, 0x73, 0x75, 0x62, 0x2d, 0x37, 0x03, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x3e, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x44, 0x40,
      0x05, 0x02, 0x01, 0x02, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f, 0x55, 0x55, 0x55, 0x55,
      0x55, 0x55, 0xd5, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x29, 0x40,
      0x00, 0x00, 0x00, 0x00, 0x80, 0x88, 0xa3, 0x40, 0x0e, 0x73, 0x75, 0x62,
      0x73, 0x63, 0x72, 0x69, 0x62, 0x65, 0x72, 0x2d, 0x33, 0x30, 0x30, 0xac,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5d, 0xa7, 0x40, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x70, 0xa7, 0x40, 0xc8, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xf8, 0xbf, 0x59, 0xf3, 0xf8, 0xc2, 0x1f, 0x6e,
      0xa5, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x14, 0xa8, 0x5b, 0x41, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xe0, 0x3f};
  std::vector<std::uint8_t> payload;
  encode_verdicts(batch, payload);
  EXPECT_EQ(payload, golden);

  const auto decoded = decode_verdicts(golden.data(), golden.size());
  ASSERT_EQ(decoded.size(), 2u);
  expect_equal(decoded[0], a);
  expect_equal(decoded[1], b);
}

TEST(VerdictCodec, EmptyBatchRoundTrips) {
  std::vector<std::uint8_t> payload;
  encode_verdicts({}, payload);
  EXPECT_TRUE(decode_verdicts(payload.data(), payload.size()).empty());
}

TEST(VerdictCodec, RejectsTrailingBytes) {
  std::vector<WindowVerdict> verdicts = {sample_verdict(0)};
  std::vector<std::uint8_t> payload;
  encode_verdicts(verdicts, payload);
  payload.push_back(0x00);
  EXPECT_THROW((void)decode_verdicts(payload.data(), payload.size()),
               wire::WireError);
}

TEST(VerdictCodec, RejectsTruncation) {
  std::vector<WindowVerdict> verdicts = {sample_verdict(0), sample_verdict(1)};
  std::vector<std::uint8_t> payload;
  encode_verdicts(verdicts, payload);
  for (const std::size_t keep : {payload.size() - 1, payload.size() / 2,
                                 std::size_t{1}}) {
    EXPECT_THROW((void)decode_verdicts(payload.data(), keep), wire::WireError)
        << keep;
  }
}

TEST(VerdictCodec, RejectsUnknownFlagBits) {
  std::vector<WindowVerdict> verdicts = {sample_verdict(2)};
  std::vector<std::uint8_t> payload;
  encode_verdicts(verdicts, payload);
  // Layout: count, sub_len, bytes, window_index, 2 x f64, chunk_count, flags.
  const std::size_t flags_at = 1 + 1 + verdicts[0].subscriber_id.size() + 1 +
                               16 + 1;
  ASSERT_LT(flags_at, payload.size());
  payload[flags_at] |= 0x80;
  try {
    (void)decode_verdicts(payload.data(), payload.size());
    FAIL() << "unknown flag bits must be rejected";
  } catch (const wire::WireError& e) {
    EXPECT_NE(std::string{e.what()}.find("flags"), std::string::npos);
  }
}

TEST(VerdictSpool, WriteReadRoundTrip) {
  const fs::path dir = fresh_dir("roundtrip");
  std::vector<WindowVerdict> all;
  {
    VerdictSpoolWriter writer{dir};
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<WindowVerdict> verdicts;
      for (int i = 0; i < 4; ++i) {
        verdicts.push_back(sample_verdict(batch * 4 + i));
      }
      writer.append(verdicts);
      all.insert(all.end(), verdicts.begin(), verdicts.end());
    }
    EXPECT_EQ(writer.verdicts_written(), all.size());
    EXPECT_EQ(writer.frames_written(), 3u);
    writer.close();
  }
  VerdictSpoolReader reader{dir};
  const auto got = reader.read_all();
  EXPECT_FALSE(reader.torn_tail());
  ASSERT_EQ(got.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) expect_equal(got[i], all[i]);
  fs::remove_all(dir);
}

TEST(VerdictSpool, RecordReaderRejectsVerdictSpool) {
  const fs::path dir = fresh_dir("tag_gate_a");
  {
    VerdictSpoolWriter writer{dir};
    std::vector<WindowVerdict> verdicts = {sample_verdict(0)};
    writer.append(verdicts);
    writer.close();
  }
  try {
    (void)wire::read_spool(dir);
    FAIL() << "a record reader must reject a verdict-tagged spool";
  } catch (const wire::WireError& e) {
    EXPECT_NE(std::string{e.what()}.find("payload mismatch"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(VerdictSpool, VerdictReaderRejectsRecordSpool) {
  const fs::path dir = fresh_dir("tag_gate_b");
  {
    wire::SpoolWriter writer{dir};  // default: record payload tag
    trace::WeblogRecord r;
    r.subscriber_id = "s";
    r.host = "h";
    writer.append(&r, 1);
    writer.close();
  }
  VerdictSpoolReader reader{dir};
  WindowVerdict out;
  try {
    (void)reader.next(out);
    FAIL() << "a verdict reader must reject a record-tagged spool";
  } catch (const wire::WireError& e) {
    EXPECT_NE(std::string{e.what()}.find("payload mismatch"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vqoe::window
