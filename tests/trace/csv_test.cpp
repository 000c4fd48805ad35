#include "vqoe/trace/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "vqoe/workload/corpus.h"

namespace vqoe::trace {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vqoe_csv_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(CsvTest, WeblogRoundTrip) {
  auto options = workload::cleartext_corpus_options(20, 7);
  options.keep_session_results = false;
  const auto corpus = workload::generate_corpus(options);
  ASSERT_FALSE(corpus.weblogs.empty());

  const auto path = dir_ / "weblogs.csv";
  write_weblogs_csv(path, corpus.weblogs);
  const auto loaded = read_weblogs_csv(path);

  ASSERT_EQ(loaded.size(), corpus.weblogs.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const WeblogRecord& a = corpus.weblogs[i];
    const WeblogRecord& b = loaded[i];
    EXPECT_EQ(a.subscriber_id, b.subscriber_id);
    EXPECT_NEAR(a.timestamp_s, b.timestamp_s, 1e-4);
    EXPECT_EQ(a.object_size_bytes, b.object_size_bytes);
    EXPECT_EQ(a.host, b.host);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.encrypted, b.encrypted);
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.itag_height, b.itag_height);
    EXPECT_EQ(a.is_audio, b.is_audio);
    EXPECT_NEAR(a.transport.rtt_avg_ms, b.transport.rtt_avg_ms, 1e-4);
    EXPECT_NEAR(a.transport.bdp_bytes, b.transport.bdp_bytes, 1e-2);
    EXPECT_NEAR(a.transport.loss_pct, b.transport.loss_pct, 1e-6);
  }
}

TEST_F(CsvTest, GroundTruthRoundTrip) {
  auto options = workload::cleartext_corpus_options(15, 8);
  options.keep_session_results = false;
  const auto corpus = workload::generate_corpus(options);

  const auto path = dir_ / "truth.csv";
  write_ground_truth_csv(path, corpus.truths);
  const auto loaded = read_ground_truth_csv(path);

  ASSERT_EQ(loaded.size(), corpus.truths.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const SessionGroundTruth& a = corpus.truths[i];
    const SessionGroundTruth& b = loaded[i];
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.subscriber_id, b.subscriber_id);
    EXPECT_EQ(a.adaptive, b.adaptive);
    EXPECT_EQ(a.abandoned, b.abandoned);
    EXPECT_EQ(a.media_chunk_count, b.media_chunk_count);
    EXPECT_EQ(a.stall_count, b.stall_count);
    EXPECT_NEAR(a.rebuffering_ratio, b.rebuffering_ratio, 1e-6);
    EXPECT_NEAR(a.average_height, b.average_height, 1e-4);
    EXPECT_NEAR(a.startup_delay_s, b.startup_delay_s, 1e-6);
    EXPECT_EQ(a.switch_count, b.switch_count);
  }
}

TEST_F(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_weblogs_csv(dir_ / "nope.csv"), std::runtime_error);
  EXPECT_THROW(read_ground_truth_csv(dir_ / "nope.csv"), std::runtime_error);
}

TEST_F(CsvTest, MalformedRowThrows) {
  const auto path = dir_ / "bad.csv";
  {
    std::ofstream os{path};
    os << "header\n";
    os << "only,three,fields\n";
  }
  EXPECT_THROW(read_weblogs_csv(path), std::runtime_error);
}

TEST_F(CsvTest, EmptyRecordListProducesHeaderOnly) {
  const auto path = dir_ / "empty.csv";
  write_weblogs_csv(path, {});
  const auto loaded = read_weblogs_csv(path);
  EXPECT_TRUE(loaded.empty());
}

// RFC-4180 regression: string fields come from the outside world, and a
// subscriber id or host carrying a comma, quote or newline must not shear
// the row — the writer quotes such fields (doubling embedded quotes) and
// the reader restores the original bytes, including line breaks inside a
// quoted field.
TEST_F(CsvTest, HostileStringsRoundTrip) {
  WeblogRecord hostile;
  hostile.subscriber_id = "sub,with,commas";
  hostile.host = "evil\"quoted\".example.com";
  hostile.session_id = "line\nbreak,and \"both\"";
  hostile.timestamp_s = 12.5;
  hostile.object_size_bytes = 4096;
  hostile.kind = RecordKind::media;
  hostile.itag_height = 720;

  WeblogRecord crlf;
  crlf.subscriber_id = "crlf\r\nsub";
  crlf.host = "plain.example.com";
  crlf.session_id = "\"leading quote";
  crlf.timestamp_s = 13.0;

  WeblogRecord plain;
  plain.subscriber_id = "sub-ordinary";
  plain.host = "r3---sn-h5q7dne7.googlevideo.com";
  plain.session_id = "abcDEF0123456789";
  plain.timestamp_s = 14.0;

  const auto path = dir_ / "hostile.csv";
  const std::vector<WeblogRecord> written = {hostile, crlf, plain};
  write_weblogs_csv(path, written);
  const auto loaded = read_weblogs_csv(path);

  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const WeblogRecord& a = written[i];
    const WeblogRecord& b = loaded[i];
    EXPECT_EQ(a.subscriber_id, b.subscriber_id);
    EXPECT_EQ(a.host, b.host);
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.itag_height, b.itag_height);
  }
}

TEST_F(CsvTest, HostileGroundTruthRoundTrip) {
  SessionGroundTruth truth;
  truth.session_id = "id,with\n\"everything\"";
  truth.subscriber_id = "sub \"quoted\"";
  truth.media_chunk_count = 42;
  truth.stall_count = 2;

  const auto path = dir_ / "hostile_truth.csv";
  write_ground_truth_csv(path, {truth});
  const auto loaded = read_ground_truth_csv(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].session_id, truth.session_id);
  EXPECT_EQ(loaded[0].subscriber_id, truth.subscriber_id);
  EXPECT_EQ(loaded[0].media_chunk_count, truth.media_chunk_count);
}

TEST_F(CsvTest, QuotingOnlyTouchesFieldsThatNeedIt) {
  // Generator-produced data never needs quoting: the file must not grow
  // quotes (older readers of these files split on commas).
  WeblogRecord plain;
  plain.subscriber_id = "sub-7";
  plain.host = "m.youtube.com";
  plain.session_id = "abcDEF0123456789";
  const auto path = dir_ / "plain.csv";
  write_weblogs_csv(path, {plain});
  std::ifstream is{path};
  std::string content{std::istreambuf_iterator<char>{is},
                      std::istreambuf_iterator<char>{}};
  EXPECT_EQ(content.find('"'), std::string::npos);
}

/// Column indices of the weblog CSV (the writer's header order).
constexpr std::size_t kTimestampCol = 1;
constexpr std::size_t kSizeCol = 3;
constexpr std::size_t kKindCol = 5;
constexpr std::size_t kEncryptedCol = 6;
constexpr std::size_t kRttMinCol = 8;
constexpr std::size_t kRttAvgCol = 9;
constexpr std::size_t kMediaChunksCol = 6;  // ground truth

std::vector<std::string> split_commas(const std::string& line) {
  std::vector<std::string> fields(1);
  for (const char c : line) {
    if (c == ',') {
      fields.emplace_back();
    } else {
      fields.back().push_back(c);
    }
  }
  return fields;
}

/// Rewrites column `column` of the one data row of a written CSV (whose
/// fields need no quoting) to `value`.
void overwrite_field(const std::filesystem::path& path, std::size_t column,
                     const std::string& value) {
  std::string header, row;
  {
    std::ifstream is{path};
    std::getline(is, header);
    std::getline(is, row);
  }
  auto fields = split_commas(row);
  ASSERT_LT(column, fields.size());
  fields[column] = value;
  std::ofstream os{path};
  os << header << '\n';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    os << (i ? "," : "") << fields[i];
  }
  os << '\n';
}

/// A one-record weblog CSV with `value` in `column`.
std::filesystem::path weblog_with(const std::filesystem::path& dir,
                                  std::size_t column,
                                  const std::string& value) {
  WeblogRecord r;
  r.subscriber_id = "sub-1";
  r.host = "r3---sn-h5q7dne7.googlevideo.com";
  r.timestamp_s = 10.5;
  r.object_size_bytes = 4096;
  r.transport.rtt_min_ms = 20.0;
  r.transport.rtt_avg_ms = 35.0;
  const auto path = dir / ("weblog_" + std::to_string(column) + ".csv");
  write_weblogs_csv(path, {r});
  overwrite_field(path, column, value);
  return path;
}

/// Expects the read to throw std::runtime_error naming the data row (row
/// 2; the header is row 1) and `column_name`.
template <typename Read>
void expect_rejected(Read read, const std::string& column_name) {
  try {
    (void)read();
    ADD_FAILURE() << "accepted a bad " << column_name;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("column " + column_name), std::string::npos) << what;
  }
}

TEST_F(CsvTest, ValidNumbersStillParse) {
  // The rewriting helper itself: a well-formed replacement reads back.
  const auto loaded =
      read_weblogs_csv(weblog_with(dir_, kTimestampCol, "1.5e+03"));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].timestamp_s, 1500.0);
  EXPECT_EQ(loaded[0].object_size_bytes, 4096u);
}

TEST_F(CsvTest, TrailingBytesAfterANumberAreRejected) {
  // std::stod read "10.5x" as 10.5.
  const auto path = weblog_with(dir_, kTimestampCol, "10.5x");
  expect_rejected([&] { return read_weblogs_csv(path); }, "timestamp_s");
}

TEST_F(CsvTest, SignOnAnUnsignedFieldIsRejected) {
  // std::stoull read "-1" as 18446744073709551615.
  const auto path = weblog_with(dir_, kSizeCol, "-1");
  expect_rejected([&] { return read_weblogs_csv(path); }, "size_bytes");
}

TEST_F(CsvTest, OverflowIsRejected) {
  // One past UINT64_MAX: std::stoull threw std::out_of_range, which is no
  // std::runtime_error.
  const auto path = weblog_with(dir_, kSizeCol, "18446744073709551616");
  expect_rejected([&] { return read_weblogs_csv(path); }, "size_bytes");
}

TEST_F(CsvTest, UnknownRecordKindIsRejected) {
  // The wire codec refuses any kind above playback_report; so does the CSV.
  const auto path = weblog_with(dir_, kKindCol, "9");
  expect_rejected([&] { return read_weblogs_csv(path); }, "kind");
}

TEST_F(CsvTest, NonFiniteDoublesAreRejected) {
  const auto nan_path = weblog_with(dir_, kRttMinCol, "nan");
  expect_rejected([&] { return read_weblogs_csv(nan_path); }, "rtt_min_ms");
  const auto inf_path = weblog_with(dir_, kRttAvgCol, "inf");
  expect_rejected([&] { return read_weblogs_csv(inf_path); }, "rtt_avg_ms");
}

TEST_F(CsvTest, FlagOtherThanZeroOrOneIsRejected) {
  // "2" used to read as false.
  const auto path = weblog_with(dir_, kEncryptedCol, "2");
  expect_rejected([&] { return read_weblogs_csv(path); }, "encrypted");
}

TEST_F(CsvTest, GroundTruthNumbersAreParsedWhole) {
  // std::stoull read "12abc" as 12.
  SessionGroundTruth truth;
  truth.session_id = "abcDEF0123456789";
  truth.subscriber_id = "sub-1";
  truth.media_chunk_count = 12;
  const auto path = dir_ / "truth_bad.csv";
  write_ground_truth_csv(path, {truth});
  overwrite_field(path, kMediaChunksCol, "12abc");
  expect_rejected([&] { return read_ground_truth_csv(path); },
                  "media_chunks");
}

TEST_F(CsvTest, UnterminatedQuoteThrows) {
  const auto path = dir_ / "torn.csv";
  {
    std::ofstream os{path};
    os << "header\n";
    os << "\"never closed,1,2\n";
  }
  EXPECT_THROW(read_weblogs_csv(path), std::runtime_error);
}

}  // namespace
}  // namespace vqoe::trace
