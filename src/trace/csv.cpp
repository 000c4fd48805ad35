#include "vqoe/trace/csv.h"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace vqoe::trace {

namespace {

// RFC-4180 quoting. String fields come from the outside world (subscriber
// ids, hosts, session ids in real proxy logs), so a comma, quote or line
// break inside one must not shear the row: such fields are written quoted
// with embedded quotes doubled, and the reader parses quoted fields —
// including line breaks inside them — back to the original bytes.
// Fields that need no quoting are written bare, so generator output files
// are byte-identical to the pre-quoting format.

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\r\n") != std::string::npos;
}

void put_field(std::ostream& os, const std::string& field) {
  if (!needs_quoting(field)) {
    os << field;
    return;
  }
  os << '"';
  for (const char c : field) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

/// Reads one CSV row into `fields`, honouring quoted fields (which may
/// span physical lines). Returns false at a clean end of file. Throws on
/// a quote left open at EOF — that is a truncated file, not a row.
bool read_row(std::istream& is, std::vector<std::string>& fields) {
  fields.clear();
  std::string field;
  bool in_quotes = false;
  bool any = false;
  int got;
  while ((got = is.get()) != std::char_traits<char>::eof()) {
    const char c = static_cast<char>(got);
    if (in_quotes) {
      if (c == '"') {
        if (is.peek() == '"') {
          field.push_back('"');
          is.get();
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      any = true;
      continue;
    }
    if (c == '"' && field.empty()) {
      in_quotes = true;
      any = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
      any = true;
    } else if (c == '\n') {
      break;
    } else if (c == '\r' && is.peek() == '\n') {
      is.get();  // CRLF row terminator
      break;
    } else {
      field.push_back(c);
      any = true;
    }
  }
  if (in_quotes) {
    throw std::runtime_error{"unterminated quoted CSV field at end of file"};
  }
  if (!any && got == std::char_traits<char>::eof()) return false;
  fields.push_back(std::move(field));
  return true;
}

std::ofstream open_out(const std::filesystem::path& path) {
  std::ofstream os{path};
  if (!os) throw std::runtime_error{"cannot open for writing: " + path.string()};
  os.precision(10);
  return os;
}

std::ifstream open_in(const std::filesystem::path& path) {
  std::ifstream is{path};
  if (!is) throw std::runtime_error{"cannot open for reading: " + path.string()};
  return is;
}

constexpr std::array<const char*, 19> kWeblogColumns = {
    "subscriber",    "timestamp_s",   "transaction_time_s", "size_bytes",
    "host",          "kind",          "encrypted",          "cached",
    "rtt_min_ms",    "rtt_avg_ms",    "rtt_max_ms",         "bdp_bytes",
    "bif_avg_bytes", "bif_max_bytes", "loss_pct",           "retrans_pct",
    "session_id",    "itag_height",   "is_audio"};
constexpr std::array<const char*, 14> kTruthColumns = {
    "session_id",        "subscriber",     "start_time_s",
    "total_duration_s",  "adaptive",       "abandoned",
    "media_chunks",      "stall_count",    "stall_duration_s",
    "rebuffering_ratio", "average_height", "switch_count",
    "switch_amplitude",  "startup_delay_s"};

template <std::size_t N>
void put_header(std::ostream& os, const std::array<const char*, N>& columns) {
  for (std::size_t i = 0; i < N; ++i) os << (i ? "," : "") << columns[i];
  os << '\n';
}

/// One data row, read field by field. Every number is parsed whole with
/// std::from_chars, the discipline of the tools' flag parsing: no blanks,
/// no '+', no trailing bytes, no overflow, no sign on an unsigned field,
/// and only finite doubles. An error names the file kind, the row (the
/// header is row 1) and the column.
template <std::size_t N>
class Row {
 public:
  Row(const char* file_kind, std::size_t row,
      const std::array<const char*, N>& columns,
      const std::vector<std::string>& fields)
      : file_kind_(file_kind), row_(row), columns_(columns), fields_(fields) {
    if (fields.size() != N) {
      throw std::runtime_error{std::string{"malformed "} + file_kind_ +
                               " CSV row " + std::to_string(row_) +
                               ": expected " + std::to_string(N) +
                               " fields, got " + std::to_string(fields.size())};
    }
  }

  template <typename T>
  [[nodiscard]] T number(std::size_t i) const {
    const std::string& field = fields_[i];
    const char* end = field.data() + field.size();
    T out{};
    const auto [ptr, ec] = std::from_chars(field.data(), end, out);
    if (ec == std::errc::result_out_of_range) fail(i, "out of range");
    if (ec != std::errc{} || ptr != end) fail(i, "not a number");
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(out)) fail(i, "not finite");
    }
    return out;
  }

  /// A 0/1 column.
  [[nodiscard]] bool flag(std::size_t i) const {
    const auto v = number<unsigned>(i);
    if (v > 1) fail(i, "not 0 or 1");
    return v == 1;
  }

  [[noreturn]] void fail(std::size_t i, const char* why) const {
    throw std::runtime_error{std::string{file_kind_} + " CSV row " +
                             std::to_string(row_) + ", column " +
                             columns_[i] + ": " + why + ": '" + fields_[i] +
                             "'"};
  }

 private:
  const char* file_kind_;
  std::size_t row_;
  const std::array<const char*, N>& columns_;
  const std::vector<std::string>& fields_;
};

}  // namespace

void write_weblogs_csv(const std::filesystem::path& path,
                       const std::vector<WeblogRecord>& records) {
  auto os = open_out(path);
  put_header(os, kWeblogColumns);
  for (const WeblogRecord& r : records) {
    put_field(os, r.subscriber_id);
    os << ',' << r.timestamp_s << ',' << r.transaction_time_s << ','
       << r.object_size_bytes << ',';
    put_field(os, r.host);
    os << ',' << static_cast<int>(r.kind) << ',' << (r.encrypted ? 1 : 0)
       << ',' << (r.served_from_cache ? 1 : 0) << ','
       << r.transport.rtt_min_ms << ',' << r.transport.rtt_avg_ms << ','
       << r.transport.rtt_max_ms << ',' << r.transport.bdp_bytes << ','
       << r.transport.bif_avg_bytes << ',' << r.transport.bif_max_bytes << ','
       << r.transport.loss_pct << ',' << r.transport.retrans_pct << ',';
    put_field(os, r.session_id);
    os << ',' << r.itag_height << ',' << (r.is_audio ? 1 : 0) << '\n';
  }
}

std::vector<WeblogRecord> read_weblogs_csv(const std::filesystem::path& path) {
  auto is = open_in(path);
  std::vector<std::string> f;
  read_row(is, f);  // header
  std::vector<WeblogRecord> out;
  for (std::size_t row_number = 2; read_row(is, f); ++row_number) {
    if (f.size() == 1 && f[0].empty()) continue;  // blank line
    const Row row{"weblog", row_number, kWeblogColumns, f};
    WeblogRecord r;
    r.subscriber_id = f[0];
    r.timestamp_s = row.number<double>(1);
    r.transaction_time_s = row.number<double>(2);
    r.object_size_bytes = row.number<std::uint64_t>(3);
    r.host = f[4];
    const auto kind = row.number<unsigned>(5);
    if (kind > static_cast<unsigned>(RecordKind::playback_report)) {
      row.fail(5, "unknown record kind");
    }
    r.kind = static_cast<RecordKind>(kind);
    r.encrypted = row.flag(6);
    r.served_from_cache = row.flag(7);
    r.transport.rtt_min_ms = row.number<double>(8);
    r.transport.rtt_avg_ms = row.number<double>(9);
    r.transport.rtt_max_ms = row.number<double>(10);
    r.transport.bdp_bytes = row.number<double>(11);
    r.transport.bif_avg_bytes = row.number<double>(12);
    r.transport.bif_max_bytes = row.number<double>(13);
    r.transport.loss_pct = row.number<double>(14);
    r.transport.retrans_pct = row.number<double>(15);
    r.session_id = f[16];
    r.itag_height = row.number<int>(17);
    r.is_audio = row.flag(18);
    out.push_back(std::move(r));
  }
  return out;
}

void write_ground_truth_csv(const std::filesystem::path& path,
                            const std::vector<SessionGroundTruth>& truths) {
  auto os = open_out(path);
  put_header(os, kTruthColumns);
  for (const SessionGroundTruth& t : truths) {
    put_field(os, t.session_id);
    os << ',';
    put_field(os, t.subscriber_id);
    os << ',' << t.start_time_s << ','
       << t.total_duration_s << ',' << (t.adaptive ? 1 : 0) << ','
       << (t.abandoned ? 1 : 0) << ',' << t.media_chunk_count << ','
       << t.stall_count << ',' << t.stall_duration_s << ','
       << t.rebuffering_ratio << ',' << t.average_height << ','
       << t.switch_count << ',' << t.switch_amplitude << ','
       << t.startup_delay_s << '\n';
  }
}

std::vector<SessionGroundTruth> read_ground_truth_csv(
    const std::filesystem::path& path) {
  auto is = open_in(path);
  std::vector<std::string> f;
  read_row(is, f);  // header
  std::vector<SessionGroundTruth> out;
  for (std::size_t row_number = 2; read_row(is, f); ++row_number) {
    if (f.size() == 1 && f[0].empty()) continue;  // blank line
    const Row row{"ground-truth", row_number, kTruthColumns, f};
    SessionGroundTruth t;
    t.session_id = f[0];
    t.subscriber_id = f[1];
    t.start_time_s = row.number<double>(2);
    t.total_duration_s = row.number<double>(3);
    t.adaptive = row.flag(4);
    t.abandoned = row.flag(5);
    t.media_chunk_count = row.number<std::size_t>(6);
    t.stall_count = row.number<int>(7);
    t.stall_duration_s = row.number<double>(8);
    t.rebuffering_ratio = row.number<double>(9);
    t.average_height = row.number<double>(10);
    t.switch_count = row.number<std::size_t>(11);
    t.switch_amplitude = row.number<double>(12);
    t.startup_delay_s = row.number<double>(13);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace vqoe::trace
