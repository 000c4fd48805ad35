// In-memory span recorder of the traced run.
//
// Spans are recorded from the benchmark's own code around calls into each
// module's public functions: name, start, end, parent span and request id
// (the feed position, harvest number or replayed item the span served).
// One SpanLog per thread, so recording never synchronizes; ids carry the
// log's base so spans of different threads never collide. Logs are written
// out when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace livebench {

/// Nanoseconds on the steady clock (shared epoch for every thread).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  const char* name = "";     ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// `thread_tag` distinguishes the ids of concurrently written logs.
  explicit SpanLog(std::uint64_t thread_tag) : base_(thread_tag << 40) {}

  /// Records a finished span; returns its id.
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t request, std::int64_t start_ns,
                    std::int64_t end_ns) {
    const std::uint64_t id = base_ + spans_.size() + 1;
    spans_.push_back(Span{id, parent, request, name, start_ns, end_ns});
    return id;
  }

  /// Opens a span whose end is set later with close().
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t request) {
    return add(name, parent, request, now_ns(), 0);
  }
  void close(std::uint64_t id) { spans_[id - base_ - 1].end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t base_;
  std::vector<Span> spans_;
};

/// Tab-separated: id, parent, request, name, start_ns, end_ns.
inline void write_spans(std::ostream& os,
                        const std::vector<const SpanLog*>& logs) {
  os << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      os << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
         << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

}  // namespace livebench
