#include "digest.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string_view>

namespace livebench {
namespace {

/// FNV-1a over the canonical field bytes.
class Hasher {
 public:
  explicit Hasher(std::uint8_t tag) { byte(tag); }

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) byte(p[i]);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace

std::uint64_t item_hash(const vqoe::core::CompletedSession& s) {
  Hasher h{'S'};
  h.str(s.subscriber_id);
  h.f64(s.start_time_s);
  h.f64(s.end_time_s);
  h.u64(s.chunk_count);
  h.u64(static_cast<std::uint64_t>(s.report.stall));
  h.u64(static_cast<std::uint64_t>(s.report.representation));
  h.u64(s.report.quality_switches ? 1 : 0);
  h.f64(s.report.switch_score);
  return h.value();
}

std::uint64_t item_hash(const vqoe::window::WindowVerdict& v) {
  Hasher h{'W'};
  h.str(v.subscriber_id);
  h.u64(v.window_index);
  h.f64(v.start_s);
  h.f64(v.end_s);
  h.u64(v.chunk_count);
  h.u64(v.final_window ? 1 : 0);
  h.u64(v.stall);
  h.u64(v.representation);
  h.u64(v.quality_switches ? 1 : 0);
  h.f64(v.switch_score);
  h.f64(v.stall_confidence);
  h.f64(v.repr_confidence);
  h.f64(v.window_cusum);
  h.f64(v.mean_goodput_kbps);
  return h.value();
}

Digest make_digest(std::span<const vqoe::core::CompletedSession> sessions,
                   std::span<const vqoe::window::WindowVerdict> verdicts) {
  Digest d;
  d.sessions = sessions.size();
  d.verdicts = verdicts.size();
  d.items.reserve(sessions.size() + verdicts.size());
  for (const auto& s : sessions) d.items.push_back(item_hash(s));
  for (const auto& v : verdicts) d.items.push_back(item_hash(v));
  std::sort(d.items.begin(), d.items.end());
  return d;
}

std::size_t mismatches(const Digest& reference, const Digest& run) {
  std::vector<std::uint64_t> common;
  std::set_intersection(reference.items.begin(), reference.items.end(),
                        run.items.begin(), run.items.end(),
                        std::back_inserter(common));
  return std::max(reference.size(), run.size()) - common.size();
}

}  // namespace livebench
