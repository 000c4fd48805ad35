// Self-tests of the benchmark's own arithmetic: the percentile-support
// rule, the due-time and lag arithmetic on a hand-built schedule, and the
// correctness digest catching a single flipped verdict.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "digest.h"
#include "schedule.h"
#include "stats.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(std::optional<double> got, double want) {
  return got.has_value() && std::fabs(*got - want) < 1e-9;
}

void percentile_rule() {
  using namespace livebench;
  CHECK(samples_beyond(1000, 990) == 10);
  CHECK(samples_beyond(999, 990) == 9);
  CHECK(highest_supported_percentile(1000) == 990);
  CHECK(highest_supported_percentile(999) == 950);
  CHECK(highest_supported_percentile(9999) == 990);
  CHECK(highest_supported_percentile(10000) == 999);
  CHECK(highest_supported_percentile(200) == 950);
  CHECK(highest_supported_percentile(20) == 500);
  CHECK(highest_supported_percentile(19) == 0);
  CHECK(percentile_supported(1000, 990));
  CHECK(!percentile_supported(999, 990));

  const std::vector<double> sorted{1, 2, 3, 4, 5};
  CHECK(quantile_sorted(sorted, 0.5) == 3.0);
  CHECK(quantile_sorted(sorted, 0.25) == 2.0);
  CHECK(quantile_sorted(sorted, 0.9) == 4.6);
  CHECK(median({5, 1, 4, 2}) == 3.0);

  // Better decile of eleven passes: the second best on either side.
  const std::vector<double> passes{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 0};
  CHECK(better_decile(passes, true) == 9.0);
  CHECK(better_decile(passes, false) == 1.0);
}

void due_time_and_lag() {
  using namespace livebench;
  // Seven records; the feed reaches instant t at the first record >= t.
  const std::vector<double> ts{0, 1, 2, 5, 10, 11, 40};
  CHECK(feed_position(ts, 10.0) == 4);
  CHECK(feed_position(ts, 4.0) == 3);
  CHECK(feed_position(ts, 41.0) == ts.size());

  // Closing instants: a clock-closed window closes at its end; a final
  // window at last activity + gap, or at the record that closed it first.
  CHECK(closing_instant(false, 10.0, 30.0, 11.0) == 10.0);
  CHECK(closing_instant(true, 5.0, 30.0, 11.0) == 11.0);
  CHECK(closing_instant(true, 5.0, 30.0, kNever) == 35.0);

  // Paced at 2 rec/s: position i is due at i / 2 seconds.
  const Schedule paced = Schedule::paced(2.0);
  CHECK(near(paced.due_s(4), 2.0));
  CHECK(near(paced.lag_ms(ts, 10.0, 2.5), 500.0));                          // window end 10
  CHECK(near(paced.lag_ms(ts, closing_instant(true, 5.0, 30.0, 11.0), 3.0), 500.0));
  CHECK(near(paced.lag_ms(ts, closing_instant(true, 5.0, 30.0, kNever), 3.25), 250.0));
  CHECK(!paced.lag_ms(ts, 41.0, 9.0).has_value());  // end-of-stream flush

  // Unthrottled: positions are due when they were sent.
  Schedule sent = Schedule::unthrottled(ts.size());
  sent.record_send(0, 3, 0.1);
  sent.record_send(3, 6, 0.4);
  CHECK(near(sent.lag_ms(ts, 5.0, 0.45), 50.0));
  CHECK(near(sent.lag_ms(ts, 0.5, 0.2), 100.0));
  CHECK(!sent.lag_ms(ts, 40.0, 1.0).has_value());  // position 6 never sent
}

void digest_catches_one_flip() {
  using namespace livebench;
  std::vector<vqoe::core::CompletedSession> sessions(3);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].subscriber_id = "sub-" + std::to_string(i);
    sessions[i].start_time_s = 10.0 * static_cast<double>(i);
    sessions[i].end_time_s = sessions[i].start_time_s + 60.0;
    sessions[i].chunk_count = 12 + i;
    sessions[i].report.switch_score = 100.0 + static_cast<double>(i);
  }
  std::vector<vqoe::window::WindowVerdict> verdicts(4);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    verdicts[i].subscriber_id = "sub-1";
    verdicts[i].window_index = i;
    verdicts[i].start_s = 10.0 * static_cast<double>(i);
    verdicts[i].end_s = verdicts[i].start_s + 10.0;
    verdicts[i].chunk_count = 3;
    verdicts[i].stall_confidence = 0.75;
  }
  const Digest reference = make_digest(sessions, verdicts);
  CHECK(reference.size() == 7);

  // Same multiset in another order: no mismatch.
  auto reordered = verdicts;
  std::swap(reordered[0], reordered[3]);
  CHECK(mismatches(reference, make_digest(sessions, reordered)) == 0);

  // One flipped label.
  auto flipped = verdicts;
  flipped[2].stall = 2;
  CHECK(mismatches(reference, make_digest(sessions, flipped)) == 1);

  // One confidence off by a single ulp: doubles compare exactly.
  auto ulp = verdicts;
  ulp[1].stall_confidence = std::nextafter(0.75, 1.0);
  CHECK(mismatches(reference, make_digest(sessions, ulp)) == 1);

  // One flipped session verdict.
  auto session_flip = sessions;
  session_flip[0].report.quality_switches = true;
  CHECK(mismatches(reference, make_digest(session_flip, verdicts)) == 1);

  // One verdict missing.
  auto missing = verdicts;
  missing.pop_back();
  CHECK(mismatches(reference, make_digest(sessions, missing)) == 1);
}

}  // namespace

int main() {
  percentile_rule();
  due_time_and_lag();
  digest_catches_one_flip();
  if (g_failures == 0) std::printf("livebench self-tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
