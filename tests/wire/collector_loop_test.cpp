// Adversarial socket conditions for the collector's epoll ingest loop.
//
// The loopback tests prove the happy path is bit-identical to direct
// ingest; this file attacks the receive machinery itself: frame headers
// split across recv(2) calls, frames straddling pooled-slab boundaries,
// a mostly-idle probe sharing the loop with a firehose, connections reset
// mid-frame, a randomized partial-read fuzz harness, and a 32-probe soak
// (the bounded workload CI's TSan/ASan lanes run via the `wire` label).
// Probe-side failure modes ride along: a collector that goes silent with
// the ack window stalled, and one that disappears mid-stream, must both
// surface as clear exceptions rather than a wedged probe.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "vqoe/wire/crc32c.h"
#include "vqoe/wire/transport.h"

namespace vqoe::wire {
namespace {

// --- wire-level helpers -----------------------------------------------------

void put_u32_le(std::uint32_t v, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

/// `count` records for one probe stream: timestamps ascend, payloads vary
/// in size so frames land at awkward offsets relative to slab boundaries.
std::vector<trace::WeblogRecord> stream_records(std::size_t count,
                                                const std::string& subscriber,
                                                double t0 = 0.0,
                                                double dt = 0.25) {
  std::vector<trace::WeblogRecord> records(count);
  for (std::size_t i = 0; i < count; ++i) {
    trace::WeblogRecord& r = records[i];
    r.subscriber_id = subscriber;
    r.timestamp_s = t0 + static_cast<double>(i) * dt;
    r.transaction_time_s = 0.04 + 0.001 * static_cast<double>(i % 7);
    r.object_size_bytes = 700'000 + 1'000 * (i % 113);
    r.host = "r" + std::to_string(i % 5) + "---sn-h5q7dne7.googlevideo.com";
    r.kind = trace::RecordKind::media;
    r.encrypted = true;
  }
  return records;
}

/// The full byte stream a well-behaved probe would send for `records`:
/// hello, data frames of `batch` records, FIN frame.
std::vector<std::uint8_t> stream_bytes(
    const std::vector<trace::WeblogRecord>& records, std::size_t batch) {
  std::vector<std::uint8_t> out(kHelloBytes, 0);
  put_u32_le(kHelloMagic, out.data());
  out[4] = kWireVersionMin;
  out[5] = kWireVersionMax;

  std::vector<std::uint8_t> payload;
  for (std::size_t begin = 0; begin < records.size(); begin += batch) {
    const std::size_t n = std::min(batch, records.size() - begin);
    payload.clear();
    encode_batch(records.data() + begin, n, kWireVersionMax, payload);
    std::uint8_t header[kFrameHeaderBytes];
    put_u32_le(static_cast<std::uint32_t>(payload.size()), header);
    put_u32_le(crc32c(payload.data(), payload.size()), header + 4);
    out.insert(out.end(), header, header + sizeof header);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  std::uint8_t fin[kFrameHeaderBytes];
  put_u32_le(0, fin);
  put_u32_le(crc32c(nullptr, 0), fin + 4);
  out.insert(out.end(), fin, fin + sizeof fin);
  return out;
}

/// A hand-driven client socket: connects, optionally handshakes, and sends
/// bytes in whatever pathological chunking a test wants.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
  }
  ~RawClient() { close(); }

  /// Sends the hello and consumes the hello-ack; returns the negotiated
  /// version (0 = refused).
  std::uint8_t handshake() {
    std::uint8_t hello[kHelloBytes] = {};
    put_u32_le(kHelloMagic, hello);
    hello[4] = kWireVersionMin;
    hello[5] = kWireVersionMax;
    send_exact(hello, sizeof hello);
    std::uint8_t ack[kHelloAckBytes] = {};
    std::size_t got = 0;
    while (got < sizeof ack) {
      const ssize_t n = ::recv(fd_, ack + got, sizeof ack - got, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(got, sizeof ack);
    return ack[4];
  }

  void send_exact(const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Discards whatever acks have arrived; never blocks.
  void drain_acks() {
    std::uint8_t buf[256];
    while (::recv(fd_, buf, sizeof buf, MSG_DONTWAIT) > 0) {
    }
  }

  /// Reads until the peer closes; returns bytes seen (acks, normally).
  std::size_t drain_until_eof() {
    std::uint8_t buf[256];
    std::size_t total = 0;
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return total;
      total += static_cast<std::size_t>(n);
    }
  }

  /// Abortive close: RST instead of FIN, so the collector's next read on
  /// this connection fails with ECONNRESET rather than returning EOF.
  void reset() {
    if (fd_ < 0) return;
    linger hard{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
    close();
  }

  void close() {
    // vqoe-lint: allow(unchecked-syscall): test socket close
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// Runs a collector on a background thread with a timestamp-collecting
/// sink; join() returns the stats once run() exits.
class CollectorHarness {
 public:
  explicit CollectorHarness(CollectorConfig config)
      : collector_(std::move(config)) {
    thread_ = std::thread([this] {
      stats_ = collector_.run([this](const trace::WeblogRecordView& view) {
        records_.push_back(view.materialize());
      });
    });
  }
  ~CollectorHarness() {
    if (thread_.joinable()) {
      collector_.stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return collector_.port(); }

  const CollectorStats& join() {
    thread_.join();
    return stats_;
  }

  [[nodiscard]] const std::vector<trace::WeblogRecord>& records() const {
    return records_;
  }

  [[nodiscard]] std::vector<double> timestamps() const {
    std::vector<double> out;
    out.reserve(records_.size());
    for (const auto& r : records_) out.push_back(r.timestamp_s);
    return out;
  }

 private:
  Collector collector_;
  std::thread thread_;
  CollectorStats stats_;
  std::vector<trace::WeblogRecord> records_;
};

/// Bit-level equality via the codec: two record sequences are identical
/// iff they encode to identical bytes.
void expect_streams_identical(const std::vector<trace::WeblogRecord>& got,
                              const std::vector<trace::WeblogRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  std::vector<std::uint8_t> got_bytes, want_bytes;
  encode_batch(got, kWireVersionMax, got_bytes);
  encode_batch(want, kWireVersionMax, want_bytes);
  EXPECT_EQ(got_bytes, want_bytes);
}

// --- receive-path adversaries ----------------------------------------------

TEST(CollectorLoopTest, ShortReadsSplittingFrameHeadersAreReassembled) {
  CollectorConfig config;
  config.port = 0;
  config.expected_probes = 1;
  CollectorHarness harness{config};

  const auto records = stream_records(24, "sub-shortread");
  const auto bytes = stream_bytes(records, /*batch=*/8);

  RawClient client{harness.port()};
  EXPECT_EQ(client.handshake(), kWireVersionMax);
  // One byte per send: every frame header and every varint arrives split.
  for (std::size_t i = kHelloBytes; i < bytes.size(); ++i) {
    client.send_exact(bytes.data() + i, 1);
    if ((i & 0x3f) == 0) client.drain_acks();
  }
  client.drain_until_eof();

  const CollectorStats& stats = harness.join();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.probes_completed, 1u);
  expect_streams_identical(harness.records(), records);
}

TEST(CollectorLoopTest, FramesStraddlingSlabBoundariesAreAssembled) {
  // 4 KiB slabs (the clamp floor) force the issue: small frames land
  // across slab edges, large frames exceed a whole slab. Both take the
  // assembly path and must decode to the same records either way.
  for (const std::size_t batch : {16u, 256u}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    CollectorConfig config;
    config.port = 0;
    config.expected_probes = 1;
    config.rx_slab_bytes = 4096;
    CollectorHarness harness{config};

    const auto records = stream_records(1024, "sub-straddle");
    ProbeOptions options;
    options.port = harness.port();
    options.batch_records = batch;
    Probe probe{options};
    probe.send(records);
    probe.finish();

    const CollectorStats& stats = harness.join();
    EXPECT_EQ(stats.protocol_errors, 0u);
    EXPECT_EQ(stats.probes_completed, 1u);
    EXPECT_GT(stats.frames_assembled, 0u);
    EXPECT_GT(stats.slab_acquires, 1u);
    EXPECT_EQ(stats.slabs_in_use, 0u);  // clean drain returns every slab
    expect_streams_identical(harness.records(), records);
  }
}

TEST(CollectorLoopTest, SlowProbeDoesNotStarveAFastOne) {
  // One probe trickles 20 records over ~300 ms while another firehoses
  // 4000. The loop must stay readiness-driven: the run finishes shortly
  // after the trickle does, with the merged feed time-sorted and complete.
  CollectorConfig config;
  config.port = 0;
  config.expected_probes = 2;
  CollectorHarness harness{config};

  const auto slow_records = stream_records(20, "sub-slow", 0.1, 1.0);
  const auto fast_records = stream_records(4000, "sub-fast", 0.0, 0.005);

  const auto start = std::chrono::steady_clock::now();
  std::thread slow([&] {
    ProbeOptions options;
    options.port = harness.port();
    options.batch_records = 2;
    Probe probe{options};
    for (std::size_t i = 0; i < slow_records.size(); i += 2) {
      probe.send(slow_records.data() + i, 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    probe.finish();
  });
  std::thread fast([&] {
    ProbeOptions options;
    options.port = harness.port();
    options.batch_records = 64;
    Probe probe{options};
    probe.send(fast_records);
    probe.finish();
  });
  slow.join();
  fast.join();

  const CollectorStats& stats = harness.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(stats.probes_completed, 2u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.records_emitted, slow_records.size() + fast_records.size());
  const auto merged = harness.timestamps();
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  // ~300 ms of pacing plus overhead; far below this generous ceiling
  // unless the loop serialized on the idle connection.
  EXPECT_LT(elapsed, std::chrono::seconds(20));
}

TEST(CollectorLoopTest, ConnectionLostMidFrameIsAProtocolError) {
  for (const bool abortive : {false, true}) {
    SCOPED_TRACE(abortive ? "rst" : "fin");
    CollectorConfig config;
    config.port = 0;
    config.expected_probes = 1;
    CollectorHarness harness{config};

    RawClient client{harness.port()};
    EXPECT_EQ(client.handshake(), kWireVersionMax);

    // A header promising 100 payload bytes, then only 10 of them.
    std::uint8_t header[kFrameHeaderBytes];
    put_u32_le(100, header);
    put_u32_le(0, header + 4);
    client.send_exact(header, sizeof header);
    std::uint8_t partial[10] = {};
    client.send_exact(partial, sizeof partial);
    if (abortive) {
      client.reset();
    } else {
      client.close();
    }

    const CollectorStats& stats = harness.join();
    EXPECT_EQ(stats.protocol_errors, 1u);
    EXPECT_EQ(stats.probes_completed, 0u);
    EXPECT_EQ(stats.records_emitted, 0u);
    EXPECT_TRUE(harness.records().empty());
  }
}

TEST(CollectorLoopTest, RandomizedPartialReadsDeliverTheExactFeed) {
  // Deterministic fuzz: the full wire stream chopped into random 1..96
  // byte chunks with occasional pauses, against 4 KiB slabs. Whatever the
  // chunking, the collector must emit the exact input stream.
  std::mt19937 rng{1844};
  CollectorConfig config;
  config.port = 0;
  config.expected_probes = 1;
  config.rx_slab_bytes = 4096;
  CollectorHarness harness{config};

  const auto records = stream_records(400, "sub-fuzz");
  const auto bytes = stream_bytes(records, /*batch=*/8);

  RawClient client{harness.port()};
  EXPECT_EQ(client.handshake(), kWireVersionMax);
  std::size_t at = kHelloBytes;
  std::uniform_int_distribution<std::size_t> chunk_dist{1, 96};
  while (at < bytes.size()) {
    const std::size_t n = std::min(chunk_dist(rng), bytes.size() - at);
    client.send_exact(bytes.data() + at, n);
    at += n;
    if (rng() % 16 == 0) {
      client.drain_acks();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  client.drain_until_eof();

  const CollectorStats& stats = harness.join();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.probes_completed, 1u);
  EXPECT_EQ(stats.records_received, records.size());
  EXPECT_GE(stats.wakeups, 1u);
  EXPECT_LE(stats.acks_sent, stats.frames_received);  // acks are batched
  EXPECT_EQ(stats.slabs_in_use, 0u);
  expect_streams_identical(harness.records(), records);
}

TEST(CollectorLoopTest, ThirtyTwoProbeSoakMergesEveryStream) {
  // The bounded soak CI runs under TSan and ASan: 32 concurrent probes,
  // interleaved timestamps, small frames, small slabs.
  constexpr std::size_t kProbes = 32;
  constexpr std::size_t kPerProbe = 150;
  CollectorConfig config;
  config.port = 0;
  config.expected_probes = kProbes;
  config.rx_slab_bytes = 4096;
  CollectorHarness harness{config};

  std::vector<std::thread> senders;
  for (std::size_t i = 0; i < kProbes; ++i) {
    senders.emplace_back([&, i] {
      const auto records =
          stream_records(kPerProbe, "sub-" + std::to_string(i),
                         /*t0=*/0.001 * static_cast<double>(i), /*dt=*/0.1);
      try {
        ProbeOptions options;
        options.port = harness.port();
        options.batch_records = 16;
        Probe probe{options};
        probe.send(records);
        probe.finish();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "probe " << i << " failed: " << e.what();
      }
    });
  }
  for (auto& t : senders) t.join();

  const CollectorStats& stats = harness.join();
  EXPECT_EQ(stats.probes_completed, kProbes);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.records_emitted, kProbes * kPerProbe);
  EXPECT_EQ(stats.slabs_in_use, 0u);
  const auto merged = harness.timestamps();
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
}

// --- probe-side failure modes ----------------------------------------------

/// A collector impostor: accepts one probe, completes the handshake with
/// ack_window = 1, then behaves as the test dictates.
class FakeCollector {
 public:
  FakeCollector() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr),
        0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(listen_fd_,
                            reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
  }
  ~FakeCollector() {
    // vqoe-lint: allow(unchecked-syscall): test socket close
    if (conn_fd_ >= 0) ::close(conn_fd_);
    // vqoe-lint: allow(unchecked-syscall): test socket close
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accept + handshake; the probe now believes it is talking to a
  /// healthy collector with a 1-frame ack window.
  void accept_and_handshake() {
    conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    ASSERT_GE(conn_fd_, 0);
    std::uint8_t hello[kHelloBytes];
    std::size_t got = 0;
    while (got < sizeof hello) {
      const ssize_t n = ::recv(conn_fd_, hello + got, sizeof hello - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
    std::uint8_t ack[kHelloAckBytes] = {};
    put_u32_le(kHelloAckMagic, ack);
    ack[4] = kWireVersionMax;
    put_u32_le(1, ack + 8);  // ack_window = 1: the second frame stalls
    std::size_t sent = 0;
    while (sent < sizeof ack) {
      const ssize_t n =
          ::send(conn_fd_, ack + sent, sizeof ack - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Keeps reading (and discarding) the probe's bytes without ever acking,
  /// until the probe gives up and the socket closes.
  void swallow_until_eof() {
    std::uint8_t buf[4096];
    while (::recv(conn_fd_, buf, sizeof buf, 0) > 0) {
    }
  }

  /// Sends a FIN while keeping the read side open: the probe sees a clean
  /// mid-stream EOF (not a reset) no matter how its sends race the close.
  void shutdown_write() {
    // vqoe-lint: allow(unchecked-syscall): test socket shutdown
    (void)!::shutdown(conn_fd_, SHUT_WR);
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(CollectorLoopTest, ProbeGivesUpWhenAcksGoSilent) {
  FakeCollector fake;
  std::thread server([&] {
    fake.accept_and_handshake();
    fake.swallow_until_eof();  // reads everything, acknowledges nothing
  });

  const auto records = stream_records(4, "sub-timeout");
  std::string what;
  try {
    ProbeOptions options;
    options.port = fake.port();
    options.batch_records = 1;
    options.ack_timeout_s = 0.3;
    Probe probe{options};
    probe.send(records);  // frame 2 stalls on the 1-frame window
    probe.finish();
    ADD_FAILURE() << "probe did not time out";
  } catch (const std::exception& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("collector unresponsive"), std::string::npos) << what;
  server.join();
}

TEST(CollectorLoopTest, ProbeReportsACollectorThatDisappearsMidStream) {
  FakeCollector fake;
  std::thread server([&] {
    fake.accept_and_handshake();
    fake.shutdown_write();     // vanish before acknowledging anything
    fake.swallow_until_eof();  // keep reads open so the EOF stays clean
  });

  const auto records = stream_records(4, "sub-vanish");
  std::string what;
  try {
    ProbeOptions options;
    options.port = fake.port();
    options.batch_records = 1;
    options.ack_timeout_s = 5.0;
    Probe probe{options};
    probe.send(records);
    probe.finish();
    ADD_FAILURE() << "probe did not notice the collector disappearing";
  } catch (const std::exception& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("closed connection mid-stream"), std::string::npos)
      << what;
  server.join();
}

}  // namespace
}  // namespace vqoe::wire
