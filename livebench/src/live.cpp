#include "live.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "vqoe/core/model_io.h"

namespace livebench {

using namespace vqoe;

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

/// Records per probe send() of the unthrottled closed loop; harvesting
/// runs between sends.
constexpr std::size_t kSendChunk = 2048;
/// Paced generator tick and harvest cadence (wall clock).
constexpr double kPacedTickS = 0.0005;
constexpr double kHarvestEveryS = 0.002;

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    // vqoe-lint: allow(unchecked-syscall): benchmark socket teardown
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw_errno("connect");
  }
  return fd;
}

void send_all_blocking(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw_errno("send");
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// CPU a back-to-back pair of thread_cpu_s() reads itself adds to the
/// interval it brackets (median of many pairs on the calling thread).
double cpu_clock_overhead_s() {
  std::vector<double> deltas(255);
  for (double& d : deltas) {
    const double a = thread_cpu_s();
    d = thread_cpu_s() - a;
  }
  std::nth_element(deltas.begin(), deltas.begin() + 127, deltas.end());
  return deltas[127];
}

/// Runs the collector on its own thread; stop()s and joins on destruction
/// so no exit path leaves the thread running.
class CollectorThread {
 public:
  /// Everything the thread writes into `out` is read only after join().
  CollectorThread(wire::Collector& collector, wire::Collector::ViewSink sink,
                  PassResult& out, bool traced, std::uint64_t request)
      : collector_(collector),
        thread_([this, sink = std::move(sink), &out, traced, request] {
          try {
            if (traced) out.cpu_clock_overhead_s = cpu_clock_overhead_s();
            const double cpu0 = thread_cpu_s();
            const std::int64_t t0 = now_ns();
            const std::uint64_t span =
                traced ? out.collector_spans.open("wire.collector_run", 0, request)
                       : 0;
            out.collector = collector_.run(sink);
            if (traced) out.collector_spans.close(span);
            out.collector_cpu_s = thread_cpu_s() - cpu0;
            out.collector_wall_s = seconds_since(t0);
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~CollectorThread() {
    if (thread_.joinable()) {
      collector_.stop();
      thread_.join();
    }
  }
  CollectorThread(const CollectorThread&) = delete;
  CollectorThread& operator=(const CollectorThread&) = delete;

  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  wire::Collector& collector_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the members it uses exist
};

/// The generator's harvest step: takes what the engine has scored and
/// stamps each item with the wall time the call returned.
class Harvester {
 public:
  Harvester(engine::MonitorEngine& eng, PassResult& out, std::int64_t t0_ns,
            bool traced)
      : eng_(eng), out_(out), t0_ns_(t0_ns), traced_(traced) {}

  void operator()(std::uint64_t parent_span) {
    const std::int64_t a = now_ns();
    auto verdicts = eng_.harvest_verdicts();
    auto sessions = eng_.harvest();
    const std::int64_t b = now_ns();
    take(std::move(sessions), std::move(verdicts), b);
    if (traced_) {
      out_.harvest_ns += b - a;
      out_.harvested += last_items_;
      out_.generator_spans.add("engine.harvest", parent_span, calls_, a, b);
    }
    ++calls_;
  }

  void take(std::vector<core::CompletedSession>&& sessions,
            std::vector<window::WindowVerdict>&& verdicts, std::int64_t at_ns) {
    const double t = static_cast<double>(at_ns - t0_ns_) * 1e-9;
    last_items_ = sessions.size() + verdicts.size();
    for (auto& s : sessions) {
      out_.sessions.push_back(std::move(s));
      out_.session_harvest_s.push_back(t);
    }
    for (auto& v : verdicts) {
      out_.verdicts.push_back(std::move(v));
      out_.verdict_harvest_s.push_back(t);
    }
  }

 private:
  engine::MonitorEngine& eng_;
  PassResult& out_;
  std::int64_t t0_ns_;
  bool traced_;
  std::uint64_t calls_ = 0;
  std::size_t last_items_ = 0;
};

/// Closed loop through one wire::Probe: send a chunk, harvest, repeat.
void feed_probe_unthrottled(wire::Probe& probe, const Feed& feed,
                            PassResult& out, Harvester& harvest,
                            std::int64_t t0_ns, bool traced,
                            std::uint64_t root) {
  const std::size_t n = feed.records.size();
  for (std::size_t pos = 0; pos < n; pos += kSendChunk) {
    const std::size_t count = std::min(kSendChunk, n - pos);
    const std::int64_t a = now_ns();
    out.schedule.record_send(pos, pos + count,
                             static_cast<double>(a - t0_ns) * 1e-9);
    probe.send(feed.records.data() + pos, count);
    const std::int64_t b = now_ns();
    out.send_late_ms.push_back(static_cast<double>(b - a) * 1e-6);
    if (traced) out.generator_spans.add("wire.send", root, pos, a, b);
    harvest(root);
  }
}

/// Open loop through one wire::Probe: every tick, send whatever the
/// schedule has made due; harvest on a fixed wall-clock cadence.
void feed_probe_paced(wire::Probe& probe, const Feed& feed, double rate,
                      PassResult& out, Harvester& harvest, std::int64_t t0_ns,
                      bool traced, std::uint64_t root) {
  const std::size_t n = feed.records.size();
  std::size_t pos = 0;
  double next_harvest = kHarvestEveryS;
  while (pos < n) {
    const double t = seconds_since(t0_ns);
    const auto due = std::min(
        n, static_cast<std::size_t>(std::floor(t * rate)) + 1);
    if (due > pos) {
      const std::int64_t a = now_ns();
      out.send_late_ms.push_back(
          (static_cast<double>(a - t0_ns) * 1e-9 -
           static_cast<double>(pos) / rate) * 1e3);
      probe.send(feed.records.data() + pos, due - pos);
      if (traced) out.generator_spans.add("wire.send", root, pos, a, now_ns());
      pos = due;
    }
    const double after = seconds_since(t0_ns);
    if (after >= next_harvest) {
      harvest(root);
      while (next_harvest <= after) next_harvest += kHarvestEveryS;
    }
    const double wake = std::min(after + kPacedTickS, next_harvest);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(0.0, wake - seconds_since(t0_ns))));
  }
}

/// One multiplexed connection replaying its pre-encoded stream under the
/// probe's ack-window discipline.
struct RawConn {
  const EncodedStream* stream = nullptr;
  int fd = -1;
  std::size_t sent = 0;          ///< bytes written
  std::size_t frames_done = 0;   ///< data frames fully written
  std::uint64_t acked = 0;       ///< cumulative data frames acknowledged
  std::uint8_t rx[64] = {};
  std::size_t rx_len = 0;
  bool hello_acked = false;
  std::uint32_t ack_window = 0;  ///< from the hello-ack
  bool closed = false;
  std::int64_t stalled_since = 0;  ///< 0 = not waiting on the window

  /// Reads the hello-ack at the front of `rx`: the collector's verdict on
  /// the hello and the ack window it grants.
  void take_hello_ack() {
    if (rx[4] == 0) throw std::runtime_error("collector refused hello");
    std::memcpy(&ack_window, rx + 8, 4);
    hello_acked = true;
  }

  /// Bytes the window allows to be in flight right now: nothing past the
  /// hello until it is acknowledged, then through the end of frame
  /// (acked + window - 1), or everything once the FIN is allowed.
  [[nodiscard]] std::size_t allowed_end() const {
    if (!hello_acked) return stream->hello_bytes;
    const std::size_t frames = stream->frames.size();
    const std::uint64_t limit = acked + ack_window;  // frames [0, limit) ok
    if (limit > frames) return stream->bytes.size();  // FIN fits too
    return stream->frames[limit - 1].byte_end;
  }
};

void feed_multiplexed(std::vector<RawConn>& conns, PassResult& out,
                      Harvester& harvest, std::int64_t t0_ns, bool traced,
                      std::uint64_t root) {
  std::vector<pollfd> pfds(conns.size());
  std::int64_t next_harvest = t0_ns + static_cast<std::int64_t>(kHarvestEveryS * 1e9);
  std::size_t open = conns.size();
  while (open > 0) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      RawConn& c = conns[i];
      pfds[i].fd = c.closed ? -1 : c.fd;
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
      if (!c.closed && c.sent < c.stream->bytes.size() &&
          c.sent < c.allowed_end()) {
        pfds[i].events |= POLLOUT;
      }
    }
    const int rc = ::poll(pfds.data(), pfds.size(), 1);
    if (rc < 0 && errno != EINTR) throw_errno("poll");
    for (std::size_t i = 0; i < conns.size(); ++i) {
      RawConn& c = conns[i];
      if (c.closed) continue;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const ssize_t n = ::recv(c.fd, c.rx + c.rx_len, sizeof c.rx - c.rx_len,
                                 MSG_DONTWAIT);
        if (n == 0) {
          c.closed = true;
          --open;
          continue;
        }
        if (n < 0 && errno != EAGAIN && errno != EINTR) throw_errno("recv");
        if (n > 0) c.rx_len += static_cast<std::size_t>(n);
        std::size_t off = 0;
        if (!c.hello_acked && c.rx_len >= wire::kHelloAckBytes) {
          c.take_hello_ack();
          off = wire::kHelloAckBytes;
        }
        while (c.hello_acked && c.rx_len - off >= 8) {
          std::memcpy(&c.acked, c.rx + off, 8);
          off += 8;
        }
        std::memmove(c.rx, c.rx + off, c.rx_len - off);
        c.rx_len -= off;
      }
      const std::size_t limit = c.allowed_end();
      if (c.stalled_since != 0 && c.sent < limit) {
        const std::int64_t t = now_ns();
        out.send_late_ms.push_back(static_cast<double>(t - c.stalled_since) * 1e-6);
        ++out.ack_stalls;
        c.stalled_since = 0;
      }
      if ((pfds[i].revents & POLLOUT) && c.sent < limit) {
        const std::int64_t a = now_ns();
        const ssize_t n = ::send(c.fd, c.stream->bytes.data() + c.sent,
                                 limit - c.sent, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0 && errno != EAGAIN && errno != EINTR) throw_errno("send");
        if (n > 0) {
          c.sent += static_cast<std::size_t>(n);
          const double t = static_cast<double>(now_ns() - t0_ns) * 1e-9;
          while (c.frames_done < c.stream->frames.size() &&
                 c.stream->frames[c.frames_done].byte_end <= c.sent) {
            const FrameSpan& f = c.stream->frames[c.frames_done];
            for (std::size_t j = f.begin; j < f.end; ++j) {
              out.schedule.record_send(c.stream->positions[j], t);
            }
            out.records_sent += f.end - f.begin;
            ++out.frames_sent;
            ++c.frames_done;
          }
          if (traced) out.generator_spans.add("wire.send", root, i, a, now_ns());
        }
        if (c.sent == limit && limit < c.stream->bytes.size()) {
          c.stalled_since = now_ns();
        }
      }
    }
    if (now_ns() >= next_harvest) {
      harvest(root);
      next_harvest = now_ns() + static_cast<std::int64_t>(kHarvestEveryS * 1e9);
    }
  }
}

}  // namespace

PassResult run_pass(const PassInputs& in) {
  const WorkloadSpec& spec = *in.spec;
  const Feed& feed = *in.feed;
  PassResult out;
  out.schedule = spec.offered_rate > 0.0
                     ? Schedule::paced(spec.offered_rate)
                     : Schedule::unthrottled(feed.records.size());
  const bool traced = in.traced;
  const std::uint64_t root =
      traced ? out.generator_spans.open("pass", 0, in.pass_index) : 0;

  // --- setup (timed): load models, build the engine, bind, first accept.
  const std::int64_t setup0 = now_ns();
  const std::uint64_t setup_span =
      traced ? out.generator_spans.open("setup", root, in.pass_index) : 0;
  auto active = std::make_shared<const core::QoePipeline>(
      core::load_pipeline(in.models->active));
  engine::EngineConfig config;
  config.shards = kShards;
  config.backpressure = engine::BackpressurePolicy::Block;
  config.monitor = monitor_config(spec);
  if (spec.lifecycle) {
    config.drift.enabled = true;
    config.shadow = std::make_shared<const core::QoePipeline>(
        core::load_pipeline(in.models->shadow));
  }
  out.queue_capacity = config.queue_capacity;
  engine::MonitorEngine eng{active, config};

  wire::CollectorConfig collector_config;
  collector_config.port = 0;
  collector_config.expected_probes = spec.connections;
  wire::Collector collector{collector_config};

  wire::Collector::ViewSink sink;
  if (traced) {
    // Every call is timed; every 64th is also a span and a CPU sample (a
    // blocked ingest waits off-CPU, so wall time in the sink overstates the
    // collector thread's CPU spent there).
    sink = [&](const trace::WeblogRecordView& view) {
      if ((out.sink_calls & 63) == 0) {
        const double cpu0 = thread_cpu_s();
        const std::int64_t a = now_ns();
        eng.ingest(view);
        const std::int64_t b = now_ns();
        out.sink_cpu_sampled_s += thread_cpu_s() - cpu0;
        ++out.sink_cpu_samples;
        out.ingest_ns += b - a;
        out.collector_spans.add("engine.ingest", 0, out.sink_calls, a, b);
      } else {
        const std::int64_t a = now_ns();
        eng.ingest(view);
        out.ingest_ns += now_ns() - a;
      }
      ++out.sink_calls;
    };
  } else {
    sink = [&eng](const trace::WeblogRecordView& view) { eng.ingest(view); };
  }
  CollectorThread server{collector, std::move(sink), out, traced, in.pass_index};

  std::unique_ptr<wire::Probe> probe;
  std::vector<std::unique_ptr<Fd>> fds;
  std::vector<RawConn> conns;
  if (spec.connections == 1) {
    wire::ProbeOptions options;
    options.port = collector.port();
    probe = std::make_unique<wire::Probe>(options);
  } else {
    // The first connection's hello-ack is the first accepted connection.
    const auto& streams = *in.streams;
    conns.resize(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
      fds.push_back(std::make_unique<Fd>(connect_loopback(collector.port())));
      RawConn& c = conns[i];
      c.stream = &streams[i];
      c.fd = fds.back()->get();
      send_all_blocking(c.fd, c.stream->bytes.data(), c.stream->hello_bytes);
      c.sent = c.stream->hello_bytes;
      if (i == 0) {
        std::size_t got = 0;
        while (got < wire::kHelloAckBytes) {
          const ssize_t n = ::recv(c.fd, c.rx + got, wire::kHelloAckBytes - got, 0);
          if (n <= 0) throw_errno("hello-ack");
          got += static_cast<std::size_t>(n);
        }
        c.take_hello_ack();
        out.setup_s = seconds_since(setup0);
      }
      if (::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK) != 0) {
        throw_errno("fcntl");
      }
    }
  }
  if (probe) out.setup_s = seconds_since(setup0);
  if (traced) out.generator_spans.close(setup_span);

  // --- the feed (timed): first send -> drain() returned.
  const std::int64_t t0 = now_ns();
  const double proc_cpu0 = process_cpu_s();
  const double gen_cpu0 = thread_cpu_s();
  Harvester harvest{eng, out, t0, traced};
  const std::uint64_t feed_span =
      traced ? out.generator_spans.open("feed", root, in.pass_index) : 0;
  if (probe) {
    if (spec.offered_rate > 0.0) {
      feed_probe_paced(*probe, feed, spec.offered_rate, out, harvest, t0,
                       traced, feed_span);
    } else {
      feed_probe_unthrottled(*probe, feed, out, harvest, t0, traced, feed_span);
    }
    out.threads = 2 + eng.shard_count();
    probe->finish();
    out.records_sent = probe->stats().records_sent;
    out.frames_sent = probe->stats().frames_sent;
    out.ack_stalls = probe->stats().ack_stalls;
  } else {
    out.threads = 2 + eng.shard_count();
    feed_multiplexed(conns, out, harvest, t0, traced, feed_span);
  }
  server.join();
  if (traced) out.generator_spans.close(feed_span);

  const std::int64_t drain0 = now_ns();
  auto rest = eng.drain();
  const std::int64_t drain1 = now_ns();
  out.wall_s = static_cast<double>(drain1 - t0) * 1e-9;
  out.cpu_s = (process_cpu_s() - proc_cpu0) - (thread_cpu_s() - gen_cpu0);
  harvest.take(std::move(rest), eng.harvest_verdicts(), drain1);
  if (traced) {
    out.drain_ms = static_cast<double>(drain1 - drain0) * 1e-6;
    out.generator_spans.add("engine.drain", root, in.pass_index, drain0, drain1);
    out.generator_spans.close(root);
  }
  out.engine = eng.stats();
  return out;
}

}  // namespace livebench
