// Collector ingest path: one epoll loop, pooled receive slabs, in-place
// frame decode and a min-heap k-way merge. Protocol and merge semantics
// are DESIGN.md §5e; the receive machinery is §5h.
//
//   * readiness comes from a level-triggered epoll loop (event_loop.h);
//   * sockets recv straight into pooled fixed-size slabs (buffer_pool.h),
//     no bounce copy, no vector growth/compaction;
//   * frames whose payload lands contiguously in one slab decode in place
//     into WeblogRecordView batches (the slab stays pinned until the
//     frame's last record has been merged); payloads that straddle a slab
//     boundary are assembled into a recycled scratch buffer and counted in
//     CollectorStats::frames_assembled;
//   * the k-way merge pops a min-heap keyed (timestamp_s, accept order), so
//     equal timestamps go to the earliest-accepted connection;
//   * acks batch per wakeup and only connections touched by this wakeup's
//     events (or by the merge) are revisited, so idle connections cost
//     nothing.
#include <arpa/inet.h>
#include <fcntl.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <queue>

#include "event_loop.h"
#include "vqoe/wire/buffer_pool.h"
#include "vqoe/wire/crc32c.h"
#include "vqoe/wire/spool.h"
#include "vqoe/wire/transport.h"
#include "wire_io.h"

namespace vqoe::wire {

using detail::get_u32;
using detail::put_u32;
using detail::put_u64;

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// Per-probe connection state. The rx buffering is bounded by the ack
/// window: a probe never has more than `ack_window` unacknowledged frames
/// in flight, and acks are withheld until the merge has consumed a frame —
/// so slab-pool occupancy is bounded by construction.
struct Collector::Conn {
  detail::ScopedFd fd;
  std::uint64_t accept_seq = 0;  ///< merge tie-break: earliest accept wins
  std::size_t index = 0;         ///< position in the conns vector
  std::uint64_t epoch = 0;       ///< bumped on failure; stales heap entries
  std::uint32_t heap_refs = 0;   ///< live heap entries pointing here
  bool touched = false;          ///< already on this wakeup's revisit list
  bool reg_read = true;          ///< interest currently armed in the loop
  bool reg_write = false;
  bool hello_done = false;
  bool refused = false;   ///< version negotiation failed
  bool finished = false;  ///< FIN received, stream complete
  bool dead = false;      ///< socket error / EOF / protocol violation

  // Rx: a chain of slabs holding bytes [rx_base, rx_received), all chain
  // slabs except the back one full. Offsets are absolute stream positions,
  // so chain index = (abs - rx_base) / slab_bytes.
  std::deque<BufferPool::Slab*> chain;
  std::uint64_t rx_base = 0;
  std::uint64_t rx_parsed = 0;
  std::uint64_t rx_received = 0;

  std::vector<std::uint8_t> out;  ///< hello-ack + ack stream
  std::size_t out_off = 0;

  /// One decoded data frame and whatever keeps its record bytes alive.
  struct Frame {
    std::uint32_t records_left = 0;
    BufferPool::Slab* slab = nullptr;     ///< pinned zero-copy backing
    std::vector<std::uint8_t> assembled;  ///< straddled/oversized backing
  };
  std::deque<trace::WeblogRecordView> pending;  ///< decoded, not yet merged
  std::deque<Frame> frames;  ///< backing for `pending`, in frame order
  std::uint64_t frames_consumed = 0;
  std::uint64_t frames_ack_sent = 0;
  /// Timestamp of the newest accepted record. Accepted timestamps are
  /// finite, so the -inf start admits any first record.
  double last_timestamp_s = -std::numeric_limits<double>::infinity();
};

Collector::Collector(CollectorConfig config) : config_(config) {
  if (config_.ack_window == 0) config_.ack_window = 1;

  detail::ScopedFd listener{::socket(AF_INET, SOCK_STREAM, 0)};
  if (listener.get() < 0) detail::throw_errno("cannot create listen socket");
  const int one = 1;
  (void)::setsockopt(listener.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(config_.port);
  if (::bind(listener.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    detail::throw_errno("cannot bind collector port " +
                        std::to_string(config_.port));
  }
  if (::listen(listener.get(), 64) != 0) {
    detail::throw_errno("cannot listen on collector socket");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    detail::throw_errno("cannot read collector port");
  }
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listener.get());

  if (::pipe(wake_fds_) != 0) detail::throw_errno("cannot create wake pipe");
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
  listen_fd_ = listener.release();
}

Collector::~Collector() {
  stop();
  // Best-effort teardown: these fds carry no durable state (the spool tee
  // is closed by its own writer), so a failed close has nothing to lose.
  // vqoe-lint: allow(unchecked-syscall): listener close, no durable data
  if (listen_fd_ >= 0) ::close(listen_fd_);
  // vqoe-lint: allow(unchecked-syscall): wake-pipe close, no durable data
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  // vqoe-lint: allow(unchecked-syscall): wake-pipe close, no durable data
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void Collector::stop() {
  // order: release — pairs with the event loop's acquire load so anything
  // the stopping thread wrote before stop() is visible when the loop exits
  stop_.store(true, std::memory_order_release);
  if (wake_fds_[1] >= 0) {
    const std::uint8_t byte = 1;
    // EAGAIN on the non-blocking wake pipe means a wake is already
    // pending — exactly what we want, so the result is discarded.
    // vqoe-lint: allow(unchecked-syscall): wake already pending on EAGAIN
    (void)!::write(wake_fds_[1], &byte, 1);
  }
}

CollectorStats Collector::run(const ViewSink& sink) {
  CollectorStats stats;
  BufferPool pool(config_.rx_slab_bytes);
  const std::size_t sb = pool.slab_bytes();
  detail::EventLoop loop;

  std::vector<std::unique_ptr<Conn>> conns;
  std::size_t hello_count = 0;   // successfully negotiated probes
  std::size_t failed_count = 0;  // refused or errored connections
  std::uint64_t next_accept_seq = 0;

  // Merge state. `blockers` counts live (negotiated, unfinished)
  // connections with nothing decoded: the merge may only emit while it is
  // zero, because a record not yet received could sort earlier than
  // anything buffered.
  std::uint64_t blockers = 0;
  struct HeapEntry {
    double key;
    std::uint64_t seq;
    Conn* conn;
    std::uint64_t epoch;
  };
  struct HeapCmp {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp> heap;

  std::vector<trace::WeblogRecord> tee_buf;
  const std::size_t tee_batch =
      config_.tee_batch_records == 0 ? 512 : config_.tee_batch_records;

  std::vector<Conn*> touched;
  std::vector<detail::LoopEvent> events;
  std::vector<trace::WeblogRecordView> view_scratch;
  std::vector<std::vector<std::uint8_t>> assembled_free;
  std::uint8_t peek_scratch[16];

  int wake_tag = 0;
  int listen_tag = 0;
  loop.add(wake_fds_[0], true, false, &wake_tag);
  loop.add(listen_fd_, true, false, &listen_tag);
  bool accepting = true;

  auto touch = [&](Conn& c) {
    if (!c.touched) {
      c.touched = true;
      touched.push_back(&c);
    }
  };

  auto is_blocking = [](const Conn& c) {
    return c.hello_done && !c.refused && !c.finished && c.pending.empty();
  };

  auto take_assembled = [&]() -> std::vector<std::uint8_t> {
    if (assembled_free.empty()) return {};
    std::vector<std::uint8_t> buf = std::move(assembled_free.back());
    assembled_free.pop_back();
    return buf;
  };

  auto recycle_assembled = [&](std::vector<std::uint8_t>&& buf) {
    if (buf.capacity() == 0) return;
    buf.clear();
    assembled_free.push_back(std::move(buf));
  };

  auto release_frame_backing = [&](Conn::Frame& f) {
    if (f.slab != nullptr) {
      pool.release(f.slab);
      f.slab = nullptr;
    }
    recycle_assembled(std::move(f.assembled));
  };

  auto release_rx = [&](Conn& c) {
    for (BufferPool::Slab* slab : c.chain) pool.release(slab);
    c.chain.clear();
    c.rx_base = c.rx_parsed = c.rx_received;
  };

  auto fail_conn = [&](Conn& c) {
    ++stats.protocol_errors;
    ++failed_count;
    if (is_blocking(c)) --blockers;
    c.dead = true;
    c.finished = true;
    // The stream's integrity is gone; whatever was buffered but not yet
    // merged must not reach the engine.
    c.pending.clear();
    for (Conn::Frame& f : c.frames) release_frame_backing(f);
    c.frames.clear();
    release_rx(c);
    ++c.epoch;  // any heap entry for this conn is now stale
  };

  auto push_head = [&](Conn& c) {
    heap.push(
        HeapEntry{c.pending.front().timestamp_s, c.accept_seq, &c, c.epoch});
    ++c.heap_refs;
  };

  /// Pops fully-parsed slabs off the front of the rx chain. A slab that a
  /// decoded frame still pins stays alive through the frame's own ref.
  auto release_parsed = [&](Conn& c) {
    while (!c.chain.empty() && c.rx_parsed >= c.rx_base + sb) {
      pool.release(c.chain.front());
      c.chain.pop_front();
      c.rx_base += sb;
    }
  };

  /// Contiguous view of `len` bytes at absolute offset `off` (len <= 16);
  /// copies through `peek_scratch` only when the range crosses a slab edge.
  auto peek_chain = [&](Conn& c, std::uint64_t off,
                        std::size_t len) -> const std::uint8_t* {
    const std::size_t rel = static_cast<std::size_t>(off - c.rx_base);
    const std::size_t si = rel / sb;
    const std::size_t so = rel % sb;
    if (so + len <= sb) return c.chain[si]->data() + so;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t r = rel + i;
      peek_scratch[i] = c.chain[r / sb]->data()[r % sb];
    }
    return peek_scratch;
  };

  auto copy_out = [&](Conn& c, std::uint64_t off, std::size_t len,
                      std::uint8_t* dst) {
    while (len > 0) {
      const std::size_t rel = static_cast<std::size_t>(off - c.rx_base);
      const std::size_t si = rel / sb;
      const std::size_t so = rel % sb;
      const std::size_t take = len < sb - so ? len : sb - so;
      std::memcpy(dst, c.chain[si]->data() + so, take);
      dst += take;
      off += take;
      len -= take;
    }
  };

  /// Appends one decoded frame's records to the merge input, enforcing
  /// per-probe timestamp order. Takes ownership of `frame`'s backing
  /// either way; `view_scratch` holds the decoded views.
  auto append_frame = [&](Conn& c, Conn::Frame&& frame) -> bool {
    const std::size_t before = c.pending.size();
    for (const trace::WeblogRecordView& view : view_scratch) {
      // Each probe must stream in timestamp order or the k-way merge
      // cannot reconstruct a globally sorted feed. A non-finite timestamp
      // is cut off like a regression: NaN compares false against
      // everything, so it would pass the order check, disable it for the
      // rest of the stream, and break the merge heap's strict weak
      // ordering.
      const double t = view.timestamp_s;
      if (!std::isfinite(t) || t < c.last_timestamp_s) {
        c.pending.resize(before);  // so fail_conn sees accurate blocking
        release_frame_backing(frame);
        fail_conn(c);
        return false;
      }
      c.last_timestamp_s = t;
      c.pending.push_back(view);
    }
    c.frames.push_back(std::move(frame));
    if (before == 0) {
      --blockers;  // conn was live with empty pending, i.e. blocking
      push_head(c);
    }
    return true;
  };

  auto parse = [&](Conn& c) {
    for (;;) {
      const std::uint64_t avail = c.rx_received - c.rx_parsed;

      if (!c.hello_done) {
        if (avail < kHelloBytes) break;
        const std::uint8_t* p = peek_chain(c, c.rx_parsed, kHelloBytes);
        if (get_u32(p) != kHelloMagic) {
          fail_conn(c);
          return;
        }
        const std::uint8_t peer_min = p[4];
        const std::uint8_t peer_max = p[5];
        c.rx_parsed += kHelloBytes;
        c.hello_done = true;

        const std::uint8_t version =
            peer_max < kWireVersionMax ? peer_max : kWireVersionMax;
        const std::uint8_t floor =
            peer_min > kWireVersionMin ? peer_min : kWireVersionMin;
        std::uint8_t ack[kHelloAckBytes] = {};
        put_u32(kHelloAckMagic, ack);
        if (version < floor) {
          // No overlap: answer version 0 and drop the connection.
          c.out.insert(c.out.end(), ack, ack + sizeof ack);
          c.refused = true;
          c.finished = true;
          ++stats.protocol_errors;
          ++failed_count;
          return;
        }
        ack[4] = version;
        put_u32(config_.ack_window, ack + 8);
        c.out.insert(c.out.end(), ack, ack + sizeof ack);
        ++hello_count;
        ++blockers;  // live with nothing decoded yet
        continue;
      }

      if (c.finished) {
        if (avail > 0) fail_conn(c);  // bytes after FIN
        return;
      }
      if (avail < kFrameHeaderBytes) break;
      const std::uint8_t* h = peek_chain(c, c.rx_parsed, kFrameHeaderBytes);
      const std::uint32_t payload_len = get_u32(h);
      const std::uint32_t crc = get_u32(h + 4);
      if (payload_len == 0) {
        if (crc != 0) {
          fail_conn(c);
          return;
        }
        c.rx_parsed += kFrameHeaderBytes;
        if (is_blocking(c)) --blockers;
        c.finished = true;
        ++stats.probes_completed;
        continue;
      }
      if (payload_len > kMaxFramePayloadBytes) {
        fail_conn(c);
        return;
      }
      if (avail < kFrameHeaderBytes + payload_len) break;

      Conn::Frame frame;
      const std::uint8_t* payload = nullptr;
      BufferPool::Slab* pin = nullptr;
      const std::uint64_t off = c.rx_parsed + kFrameHeaderBytes;
      const std::size_t rel = static_cast<std::size_t>(off - c.rx_base);
      const std::size_t so = rel % sb;
      if (so + payload_len <= sb) {
        pin = c.chain[rel / sb];
        payload = pin->data() + so;
      } else {
        frame.assembled = take_assembled();
        frame.assembled.resize(payload_len);
        copy_out(c, off, payload_len, frame.assembled.data());
        payload = frame.assembled.data();
        ++stats.frames_assembled;
      }

      if (crc32c(payload, payload_len) != crc) {
        recycle_assembled(std::move(frame.assembled));
        fail_conn(c);
        return;
      }
      view_scratch.clear();
      try {
        decode_batch_views(payload, payload_len, kWireVersionMax,
                           view_scratch);
      } catch (const WireError&) {
        recycle_assembled(std::move(frame.assembled));
        fail_conn(c);
        return;
      }
      c.rx_parsed += kFrameHeaderBytes + payload_len;
      ++stats.frames_received;
      stats.records_received += view_scratch.size();
      if (view_scratch.empty()) {
        recycle_assembled(std::move(frame.assembled));
        ++c.frames_consumed;  // nothing to merge; ack immediately
        continue;
      }
      frame.records_left = static_cast<std::uint32_t>(view_scratch.size());
      if (pin != nullptr) {
        pool.add_ref(pin);  // the frame outlives the rx chain's interest
        frame.slab = pin;
      }
      if (!append_frame(c, std::move(frame))) return;
    }
    release_parsed(c);
  };

  auto receive = [&](Conn& c) {
    for (;;) {
      std::size_t filled = sb;
      if (!c.chain.empty()) {
        filled = static_cast<std::size_t>(c.rx_received - c.rx_base) -
                 (c.chain.size() - 1) * sb;
      }
      if (filled == sb) {
        c.chain.push_back(pool.acquire());
        filled = 0;
      }
      const std::size_t space = sb - filled;
      const ssize_t n = ::recv(c.fd.get(), c.chain.back()->data() + filled,
                               space, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        fail_conn(c);
        break;
      }
      if (n == 0) {
        // EOF before FIN is a truncated stream.
        if (!c.finished) fail_conn(c);
        c.dead = true;
        break;
      }
      stats.bytes_received += static_cast<std::uint64_t>(n);
      c.rx_received += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) < space) break;
    }
  };

  auto flush_tee = [&] {
    if (config_.tee != nullptr && !tee_buf.empty()) {
      config_.tee->append(tee_buf);
      tee_buf.clear();
    }
  };

  auto merge_step = [&] {
    // With expected_probes set, no record moves before the full set of
    // probes has joined (a late probe could hold the earliest records).
    if (config_.expected_probes > 0 &&
        hello_count + failed_count < config_.expected_probes) {
      return;
    }
    while (blockers == 0 && !heap.empty()) {
      const HeapEntry e = heap.top();
      heap.pop();
      Conn& c = *e.conn;
      --c.heap_refs;
      touch(c);
      if (e.epoch != c.epoch || c.pending.empty()) continue;  // stale entry

      const trace::WeblogRecordView& view = c.pending.front();
      if (config_.tee != nullptr) {
        tee_buf.push_back(view.materialize());
        if (tee_buf.size() >= tee_batch) flush_tee();
      }
      sink(view);
      ++stats.records_emitted;
      c.pending.pop_front();
      Conn::Frame& f = c.frames.front();
      if (--f.records_left == 0) {
        release_frame_backing(f);
        c.frames.pop_front();
        ++c.frames_consumed;
      }
      if (c.pending.empty()) {
        if (is_blocking(c)) ++blockers;
      } else {
        push_head(c);
      }
    }
  };

  auto queue_acks = [&](Conn& c) {
    if (c.dead || c.frames_consumed == c.frames_ack_sent) return;
    std::uint8_t ack[8];
    put_u64(c.frames_consumed, ack);
    c.out.insert(c.out.end(), ack, ack + sizeof ack);
    c.frames_ack_sent = c.frames_consumed;
    ++stats.acks_sent;
  };

  auto try_write = [&](Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n =
          ::send(c.fd.get(), c.out.data() + c.out_off, c.out.size() - c.out_off,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (!c.finished) fail_conn(c);
        c.dead = true;
        return;
      }
      c.out_off += static_cast<std::size_t>(n);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  };

  auto update_interest = [&](Conn& c) {
    const bool want_read = !c.dead && !c.finished;
    const bool want_write = !c.dead && c.out_off < c.out.size();
    if (want_read != c.reg_read || want_write != c.reg_write) {
      loop.modify(c.fd.get(), want_read, want_write, &c);
      c.reg_read = want_read;
      c.reg_write = want_write;
    }
  };

  /// Retires a connection whose stream is fully merged and acknowledged
  /// (or failed). `heap_refs == 0` keeps the Conn alive while a stale
  /// min-heap entry still points at it.
  auto try_retire = [&](Conn& c) -> bool {
    const bool done =
        c.dead ? c.pending.empty() && c.heap_refs == 0
               : c.finished && c.pending.empty() && c.out_off >= c.out.size() &&
                     c.frames_consumed == c.frames_ack_sent &&
                     c.heap_refs == 0;
    if (!done) return false;
    for (Conn::Frame& f : c.frames) release_frame_backing(f);
    c.frames.clear();
    release_rx(c);
    loop.remove(c.fd.get());
    const std::size_t at = c.index;
    conns[at] = std::move(conns.back());
    conns[at]->index = at;
    conns.pop_back();
    return true;
  };

  // order: acquire — pairs with stop()'s release store (see above)
  while (!stop_.load(std::memory_order_acquire)) {
    loop.wait(events, 200);
    ++stats.wakeups;

    for (const detail::LoopEvent& ev : events) {
      if (ev.tag == &wake_tag) {
        std::uint8_t drain[64];
        while (::read(wake_fds_[0], drain, sizeof drain) > 0) {
        }
        continue;
      }
      if (ev.tag == &listen_tag) {
        if (!accepting) continue;
        for (;;) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          set_nonblocking(fd);
          detail::set_nodelay(fd);
          auto conn = std::make_unique<Conn>();
          conn->fd.reset(fd);
          conn->accept_seq = next_accept_seq++;
          conn->index = conns.size();
          loop.add(fd, true, false, conn.get());
          conns.push_back(std::move(conn));
          ++stats.probes_connected;
          if (config_.expected_probes > 0 &&
              stats.probes_connected >= config_.expected_probes) {
            loop.remove(listen_fd_);
            accepting = false;
            break;
          }
        }
        continue;
      }
      Conn& c = *static_cast<Conn*>(ev.tag);
      if (ev.readable && !c.dead && !c.finished) {
        receive(c);
        if (!c.dead) parse(c);
      }
      touch(c);
    }

    merge_step();

    // Only connections this wakeup actually moved (events or merge
    // consumption) get acks queued, writes flushed, interest updated, and
    // retirement checked — idle connections cost nothing.
    for (Conn* cp : touched) {
      Conn& c = *cp;
      queue_acks(c);
      if (!c.dead && c.out_off < c.out.size()) try_write(c);
      if (!try_retire(c)) {
        update_interest(c);
        c.touched = false;
      }
    }
    touched.clear();

    if (config_.expected_probes > 0 &&
        stats.probes_completed + failed_count >= config_.expected_probes &&
        conns.empty()) {
      break;
    }
  }

  flush_tee();

  // stop() can leave live connections behind; return their buffers to the
  // pool so the stats snapshot reflects reality (slabs_in_use == 0 on a
  // clean drain).
  for (auto& cp : conns) {
    for (Conn::Frame& f : cp->frames) release_frame_backing(f);
    cp->frames.clear();
    release_rx(*cp);
  }

  const BufferPoolStats& ps = pool.stats();
  stats.slab_acquires = ps.acquires;
  stats.slab_allocations = ps.allocations;
  stats.slab_high_water = ps.high_water;
  stats.slabs_in_use = ps.in_use;
  return stats;
}

}  // namespace vqoe::wire
