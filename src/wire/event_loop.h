// Internal readiness loop behind the collector: level-triggered epoll(7).
//
// O(1) interest updates and O(ready) wakeups, so a collector serving
// thousands of probes pays per wakeup only for the connections that have
// something to say. An fd with unread bytes (or writable space, when write
// interest is armed) reports ready on every wait until the condition
// clears. Error/hangup conditions surface as `readable` so the owner
// drains the socket and observes EOF/errno itself. Not installed;
// implementation detail of the transport layer.
#pragma once

#include <sys/epoll.h>

#include <vector>

#include "wire_io.h"

namespace vqoe::wire::detail {

struct LoopEvent {
  void* tag = nullptr;
  bool readable = false;
  bool writable = false;
};

class EventLoop {
 public:
  EventLoop();

  /// Registers `fd` with the given interest set. `tag` comes back verbatim
  /// in every event for this fd.
  void add(int fd, bool want_read, bool want_write, void* tag);

  /// Replaces the interest set of a registered fd.
  void modify(int fd, bool want_read, bool want_write, void* tag);

  /// Deregisters `fd`; call before the fd is closed.
  void remove(int fd);

  /// Blocks until at least one registered fd is ready or `timeout_ms`
  /// elapses. Clears and fills `out`; an empty result is a timeout.
  void wait(std::vector<LoopEvent>& out, int timeout_ms);

 private:
  ScopedFd epfd_;
  std::vector<epoll_event> events_;
};

}  // namespace vqoe::wire::detail
