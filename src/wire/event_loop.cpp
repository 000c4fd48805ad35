#include "event_loop.h"

#include <cerrno>
#include <cstdint>

namespace vqoe::wire::detail {

namespace {

epoll_event make_event(bool want_read, bool want_write, void* tag) {
  epoll_event ev{};
  if (want_read) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.ptr = tag;
  return ev;
}

}  // namespace

EventLoop::EventLoop() : epfd_(::epoll_create1(0)), events_(256) {
  if (epfd_.get() < 0) throw_errno("cannot create epoll instance");
}

void EventLoop::add(int fd, bool want_read, bool want_write, void* tag) {
  epoll_event ev = make_event(want_read, want_write, tag);
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl add failed");
  }
}

void EventLoop::modify(int fd, bool want_read, bool want_write, void* tag) {
  epoll_event ev = make_event(want_read, want_write, tag);
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl mod failed");
  }
}

void EventLoop::remove(int fd) {
  epoll_event ev{};
  // ENOENT here would mean a double-remove — harmless on teardown paths.
  // vqoe-lint: allow(unchecked-syscall): idempotent deregistration
  (void)!::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, &ev);
}

void EventLoop::wait(std::vector<LoopEvent>& out, int timeout_ms) {
  out.clear();
  int rc;
  do {
    rc = ::epoll_wait(epfd_.get(), events_.data(),
                      static_cast<int>(events_.size()), timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw_errno("epoll_wait failed");
  for (int i = 0; i < rc; ++i) {
    const epoll_event& got = events_[static_cast<std::size_t>(i)];
    LoopEvent ev;
    ev.tag = got.data.ptr;
    ev.readable = (got.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
    ev.writable = (got.events & (EPOLLOUT | EPOLLERR)) != 0;
    out.push_back(ev);
  }
}

}  // namespace vqoe::wire::detail
