#include "distributed/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace rcc {

using transport_detail::monotonic_ms;

void transport_fail(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  transport_detail::vfail("socket transport: ", fmt, args);
}

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

LoopbackListener::LoopbackListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) transport_fail("socket(): %s", strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    transport_fail("bind(127.0.0.1:%u): %s", static_cast<unsigned>(port),
                   strerror(errno));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    transport_fail("getsockname(): %s", strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  // Backlog covers every worker connecting at once.
  if (::listen(fd_, SOMAXCONN) != 0) {
    transport_fail("listen(): %s", strerror(errno));
  }
}

LoopbackListener::~LoopbackListener() {
  if (fd_ >= 0) ::close(fd_);
}

int connect_to_leader(std::uint16_t port, int timeout_ms) {
  const std::int64_t deadline = monotonic_ms() + timeout_ms;
  const sockaddr_in addr = loopback_addr(port);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) transport_fail("worker socket(): %s", strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    const int err = errno;
    ::close(fd);
    // The listener exists before any worker is forked, so a refusal means
    // the coordinator died — but tolerate transient refusals up to the
    // deadline for robustness against kernel accept-queue pressure.
    if (monotonic_ms() >= deadline) {
      transport_fail("worker could not connect to 127.0.0.1:%u within %d ms: "
                     "%s",
                     static_cast<unsigned>(port), timeout_ms, strerror(err));
    }
    const timespec backoff{0, 1000000};  // 1 ms
    ::nanosleep(&backoff, nullptr);
  }
}

void send_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a dead coordinator surfaces as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      transport_fail("send(): %s after %zu of %zu bytes", strerror(errno),
                     sent, size);
    }
    sent += static_cast<std::size_t>(n);
  }
}

FrameCollector::FrameCollector(const LoopbackListener& listener,
                               std::size_t expected, int timeout_ms)
    : listener_fd_(listener.fd()),
      expected_(expected),
      timeout_ms_(timeout_ms),
      seen_machine_(expected, 0),
      claimed_machine_(expected, 0) {}

FrameCollector::~FrameCollector() {
  for (const Connection& conn : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void FrameCollector::pump(int deadline_ms_remaining) {
  std::vector<pollfd> fds;
  fds.push_back(pollfd{listener_fd_, POLLIN, 0});
  // Only the connections that existed when fds was built have a pollfd
  // entry; a connection accepted below is read on the NEXT pump.
  const std::size_t polled_connections = connections_.size();
  for (const Connection& conn : connections_) {
    if (conn.fd >= 0) fds.push_back(pollfd{conn.fd, POLLIN, 0});
  }
  const int n = ::poll(fds.data(), fds.size(), deadline_ms_remaining);
  if (n < 0) {
    if (errno == EINTR) return;
    transport_fail("poll(): %s", strerror(errno));
  }
  if (n == 0) return;  // deadline handled by the caller

  // New connections: accept every pending worker.
  if ((fds[0].revents & POLLIN) != 0) {
    for (;;) {
      const int fd = ::accept(listener_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        // A peer that aborted while queued in the backlog is not a
        // coordinator failure: the deadline path names the missing machine.
        if (errno == ECONNABORTED || errno == EPROTO) break;
        transport_fail("accept(): %s", strerror(errno));
      }
      connections_.push_back(Connection{fd, FrameReader{}});
      break;  // blocking listener: one accept per POLLIN wake
    }
  }

  // Readable connections: read what has arrived straight into each frame.
  // Bounded to the connections that were polled — never the one just
  // accepted.
  std::size_t fd_index = 1;
  for (std::size_t ci = 0; ci < polled_connections; ++ci) {
    Connection& conn = connections_[ci];
    if (conn.fd < 0) continue;
    const pollfd& pfd = fds[fd_index++];
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    bool closed = false;
    const auto recv_some = [&](std::uint8_t* dst, std::size_t max) {
      const ssize_t got = ::recv(conn.fd, dst, max, MSG_DONTWAIT);
      if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != EINTR) {
        transport_fail("recv(): %s", strerror(errno));
      }
      closed = closed || got == 0;
      const std::size_t n = got > 0 ? static_cast<std::size_t>(got) : 0;
      wire_bytes_ += n;
      return n;
    };
    const bool complete = conn.reader.fill(
        recv_some, [&](const FrameHeader& header) {
          if (header.machine >= expected_) {
            transport_fail("frame names machine %u but only %zu machines "
                           "exist",
                           header.machine, expected_);
          }
          // Claimed at HEADER-parse time, not completion: two concurrent
          // connections claiming one id must fail on the second header,
          // naming the duplicate, before either frame reaches the reorder
          // buffer.
          if (claimed_machine_[header.machine] != 0) {
            transport_fail("duplicate frame for machine %u", header.machine);
          }
          claimed_machine_[header.machine] = 1;
        });
    if (complete) {
      // The worker sends exactly one frame, then closes: anything already
      // queued behind the frame is a violation.
      std::uint8_t stray[256];
      const std::size_t extra = recv_some(stray, sizeof stray);
      if (extra > 0) {
        transport_fail("machine %u sent %zu bytes beyond its declared frame",
                       conn.reader.header().machine, extra);
      }
      seen_machine_[conn.reader.header().machine] = 1;
      ready_.push_back(conn.reader.take());
    } else if (closed) {
      // Orderly shutdown. Legal only on a frame boundary.
      if (conn.reader.header_parsed()) {
        transport_fail("machine %u closed its connection mid-frame "
                       "(%zu of %llu payload bytes)",
                       conn.reader.header().machine,
                       conn.reader.payload_filled(),
                       static_cast<unsigned long long>(
                           conn.reader.header().payload_bytes));
      }
      if (conn.reader.started()) {
        transport_fail("a worker closed its connection mid-header "
                       "(%zu of %zu header bytes)",
                       conn.reader.header_filled(), kFrameHeaderBytes);
      }
    } else {
      continue;
    }
    ::close(conn.fd);
    conn.fd = -1;
  }
}

ReadyFrame FrameCollector::next_ready() {
  RCC_CHECK(delivered_ < expected_);
  const std::int64_t deadline = monotonic_ms() + timeout_ms_;
  while (ready_.empty()) {
    const std::int64_t remaining = deadline - monotonic_ms();
    if (remaining <= 0) {
      transport_fail("timed out after %d ms waiting for machine frames; "
                     "missing machine ids: [%s]",
                     timeout_ms_,
                     transport_detail::missing_ids(seen_machine_).c_str());
    }
    pump(static_cast<int>(remaining));
  }
  ReadyFrame frame = std::move(ready_.front());
  ready_.pop_front();
  ++delivered_;
  return frame;
}

void reap_workers(const std::vector<pid_t>& pids) {
  std::vector<char> alive(pids.size(), 1);
  int status = 0;
  const std::optional<std::size_t> machine = transport_detail::reap(
      pids, alive, /*timeout_ms=*/-1, "socket transport: ", &status);
  if (!machine) return;
  if (WIFEXITED(status)) {
    std::fprintf(stderr,
                 "socket transport: machine %zu worker exited with status "
                 "%d\n",
                 *machine, WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    std::fprintf(stderr,
                 "socket transport: machine %zu worker died on signal %d\n",
                 *machine, WTERMSIG(status));
  }
  transport_fail("machine %zu worker did not exit cleanly", *machine);
}

}  // namespace rcc
