#include "distributed/socket_transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace rcc {

void transport_fail(const char* fmt, ...) {
  std::fputs("socket transport: ", stderr);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

namespace {

std::int64_t monotonic_ms() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

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

void FrameCollector::fail_missing() const {
  std::string missing;
  for (std::size_t i = 0; i < expected_; ++i) {
    if (seen_machine_[i] == 0) {
      if (!missing.empty()) missing += ", ";
      missing += std::to_string(i);
    }
  }
  transport_fail("timed out after %d ms waiting for machine frames; "
                 "missing machine ids: [%s]",
                 timeout_ms_, missing.c_str());
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
      Connection conn;
      conn.fd = fd;
      connections_.push_back(std::move(conn));
      break;  // blocking listener: one accept per POLLIN wake
    }
  }

  // Readable connections: pull bytes, reassemble frames. Bounded to the
  // connections that were polled — never the one just accepted.
  std::size_t fd_index = 1;
  for (std::size_t ci = 0; ci < polled_connections; ++ci) {
    Connection& conn = connections_[ci];
    if (conn.fd < 0) continue;
    const pollfd& pfd = fds[fd_index++];
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    std::uint8_t chunk[64 * 1024];
    const ssize_t got = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      transport_fail("recv(): %s", strerror(errno));
    }
    if (got == 0) {
      // Orderly shutdown. Legal only on a frame boundary (the worker sends
      // exactly one frame, then closes).
      const bool mid_header =
          !conn.header_parsed && !conn.buffer.empty();
      const bool mid_payload =
          conn.header_parsed &&
          conn.buffer.size() <
              kFrameHeaderBytes + conn.header.payload_bytes;
      if (mid_header) {
        transport_fail("a worker closed its connection mid-header "
                       "(%zu of %zu header bytes)",
                       conn.buffer.size(), kFrameHeaderBytes);
      }
      if (mid_payload) {
        transport_fail("machine %u closed its connection mid-frame "
                       "(%zu of %llu payload bytes)",
                       conn.header.machine,
                       conn.buffer.size() - kFrameHeaderBytes,
                       static_cast<unsigned long long>(
                           conn.header.payload_bytes));
      }
      ::close(conn.fd);
      conn.fd = -1;
      continue;
    }
    wire_bytes_ += static_cast<std::uint64_t>(got);
    conn.buffer.insert(conn.buffer.end(), chunk, chunk + got);

    if (!conn.header_parsed && conn.buffer.size() >= kFrameHeaderBytes) {
      // decode_frame_header validates magic/version/reserved/shape/cap and
      // aborts with a wire diagnostic on violation.
      conn.header = decode_frame_header(conn.buffer.data());
      conn.header_parsed = true;
      if (conn.header.machine >= expected_) {
        transport_fail("frame names machine %u but only %zu machines exist",
                       conn.header.machine, expected_);
      }
      // Claimed at HEADER-parse time, not completion: two concurrent
      // connections claiming one id must fail on the second header, or the
      // genuinely missing machine could absorb twice under arrival order.
      if (claimed_machine_[conn.header.machine] != 0) {
        transport_fail("duplicate frame for machine %u", conn.header.machine);
      }
      claimed_machine_[conn.header.machine] = 1;
    }
    if (conn.header_parsed &&
        conn.buffer.size() >= kFrameHeaderBytes + conn.header.payload_bytes) {
      if (conn.buffer.size() > kFrameHeaderBytes + conn.header.payload_bytes) {
        transport_fail("machine %u sent %zu bytes beyond its declared frame",
                       conn.header.machine,
                       conn.buffer.size() -
                           (kFrameHeaderBytes +
                            static_cast<std::size_t>(
                                conn.header.payload_bytes)));
      }
      seen_machine_[conn.header.machine] = 1;
      ReadyFrame frame;
      frame.header = conn.header;
      conn.buffer.erase(conn.buffer.begin(),
                        conn.buffer.begin() + kFrameHeaderBytes);
      frame.payload = std::move(conn.buffer);
      ready_.push_back(std::move(frame));
      ++completed_;
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
}

ReadyFrame FrameCollector::next_ready() {
  RCC_CHECK(delivered_ < expected_);
  const std::int64_t deadline = monotonic_ms() + timeout_ms_;
  while (ready_.empty()) {
    const std::int64_t remaining = deadline - monotonic_ms();
    if (remaining <= 0) fail_missing();
    pump(static_cast<int>(remaining));
  }
  ReadyFrame frame = std::move(ready_.front());
  ready_.pop_front();
  ++delivered_;
  return frame;
}

namespace transport_detail {

pid_t fork_worker(std::size_t machine, WorkerFn fn, void* ctx) {
  // glibc's pthread_atfork handlers leave malloc consistent in the child
  // even when parent pool threads are mid-allocation; the child must still
  // _exit (not exit) so it never runs the parent's atexit handlers or
  // static destructors against the shared copy-on-write state.
  const pid_t pid = ::fork();
  if (pid < 0) transport_fail("fork(): %s", strerror(errno));
  if (pid == 0) {
    fn(ctx, machine);
    ::_exit(0);
  }
  return pid;
}

}  // namespace transport_detail

void reap_workers(const std::vector<pid_t>& pids, bool require_clean) {
  for (std::size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pids[i], &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r < 0) {
      transport_fail("waitpid(machine %zu): %s", i, strerror(errno));
    }
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!clean) {
      if (WIFEXITED(status)) {
        std::fprintf(stderr,
                     "socket transport: machine %zu worker exited with "
                     "status %d\n",
                     i, WEXITSTATUS(status));
      } else if (WIFSIGNALED(status)) {
        std::fprintf(stderr,
                     "socket transport: machine %zu worker died on signal "
                     "%d\n",
                     i, WTERMSIG(status));
      }
      if (require_clean) {
        transport_fail("machine %zu worker did not exit cleanly", i);
      }
    }
  }
}

}  // namespace rcc
