// Loopback socket transport for the cross-process machine phase.
//
// The first execution path where the paper's k machines are genuinely
// separate processes: the coordinator binds one listening socket on
// 127.0.0.1, forks k workers, and every worker builds its summary on its
// (copy-on-write inherited) piece, frames it per summary_wire.hpp, connects
// to the coordinator's port, streams the frame, and exits. This is the
// degenerate single-listener form of the leader/pivot port scheme of the
// multi-party exemplars: one well-known leader port, and the sender's role
// (machine id) rides in the frame header instead of being implied by which
// port it dialed — one coordinator needs no per-role ports.
//
// The coordinator side is poll()-driven and fully bounded: FrameCollector
// accepts connections lazily, reassembles each connection's frame through
// one FrameReader as bytes arrive, and hands back completed frames in
// ARRIVAL order — the engine's canonical reorder buffer
// (util/completion.hpp) sits on top, exactly as it does over the in-process
// completion queue, which is what makes the socket path seed-for-seed
// identical to the in-process path. Every wait carries a deadline: a worker
// that dies before (or while) sending its frame surfaces as a transport_fail
// diagnostic naming the missing machine id within timeout_ms, never a hang.
//
// The worker side both cross-process transports share (FaultPlan and
// worker_step) lives in worker_step.hpp; the frame reader, the fork and the
// reap in transport_core.hpp.
#pragma once

#include <errno.h>
#include <string.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "distributed/summary_wire.hpp"
#include "distributed/transport_core.hpp"

namespace rcc {

/// Knobs of the loopback socket transport.
struct SocketTransportOptions {
  /// Coordinator listening port; 0 asks the kernel for an ephemeral port
  /// (the default — concurrent test runs never collide).
  std::uint16_t leader_port = 0;

  /// Deadline for every coordinator wait (connect backlog, frame bytes) and
  /// for worker-side connects. A worker silent for this long is declared
  /// dead and the run aborts with its machine id.
  int timeout_ms = 10000;
};

/// Prints "socket transport: <formatted message>" to stderr and aborts.
/// Transport failures (timeouts, torn frames, dead workers) are protocol
/// violations, same philosophy as wire_fail.
[[noreturn]] void transport_fail(const char* fmt, ...);

/// RAII listening socket bound to 127.0.0.1. Created BEFORE forking workers
/// so a worker's connect can never race the bind.
class LoopbackListener {
 public:
  /// port 0 = ephemeral (read the realized port back via port()).
  explicit LoopbackListener(std::uint16_t port);
  ~LoopbackListener();

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Worker side: connects to the coordinator's loopback port, retrying
/// briefly (the listener pre-exists the fork, so one attempt normally
/// suffices); transport_fail after timeout_ms.
int connect_to_leader(std::uint16_t port, int timeout_ms);

/// Writes the whole buffer to a blocking socket; transport_fail on error.
void send_all(int fd, const void* data, std::size_t size);

/// Coordinator side: accepts up to `expected` connections on the listener
/// and reassembles their frames. next_ready() blocks (bounded by
/// timeout_ms) until SOME machine's frame is complete and returns it —
/// completion order, like CompletionQueue::pop. Duplicate machine ids,
/// out-of-range ids, torn frames, and deadline overruns all transport_fail
/// with the offending/missing machine ids.
class FrameCollector {
 public:
  FrameCollector(const LoopbackListener& listener, std::size_t expected,
                 int timeout_ms);
  ~FrameCollector();

  FrameCollector(const FrameCollector&) = delete;
  FrameCollector& operator=(const FrameCollector&) = delete;

  /// Next completed frame, in arrival order. Must be called exactly
  /// `expected` times.
  ReadyFrame next_ready();

  /// Total framed bytes received so far (headers + payloads): the measured
  /// on-the-wire cost of the machine phase.
  std::uint64_t wire_bytes() const { return wire_bytes_; }

 private:
  struct Connection {
    int fd = -1;
    FrameReader reader;
  };

  void pump(int deadline_ms_remaining);

  int listener_fd_;
  std::size_t expected_;
  int timeout_ms_;
  std::vector<Connection> connections_;
  std::vector<char> seen_machine_;    // frame COMPLETED (timeout diagnostic)
  std::vector<char> claimed_machine_; // header parsed claiming this id
  std::deque<ReadyFrame> ready_;
  std::size_t delivered_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

/// Forks one worker per machine through transport_detail::fork_worker;
/// worker i runs body(i) and _exit(0)s. Returns the k child pids for
/// reap_workers.
template <typename Body>
std::vector<pid_t> spawn_workers(std::size_t k, const Body& body) {
  std::vector<pid_t> pids;
  pids.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const pid_t pid = transport_detail::fork_worker(i, body);
    if (pid < 0) transport_fail("fork(): %s", strerror(errno));
    pids.push_back(pid);
  }
  return pids;
}

/// Reaps every worker with no deadline. A worker that exited nonzero or
/// died on a signal is reported (stderr) and fails the run, naming it.
void reap_workers(const std::vector<pid_t>& pids);

}  // namespace rcc
