// Shared-memory ring transport for the cross-process machine phase: the
// socket transport's frames without its kernel copy per frame or its fork
// per machine per round.
//
//   * frames travel through fixed-capacity SPSC ring buffers in one
//     MAP_SHARED | MAP_ANONYMOUS mapping created BEFORE the workers fork, so
//     a frame is one userspace memcpy in and one out — no socket, no kernel
//     buffering, no per-frame file descriptors;
//   * each machine has an uplink and a downlink ring, which makes workers
//     *persistent*: the coordinator forks k workers once, after round 0's
//     partition and machine RNG streams (round 0's shard and stream ride the
//     fork as copy-on-write pages, so round 0 ships nothing down), then
//     ships every later round's piece DOWN the ring and reads the summary
//     frame back UP. A single engine call is the same pool serving one
//     round.
//
// Frames are byte-identical to the socket transport's (summary_wire.hpp):
// the six summary codecs and the validation funnel carry over unchanged;
// the piece and shutdown frames are the ring path's own. Both ends read
// frames through the one FrameReader (transport_core.hpp) and write them
// through one bounded ring-write loop. ShmWorkerPool hands back completed
// frames in ARRIVAL order like FrameCollector, so the engine's
// CanonicalReorder sits on top unmodified.
//
// Ring mechanics: each direction is a single-producer single-consumer byte
// ring with free-running 32-bit cursors (capacity is a power of two below
// 2^31, so `tail - head` is the used byte count under wraparound
// arithmetic). Writers publish with a release store and a (cross-process)
// futex wake; readers wait with bounded futex sleeps. Frames LARGER than
// the ring flow in chunks — the writer blocks until the reader frees space,
// so a tiny ring degrades to lockstep streaming instead of deadlocking.
// The coordinator multiplexes k uplinks off one doorbell word (workers bump
// it after every publish) because futex can wait on only one address.
//
// Failure philosophy matches the socket path: every coordinator wait is
// bounded by timeout_ms and a worker that dies mid-round is diagnosed BY
// MACHINE ID (waitpid(WNOHANG) on the stalled machines, then a re-drain so
// a worker that exited after completing its frame is never misreported).
// Workers detect coordinator death via parent-pid checks between rounds and
// bounded waits mid-frame. FaultPlan knobs (worker_step.hpp) pin every
// failure path.
#pragma once

#include <errno.h>
#include <string.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "distributed/summary_wire.hpp"
#include "distributed/transport_core.hpp"
#include "distributed/worker_step.hpp"

namespace rcc {

/// Knobs of the shared-memory ring transport.
struct ShmTransportOptions {
  /// Data capacity of EACH ring (one uplink + one downlink per machine),
  /// rounded up to a power of two. Frames larger than the ring still flow —
  /// chunked, with writer/reader in lockstep — so this sizes the overlap
  /// window, not a hard frame limit.
  std::size_t ring_bytes = std::size_t{1} << 20;

  /// Deadline for every coordinator wait (frame bytes, downlink space,
  /// shutdown reaping) and for worker-side mid-frame waits. A worker silent
  /// for this long is declared dead and the run aborts with its machine id.
  int timeout_ms = 10000;
};

/// Prints "shm transport: <formatted message>" to stderr and aborts — the
/// transport_fail of the ring path.
[[noreturn]] void shm_fail(const char* fmt, ...);

namespace shm_detail {

/// Producer/consumer cursors of one SPSC ring, each on its own cache line
/// (they are also the futex words, so cross-process waits land here).
struct RingControl {
  alignas(64) std::atomic<std::uint32_t> head;  // consumer cursor
  alignas(64) std::atomic<std::uint32_t> tail;  // producer cursor
};
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "ring cursors must be lock-free to live in shared memory");

/// Non-owning view of one ring inside the shared segment.
struct Ring {
  RingControl* ctl = nullptr;
  std::uint8_t* data = nullptr;
  std::uint32_t capacity = 0;  // power of two, < 2^31
};

}  // namespace shm_detail

/// The one MAP_SHARED segment of a pool: a doorbell word plus k
/// (uplink, downlink) ring pairs. Created before the fork so parent and
/// children address the same physical pages; unmapped by the destructor on
/// whichever side runs it (children _exit, so in practice the parent).
class ShmSegment {
 public:
  ShmSegment(std::size_t machines, std::size_t ring_bytes);
  ~ShmSegment();

  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  std::size_t machines() const { return machines_; }
  /// Bumped (and futex-woken) by workers after every uplink publish; the
  /// coordinator's one wait address for "any ring made progress".
  std::atomic<std::uint32_t>* doorbell() const { return doorbell_; }
  shm_detail::Ring uplink(std::size_t machine) const;    // worker -> coord
  shm_detail::Ring downlink(std::size_t machine) const;  // coord -> worker

 private:
  std::size_t machines_ = 0;
  std::uint32_t ring_capacity_ = 0;
  std::size_t mapping_bytes_ = 0;
  std::uint8_t* base_ = nullptr;
  std::atomic<std::uint32_t>* doorbell_ = nullptr;
};

/// Worker-side handle over one machine's ring pair. Lives only in the
/// child; reads piece and shutdown frames off the downlink and writes
/// summary frames to the uplink.
class ShmWorkerEndpoint {
 public:
  ShmWorkerEndpoint(const ShmSegment& segment, std::size_t machine,
                    pid_t coordinator_pid, int timeout_ms);

  /// Next complete frame off the downlink. The wait for a frame to START is
  /// indefinite (a persistent worker idles between rounds) but checks the
  /// coordinator's liveness each bounded sleep and _exits quietly when
  /// orphaned; once a header has arrived, the rest of the frame must land
  /// within timeout_ms or the worker shm_fails.
  ReadyFrame read_frame();

  /// Writes `prefix` (header + fixed payload head) then `body` (raw edge
  /// bytes, may be empty) to the uplink back to back — one contiguous frame
  /// on the wire, no frame-sized staging vector in the worker — chunked
  /// through the ring and bounded by timeout_ms per chunk of progress.
  void write_frame(const std::uint8_t* prefix, std::size_t prefix_bytes,
                   const std::uint8_t* body, std::size_t body_bytes);

  std::size_t machine() const { return machine_; }

 private:
  shm_detail::Ring uplink_;
  shm_detail::Ring downlink_;
  std::atomic<std::uint32_t>* doorbell_;
  std::size_t machine_;
  pid_t coordinator_pid_;
  int timeout_ms_;
};

/// Coordinator-side pool of k forked ring workers. One fork per machine per
/// POOL (not per round): spawn() once, then one
/// { begin_round(); send_frame()*; next_ready() x k; } cycle per round,
/// then shutdown_and_reap(). The engine's workers run serve_shm_worker, so
/// round 0 sends no frames down (its pieces rode the fork) and every later
/// round sends one piece frame per machine. A single engine call is a pool
/// serving one round.
class ShmWorkerPool {
 public:
  ShmWorkerPool(std::size_t machines, const ShmTransportOptions& options);
  /// SIGKILLs and reaps any worker still alive (abandoned pool — normal
  /// exits go through shutdown_and_reap).
  ~ShmWorkerPool();

  ShmWorkerPool(const ShmWorkerPool&) = delete;
  ShmWorkerPool& operator=(const ShmWorkerPool&) = delete;

  /// Forks one worker per machine through transport_detail::fork_worker;
  /// worker i runs body(i, endpoint) in the child and _exit(0)s when body
  /// returns. Call exactly once.
  template <typename Body>
  void spawn(const Body& body) {
    RCC_CHECK(pids_.empty());
    const pid_t coordinator = ::getpid();
    for (std::size_t m = 0; m < machines(); ++m) {
      const pid_t pid = transport_detail::fork_worker(m, [&](std::size_t i) {
        ShmWorkerEndpoint endpoint(segment_, i, coordinator,
                                   options_.timeout_ms);
        body(i, endpoint);
      });
      if (pid < 0) shm_fail("fork(machine %zu): %s", m, strerror(errno));
      pids_.push_back(pid);
      alive_[m] = 1;
    }
  }

  /// Starts a collection round: the next `machines()` next_ready() calls
  /// belong to it. Every round, round 0 included, begins with this call.
  void begin_round();

  /// Writes one frame down machine's downlink: `prefix` (header + fixed
  /// payload prefix) then `body` (raw edge bytes, may be empty) back to
  /// back, so no frame-sized staging vector is ever built. Chunked, bounded
  /// by timeout_ms per chunk of progress; a worker that died mid-delivery is
  /// named.
  void send_frame(std::size_t machine, const std::uint8_t* prefix,
                  std::size_t prefix_bytes, const std::uint8_t* body,
                  std::size_t body_bytes);

  /// Next completed uplink frame of the current round, in arrival order —
  /// the FrameCollector::next_ready of the ring path. Must be called
  /// exactly machines() times per round. Duplicate frames, foreign machine
  /// ids, torn frames from dead workers, and deadline overruns all shm_fail
  /// with the offending/missing machine ids.
  ReadyFrame next_ready();

  /// Exit handshake: sends every live worker a shutdown frame, then reaps
  /// each within the bounded timeout; a worker that ignores the handshake
  /// is SIGKILLed and named.
  void shutdown_and_reap();

  std::size_t machines() const { return segment_.machines(); }
  std::uint32_t round() const { return round_; }
  /// Uplink framed bytes received (headers + payloads): the measured wire
  /// cost of the machine phases, cumulative over rounds.
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  /// Downlink bytes shipped (piece + shutdown frames), cumulative.
  std::uint64_t piece_bytes() const { return piece_bytes_; }

 private:
  /// Drains machine's uplink ring into its FrameReader, which reads the
  /// payload DIRECTLY into the vector the ReadyFrame ships — no copy on top
  /// of the ring's one memcpy out; a completed frame moves to ready_.
  /// Returns true when any byte arrived.
  bool drain_one(std::size_t machine);
  /// still_alive over machines the current round still owes a frame;
  /// a dead one gets a final drain, then shm_fail naming it.
  void check_for_dead_workers();

  ShmSegment segment_;
  ShmTransportOptions options_;
  std::vector<pid_t> pids_;
  std::vector<char> alive_;
  std::vector<FrameReader> readers_;
  std::vector<char> completed_;  // frame landed this round
  std::deque<ReadyFrame> ready_;
  std::uint32_t round_ = 0;
  std::uint64_t rounds_begun_ = 0;
  std::size_t delivered_this_round_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t piece_bytes_ = 0;
};

/// The body of every shm worker process, single-call and persistent pools
/// alike:
///
///   round 0   build(nullptr): the pool was spawned after the coordinator
///             partitioned the round and forked the machine RNG streams, so
///             the worker's fork snapshot already holds its piece and its
///             stream — nothing travels down the ring,
///   round r   build(&piece) on the kPieceDelivery frame the coordinator
///             shipped (a borrowing view into the frame payload, no copy),
///   shutdown  return; the pool's child then exits 0.
///
/// Every round's summary goes up through worker_step under `faults`.
template <typename Build>
void serve_shm_worker(ShmWorkerEndpoint& endpoint, const FaultPlan& faults,
                      const Build& build) {
  const std::size_t machine = endpoint.machine();
  const auto write = [&endpoint](const std::uint8_t* head,
                                 std::size_t head_bytes,
                                 const std::uint8_t* body,
                                 std::size_t body_bytes) {
    endpoint.write_frame(head, head_bytes, body, body_bytes);
  };
  worker_step(faults, machine, 0, [&] { return build(nullptr); }, write);
  for (std::uint32_t round = 1;; ++round) {
    const ReadyFrame frame = endpoint.read_frame();
    if (frame.header.shape == SummaryShape::kShutdown) {
      if (static_cast<long>(machine) == faults.ignore_shutdown_machine) {
        worker_sleep_forever();
      }
      return;
    }
    const PieceDeliveryView piece =
        decode_piece_frame_view(frame.header, frame.payload.data());
    if (piece.round != round) {
      shm_fail("machine %zu expected a round-%u piece, got round %u", machine,
               round, piece.round);
    }
    worker_step(faults, machine, round, [&] { return build(&piece); }, write);
  }
}

}  // namespace rcc
