// Shared-memory ring transport for the cross-process machine phase.
//
// The socket transport (socket_transport.hpp) proved the cross-process
// machine phase seed-for-seed identical to the in-process paths, but it
// pays a serialize-to-kernel copy per frame and a fork per machine per
// round. This transport removes both taxes on single-host runs:
//
//   * frames travel through fixed-capacity SPSC ring buffers living in one
//     MAP_SHARED | MAP_ANONYMOUS mapping created BEFORE the workers fork,
//     so a frame is one userspace memcpy in and one out — no socket, no
//     kernel buffering, no per-frame file descriptors;
//   * the rings are bidirectional (an uplink and a downlink pair per
//     machine), which is what makes workers *persistent*: the coordinator
//     forks k workers once — after partitioning round 0 and forking its
//     machine RNG streams, so the first round's shard and stream ride the
//     fork as copy-on-write pages and round 0 ships nothing down — then
//     ships every later round's piece DOWN through the ring and reads the
//     summary frame back UP. The multi-round executor stops re-forking
//     every round; a single engine call is the same pool serving one round.
//
// Frames are byte-identical to the socket transport's (summary_wire.hpp):
// all ten driver codecs, the validation funnel, and the seed-for-seed
// differential suite transfer unchanged. The coordinator-side ShmWorkerPool
// hands back completed frames in ARRIVAL order exactly like FrameCollector,
// so the engine's CanonicalReorder sits on top unmodified.
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

#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "distributed/summary_wire.hpp"
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

/// Copies what fits (up to `size`) into the ring, publishes, and wakes the
/// reader; returns the bytes written (0 when the ring is full).
std::size_t ring_write_some(const Ring& ring, const std::uint8_t* src,
                            std::size_t size);

/// Copies up to `size` available bytes out of the ring, publishes the freed
/// space, and wakes the writer; returns the bytes read (0 when empty).
std::size_t ring_read_some(const Ring& ring, std::uint8_t* dst,
                           std::size_t size);

/// Bounded futex sleep until `word` changes away from `seen`. Spurious
/// returns are fine — callers re-check their condition in a loop.
void futex_wait_for_change(std::atomic<std::uint32_t>* word,
                           std::uint32_t seen, int timeout_ms);

/// Wakes every futex waiter on `word`.
void futex_wake_all(std::atomic<std::uint32_t>* word);

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
  void write_raw(const std::uint8_t* bytes, std::size_t size);

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

  /// Forks one worker per machine; worker i runs body(i, endpoint) in the
  /// child and _exit(0)s when body returns. Call exactly once.
  template <typename Body>
  void spawn(const Body& body) {
    spawn_impl(
        [](void* ctx, std::size_t machine, ShmWorkerEndpoint& endpoint) {
          (*static_cast<const Body*>(ctx))(machine, endpoint);
        },
        const_cast<void*>(static_cast<const void*>(&body)));
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
  /// Per-machine uplink frame reassembly state. The header lands in a fixed
  /// array and the payload is read DIRECTLY into the vector that ships as
  /// the ReadyFrame's payload — the drain path adds no intermediate copy on
  /// top of the ring's one memcpy out.
  struct Assembly {
    std::size_t header_filled = 0;
    std::array<std::uint8_t, kFrameHeaderBytes> header_bytes{};
    bool header_parsed = false;
    FrameHeader header{};
    std::size_t payload_filled = 0;
    std::vector<std::uint8_t> payload;
  };

  using WorkerFn = void (*)(void* ctx, std::size_t machine,
                            ShmWorkerEndpoint& endpoint);
  void spawn_impl(WorkerFn fn, void* ctx);
  void send_bytes(std::size_t machine, const std::uint8_t* bytes,
                  std::size_t size);
  /// Drains every uplink ring into its assembly buffer; completed frames
  /// move to ready_. Returns true when any byte arrived.
  bool drain_uplinks();
  bool drain_one(std::size_t machine);
  /// waitpid(WNOHANG) over machines the current round still owes a frame;
  /// a dead one gets a final drain, then shm_fail naming it.
  void check_for_dead_workers();
  [[noreturn]] void fail_missing() const;

  ShmSegment segment_;
  ShmTransportOptions options_;
  std::vector<pid_t> pids_;
  std::vector<char> alive_;
  std::vector<Assembly> assembly_;
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
