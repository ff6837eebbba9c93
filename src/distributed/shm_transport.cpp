#include "distributed/shm_transport.hpp"

#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <new>
#include <optional>

namespace rcc {

using namespace shm_detail;
using transport_detail::monotonic_ms;
using transport_detail::still_alive;

constexpr const char* kPrefix = "shm transport: ";

void shm_fail(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  transport_detail::vfail(kPrefix, fmt, args);
}

namespace {

/// Slice of a bounded wait: short enough that liveness checks (parent pid,
/// waitpid) stay responsive, long enough that an idle wait burns no CPU.
constexpr int kWaitSliceMs = 50;

long futex_syscall(std::atomic<std::uint32_t>* word, int op, std::uint32_t val,
                   const timespec* timeout) {
  // No FUTEX_PRIVATE_FLAG: the words live in a MAP_SHARED mapping and the
  // waiter/waker are different processes.
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, val,
                   timeout, nullptr, 0);
}

/// Bounded futex sleep until `word` changes away from `seen`. Spurious
/// returns are fine — callers re-check their condition in a loop.
void futex_wait_for_change(std::atomic<std::uint32_t>* word,
                           std::uint32_t seen, int timeout_ms) {
  timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000;
  // EAGAIN (word already changed), EINTR, and ETIMEDOUT are all fine:
  // callers re-check their condition in a loop.
  futex_syscall(word, FUTEX_WAIT, seen, &ts);
}

/// Wakes every futex waiter on `word`.
void futex_wake_all(std::atomic<std::uint32_t>* word) {
  futex_syscall(word, FUTEX_WAKE, INT_MAX, nullptr);
}

/// Copies what fits (up to `size`) into the ring, publishes, and wakes the
/// reader; returns the bytes written (0 when the ring is full).
std::size_t ring_write_some(const Ring& ring, const std::uint8_t* src,
                            std::size_t size) {
  // Sole producer: tail is ours (relaxed); head needs acquire so the
  // consumer's reads of the bytes we are about to overwrite happened-before.
  const std::uint32_t head = ring.ctl->head.load(std::memory_order_acquire);
  const std::uint32_t tail = ring.ctl->tail.load(std::memory_order_relaxed);
  const std::uint32_t space = ring.capacity - (tail - head);
  if (space == 0) return 0;
  const std::size_t n = std::min<std::size_t>(size, space);
  const std::uint32_t mask = ring.capacity - 1;
  const std::uint32_t pos = tail & mask;
  const std::size_t contiguous =
      std::min<std::size_t>(n, ring.capacity - pos);
  std::memcpy(ring.data + pos, src, contiguous);
  std::memcpy(ring.data, src + contiguous, n - contiguous);
  ring.ctl->tail.store(tail + static_cast<std::uint32_t>(n),
                       std::memory_order_release);
  futex_wake_all(&ring.ctl->tail);
  return n;
}

/// Copies up to `size` available bytes out of the ring, publishes the freed
/// space, and wakes the writer; returns the bytes read (0 when empty).
std::size_t ring_read_some(const Ring& ring, std::uint8_t* dst,
                           std::size_t size) {
  const std::uint32_t tail = ring.ctl->tail.load(std::memory_order_acquire);
  const std::uint32_t head = ring.ctl->head.load(std::memory_order_relaxed);
  const std::uint32_t used = tail - head;
  if (used == 0) return 0;
  const std::size_t n = std::min<std::size_t>(size, used);
  const std::uint32_t mask = ring.capacity - 1;
  const std::uint32_t pos = head & mask;
  const std::size_t contiguous =
      std::min<std::size_t>(n, ring.capacity - pos);
  std::memcpy(dst, ring.data + pos, contiguous);
  std::memcpy(dst + contiguous, ring.data, n - contiguous);
  ring.ctl->head.store(head + static_cast<std::uint32_t>(n),
                       std::memory_order_release);
  futex_wake_all(&ring.ctl->head);
  return n;
}

Ring ring_at(std::uint8_t* base, std::uint32_t capacity, std::size_t index) {
  std::uint8_t* block = base + 64 + index * (sizeof(RingControl) + capacity);
  return Ring{reinterpret_cast<RingControl*>(block),
              block + sizeof(RingControl), capacity};
}

/// The one bounded ring-write loop of both ring ends: writes all `size`
/// bytes through `ring`, chunked, so a frame larger than the ring flows in
/// lockstep with its reader. `on_progress(n)` runs after each chunk lands
/// and resets the deadline; while the ring stays full, `on_stall(sent,
/// expired)` runs once per wait slice — it checks the reader's liveness and,
/// once `expired` (no progress for timeout_ms), fails with its caller's
/// diagnostic.
template <typename OnProgress, typename OnStall>
void ring_write_all(const Ring& ring, const std::uint8_t* bytes,
                    std::size_t size, int timeout_ms,
                    const OnProgress& on_progress, const OnStall& on_stall) {
  std::int64_t deadline = monotonic_ms() + timeout_ms;
  std::size_t sent = 0;
  while (sent < size) {
    const std::size_t n = ring_write_some(ring, bytes + sent, size - sent);
    if (n > 0) {
      sent += n;
      on_progress(n);
      deadline = monotonic_ms() + timeout_ms;
      continue;
    }
    on_stall(sent, monotonic_ms() >= deadline);
    // Sleep only while the ring is still full as of this head snapshot.
    const std::uint32_t head = ring.ctl->head.load(std::memory_order_acquire);
    if (ring.ctl->tail.load(std::memory_order_relaxed) - head ==
        ring.capacity) {
      futex_wait_for_change(&ring.ctl->head, head, kWaitSliceMs);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ShmSegment

ShmSegment::ShmSegment(std::size_t machines, std::size_t ring_bytes) {
  RCC_CHECK(machines >= 1);
  machines_ = machines;
  // Power-of-two capacity: the free-running 32-bit cursors index the ring by
  // masking, which requires the capacity to divide 2^32.
  std::size_t capacity = 64;
  while (capacity < ring_bytes) capacity <<= 1;
  RCC_CHECK(capacity <= (std::size_t{1} << 30));
  ring_capacity_ = static_cast<std::uint32_t>(capacity);

  // 64: the doorbell's cache line.
  mapping_bytes_ = 64 + machines * 2 * (sizeof(RingControl) + capacity);
  void* mapped = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    shm_fail("mmap(%zu bytes for %zu machines): %s", mapping_bytes_, machines,
             strerror(errno));
  }
  base_ = static_cast<std::uint8_t*>(mapped);
  doorbell_ = new (base_) std::atomic<std::uint32_t>(0);
  for (std::size_t i = 0; i < machines * 2; ++i) {
    RingControl* ctl = ring_at(base_, ring_capacity_, i).ctl;
    new (&ctl->head) std::atomic<std::uint32_t>(0);
    new (&ctl->tail) std::atomic<std::uint32_t>(0);
  }
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) ::munmap(base_, mapping_bytes_);
}

Ring ShmSegment::uplink(std::size_t machine) const {
  RCC_CHECK(machine < machines_);
  return ring_at(base_, ring_capacity_, 2 * machine);
}

Ring ShmSegment::downlink(std::size_t machine) const {
  RCC_CHECK(machine < machines_);
  return ring_at(base_, ring_capacity_, 2 * machine + 1);
}

// ---------------------------------------------------------------------------
// ShmWorkerEndpoint (child side)

ShmWorkerEndpoint::ShmWorkerEndpoint(const ShmSegment& segment,
                                     std::size_t machine,
                                     pid_t coordinator_pid, int timeout_ms)
    : uplink_(segment.uplink(machine)),
      downlink_(segment.downlink(machine)),
      doorbell_(segment.doorbell()),
      machine_(machine),
      coordinator_pid_(coordinator_pid),
      timeout_ms_(timeout_ms) {}

ReadyFrame ShmWorkerEndpoint::read_frame() {
  FrameReader reader;
  std::optional<std::int64_t> deadline;
  const auto read = [this](std::uint8_t* dst, std::size_t max) {
    return ring_read_some(downlink_, dst, max);
  };
  const auto check_addressee = [this](const FrameHeader& header) {
    if (header.machine != machine_) {
      shm_fail("machine %zu: downlink frame is addressed to machine %u",
               machine_, header.machine);
    }
  };
  while (!reader.fill(read, check_addressee)) {
    // Waiting for a frame to START is unbounded — a persistent worker idles
    // here between rounds — but never blind: every slice re-checks that the
    // coordinator is still our parent, and an orphan exits quietly (the
    // failure belongs to whoever killed the coordinator, not to us). Once a
    // frame has started, the rest must land within the deadline.
    if (::getppid() != coordinator_pid_) ::_exit(0);
    if (reader.started() && !deadline) {
      deadline = monotonic_ms() + timeout_ms_;
    } else if (deadline && monotonic_ms() >= *deadline) {
      const bool in_header = !reader.header_parsed();
      shm_fail("machine %zu: downlink frame stalled mid-%s "
               "(%zu of %zu bytes) for %d ms",
               machine_, in_header ? "header" : "payload",
               in_header ? reader.header_filled() : reader.payload_filled(),
               in_header ? kFrameHeaderBytes
                         : static_cast<std::size_t>(
                               reader.header().payload_bytes),
               timeout_ms_);
    }
    // Sleep only while the ring is still empty as of this tail snapshot.
    const std::uint32_t tail =
        downlink_.ctl->tail.load(std::memory_order_acquire);
    if (tail == downlink_.ctl->head.load(std::memory_order_relaxed)) {
      futex_wait_for_change(&downlink_.ctl->tail, tail, kWaitSliceMs);
    }
  }
  return reader.take();
}

void ShmWorkerEndpoint::write_frame(const std::uint8_t* prefix,
                                    std::size_t prefix_bytes,
                                    const std::uint8_t* body,
                                    std::size_t body_bytes) {
  // Stall diagnostics count bytes of the whole frame, not of the current run.
  const std::size_t frame_bytes = prefix_bytes + body_bytes;
  std::size_t before = 0;
  for (const auto& [bytes, size] :
       {std::pair{prefix, prefix_bytes}, std::pair{body, body_bytes}}) {
    ring_write_all(
        uplink_, bytes, size, timeout_ms_,
        [this](std::size_t) {
          // Publish-then-bump order matters: the coordinator snapshots the
          // doorbell BEFORE draining, so a bump after the tail store can
          // never be missed.
          doorbell_->fetch_add(1, std::memory_order_release);
          futex_wake_all(doorbell_);
        },
        [&](std::size_t sent, bool expired) {
          if (::getppid() != coordinator_pid_) ::_exit(0);
          if (expired) {
            shm_fail("machine %zu: uplink ring full for %d ms "
                     "(%zu of %zu frame bytes sent)",
                     machine_, timeout_ms_, before + sent, frame_bytes);
          }
        });
    before += size;
  }
}

// ---------------------------------------------------------------------------
// ShmWorkerPool (coordinator side)

ShmWorkerPool::ShmWorkerPool(std::size_t machines,
                             const ShmTransportOptions& options)
    : segment_(machines, options.ring_bytes),
      options_(options),
      alive_(machines, 0),
      readers_(machines),
      completed_(machines, 0) {}

ShmWorkerPool::~ShmWorkerPool() {
  // An abandoned pool: a zero deadline SIGKILLs every worker still alive.
  int status = 0;
  (void)transport_detail::reap(pids_, alive_, /*timeout_ms=*/0, kPrefix,
                               &status);
}

void ShmWorkerPool::begin_round() {
  if (rounds_begun_++ > 0) {
    RCC_CHECK(delivered_this_round_ == machines());
    ++round_;
  }
  delivered_this_round_ = 0;
  std::fill(completed_.begin(), completed_.end(), 0);
  for (const FrameReader& reader : readers_) {
    // A round boundary with half a frame in flight would silently corrupt
    // the next round's reassembly; it can only mean the caller skipped
    // next_ready() calls, which begin_round's delivered check already trips.
    RCC_CHECK(!reader.started());
  }
}

void ShmWorkerPool::send_frame(std::size_t machine, const std::uint8_t* prefix,
                               std::size_t prefix_bytes,
                               const std::uint8_t* body,
                               std::size_t body_bytes) {
  RCC_CHECK(machine < machines());
  // Stall diagnostics count bytes of the whole frame, not of the current run.
  const std::size_t frame_bytes = prefix_bytes + body_bytes;
  std::size_t before = 0;
  for (const auto& [bytes, size] :
       {std::pair{prefix, prefix_bytes}, std::pair{body, body_bytes}}) {
    ring_write_all(
        segment_.downlink(machine), bytes, size, options_.timeout_ms,
        [this](std::size_t n) { piece_bytes_ += n; },
        [&](std::size_t sent, bool expired) {
          // The ring is full: either the worker is slow (wait for it to
          // drain) or dead (name it — a full downlink would otherwise block
          // forever).
          if (!still_alive(pids_, alive_, machine, kPrefix, nullptr)) {
            shm_fail("machine %zu worker died while its round-%u frame was "
                     "being delivered (%zu of %zu bytes)",
                     machine, round_, before + sent, frame_bytes);
          }
          if (expired) {
            shm_fail("timed out after %d ms delivering a round-%u frame to "
                     "machine %zu (%zu of %zu bytes)",
                     options_.timeout_ms, round_, machine, before + sent,
                     frame_bytes);
          }
        });
    before += size;
  }
}

bool ShmWorkerPool::drain_one(std::size_t machine) {
  const Ring ring = segment_.uplink(machine);
  bool progress = false;
  const auto read = [&](std::uint8_t* dst, std::size_t max) {
    const std::size_t n = ring_read_some(ring, dst, max);
    wire_bytes_ += n;
    progress = progress || n > 0;
    return n;
  };
  if (completed_[machine] == 0) {
    const bool complete =
        readers_[machine].fill(read, [machine](const FrameHeader& header) {
          if (header.machine != machine) {
            shm_fail("frame on machine %zu's ring names machine %u", machine,
                     header.machine);
          }
        });
    if (!complete) return progress;
    completed_[machine] = 1;
    ready_.push_back(readers_[machine].take());
  }
  // One frame per machine per round is the protocol; anything after the
  // frame (a duplicate, a stray write) is a violation, caught NOW so it
  // cannot masquerade as the next round's bytes.
  std::uint8_t stray;
  const std::size_t n = ring_read_some(ring, &stray, 1);
  if (n != 0) {
    shm_fail("machine %zu sent %zu bytes beyond its round-%u frame", machine,
             n, round_);
  }
  return progress;
}

void ShmWorkerPool::check_for_dead_workers() {
  for (std::size_t m = 0; m < machines(); ++m) {
    if (completed_[m] != 0 || alive_[m] == 0 ||
        still_alive(pids_, alive_, m, kPrefix, nullptr)) {
      continue;
    }
    // The worker may have exited AFTER publishing its complete frame; drain
    // once more before declaring it dead.
    drain_one(m);
    if (completed_[m] != 0) continue;
    const FrameReader& reader = readers_[m];
    if (reader.header_parsed()) {
      shm_fail("machine %zu worker died mid-frame in round %u "
               "(%zu of %llu payload bytes)",
               m, round_, reader.payload_filled(),
               static_cast<unsigned long long>(reader.header().payload_bytes));
    }
    shm_fail("machine %zu worker died before sending its round-%u frame",
             m, round_);
  }
}

ReadyFrame ShmWorkerPool::next_ready() {
  RCC_CHECK(delivered_this_round_ < machines());
  const std::int64_t deadline = monotonic_ms() + options_.timeout_ms;
  for (;;) {
    if (!ready_.empty()) {
      ReadyFrame frame = std::move(ready_.front());
      ready_.pop_front();
      ++delivered_this_round_;
      return frame;
    }
    // Snapshot the doorbell BEFORE draining: a worker bumps it after every
    // publish, so any publish the drain below misses changes the word and
    // the futex wait returns immediately — no lost wakeups.
    const std::uint32_t doorbell =
        segment_.doorbell()->load(std::memory_order_acquire);
    bool progress = false;
    for (std::size_t m = 0; m < machines(); ++m) {
      progress = drain_one(m) || progress;
    }
    if (progress) continue;
    check_for_dead_workers();
    if (!ready_.empty()) continue;
    const std::int64_t remaining = deadline - monotonic_ms();
    if (remaining <= 0) {
      shm_fail("timed out after %d ms waiting for round-%u machine frames; "
               "missing machine ids: [%s]",
               options_.timeout_ms, round_,
               transport_detail::missing_ids(completed_).c_str());
    }
    futex_wait_for_change(
        segment_.doorbell(), doorbell,
        static_cast<int>(std::min<std::int64_t>(remaining, kWaitSliceMs)));
  }
}

void ShmWorkerPool::shutdown_and_reap() {
  for (std::size_t m = 0; m < machines(); ++m) {
    if (alive_[m] == 0) continue;
    const std::vector<std::uint8_t> frame =
        encode_shutdown_frame(static_cast<std::uint32_t>(m));
    send_frame(m, frame.data(), frame.size(), nullptr, 0);
  }
  int status = 0;
  const std::optional<std::size_t> machine = transport_detail::reap(
      pids_, alive_, options_.timeout_ms, kPrefix, &status);
  if (!machine) return;
  if (status == transport_detail::kKilledAtDeadline) {
    shm_fail("machine %zu worker ignored the shutdown handshake for %d ms; "
             "killed",
             *machine, options_.timeout_ms);
  }
  shm_fail("machine %zu worker did not exit cleanly on shutdown", *machine);
}

}  // namespace rcc
