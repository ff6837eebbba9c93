#include "distributed/shm_transport.hpp"

#include <errno.h>
#include <linux/futex.h>
#include <signal.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

namespace rcc {

void shm_fail(const char* fmt, ...) {
  std::fputs("shm transport: ", stderr);
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

}  // namespace

namespace shm_detail {

void futex_wait_for_change(std::atomic<std::uint32_t>* word,
                           std::uint32_t seen, int timeout_ms) {
  timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000;
  // EAGAIN (word already changed), EINTR, and ETIMEDOUT are all fine:
  // callers re-check their condition in a loop.
  futex_syscall(word, FUTEX_WAIT, seen, &ts);
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
  futex_syscall(word, FUTEX_WAKE, INT_MAX, nullptr);
}

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

}  // namespace shm_detail

namespace {

using shm_detail::Ring;
using shm_detail::RingControl;
using shm_detail::futex_wait_for_change;
using shm_detail::futex_wake_all;
using shm_detail::ring_read_some;
using shm_detail::ring_write_some;

/// True when the downlink ring is empty as of one coherent snapshot; on
/// false the caller should read again, on true it may futex-wait on the
/// tail word with `seen_tail`.
bool ring_empty_snapshot(const Ring& ring, std::uint32_t* seen_tail) {
  const std::uint32_t tail = ring.ctl->tail.load(std::memory_order_acquire);
  const std::uint32_t head = ring.ctl->head.load(std::memory_order_relaxed);
  *seen_tail = tail;
  return tail == head;
}

/// True when the ring is full as of one coherent snapshot (producer side).
bool ring_full_snapshot(const Ring& ring, std::uint32_t* seen_head) {
  const std::uint32_t head = ring.ctl->head.load(std::memory_order_acquire);
  const std::uint32_t tail = ring.ctl->tail.load(std::memory_order_relaxed);
  *seen_head = head;
  return tail - head == ring.capacity;
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

  const std::size_t ring_block = sizeof(RingControl) + capacity;
  mapping_bytes_ = 64 + machines * 2 * ring_block;  // 64: doorbell line
  void* mapped = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    shm_fail("mmap(%zu bytes for %zu machines): %s", mapping_bytes_, machines,
             strerror(errno));
  }
  base_ = static_cast<std::uint8_t*>(mapped);
  doorbell_ = new (base_) std::atomic<std::uint32_t>(0);
  for (std::size_t i = 0; i < machines * 2; ++i) {
    auto* ctl = reinterpret_cast<RingControl*>(base_ + 64 + i * ring_block);
    new (&ctl->head) std::atomic<std::uint32_t>(0);
    new (&ctl->tail) std::atomic<std::uint32_t>(0);
  }
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) ::munmap(base_, mapping_bytes_);
}

shm_detail::Ring ShmSegment::uplink(std::size_t machine) const {
  RCC_CHECK(machine < machines_);
  const std::size_t ring_block = sizeof(RingControl) + ring_capacity_;
  std::uint8_t* block = base_ + 64 + (2 * machine) * ring_block;
  return Ring{reinterpret_cast<RingControl*>(block),
              block + sizeof(RingControl), ring_capacity_};
}

shm_detail::Ring ShmSegment::downlink(std::size_t machine) const {
  RCC_CHECK(machine < machines_);
  const std::size_t ring_block = sizeof(RingControl) + ring_capacity_;
  std::uint8_t* block = base_ + 64 + (2 * machine + 1) * ring_block;
  return Ring{reinterpret_cast<RingControl*>(block),
              block + sizeof(RingControl), ring_capacity_};
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
  std::uint8_t header_bytes[kFrameHeaderBytes];
  std::size_t have = 0;
  // Waiting for a frame to START is unbounded — a persistent worker idles
  // here between rounds — but never blind: every slice re-checks that the
  // coordinator is still our parent, and an orphan exits quietly (the
  // failure belongs to whoever killed the coordinator, not to us).
  for (;;) {
    have = ring_read_some(downlink_, header_bytes, kFrameHeaderBytes);
    if (have > 0) break;
    if (::getppid() != coordinator_pid_) ::_exit(0);
    std::uint32_t seen_tail = 0;
    if (ring_empty_snapshot(downlink_, &seen_tail)) {
      futex_wait_for_change(&downlink_.ctl->tail, seen_tail, kWaitSliceMs);
    }
  }
  // A frame has started: the rest must land within the deadline.
  const std::int64_t deadline = monotonic_ms() + timeout_ms_;
  const auto read_fully = [&](std::uint8_t* dst, std::size_t need,
                              std::size_t got, const char* what) {
    while (got < need) {
      const std::size_t n = ring_read_some(downlink_, dst + got, need - got);
      if (n > 0) {
        got += n;
        continue;
      }
      if (::getppid() != coordinator_pid_) ::_exit(0);
      if (monotonic_ms() >= deadline) {
        shm_fail("machine %zu: downlink frame stalled mid-%s "
                 "(%zu of %zu bytes) for %d ms",
                 machine_, what, got, need, timeout_ms_);
      }
      std::uint32_t seen_tail = 0;
      if (ring_empty_snapshot(downlink_, &seen_tail)) {
        futex_wait_for_change(&downlink_.ctl->tail, seen_tail, kWaitSliceMs);
      }
    }
  };
  read_fully(header_bytes, kFrameHeaderBytes, have, "header");

  ReadyFrame frame;
  frame.header = decode_frame_header(header_bytes);
  if (frame.header.machine != machine_) {
    shm_fail("machine %zu: downlink frame is addressed to machine %u",
             machine_, frame.header.machine);
  }
  frame.payload.resize(static_cast<std::size_t>(frame.header.payload_bytes));
  read_fully(frame.payload.data(), frame.payload.size(), 0, "payload");
  return frame;
}

void ShmWorkerEndpoint::write_raw(const std::uint8_t* bytes,
                                  std::size_t size) {
  std::int64_t deadline = monotonic_ms() + timeout_ms_;
  std::size_t sent = 0;
  while (sent < size) {
    const std::size_t n = ring_write_some(uplink_, bytes + sent, size - sent);
    if (n > 0) {
      sent += n;
      // Publish-then-bump order matters: the coordinator snapshots the
      // doorbell BEFORE draining, so a bump after the tail store can never
      // be missed.
      doorbell_->fetch_add(1, std::memory_order_release);
      futex_wake_all(doorbell_);
      deadline = monotonic_ms() + timeout_ms_;  // progress resets the clock
      continue;
    }
    if (::getppid() != coordinator_pid_) ::_exit(0);
    if (monotonic_ms() >= deadline) {
      shm_fail("machine %zu: uplink ring full for %d ms "
               "(%zu of %zu frame bytes sent)",
               machine_, timeout_ms_, sent, size);
    }
    std::uint32_t seen_head = 0;
    if (ring_full_snapshot(uplink_, &seen_head)) {
      futex_wait_for_change(&uplink_.ctl->head, seen_head, kWaitSliceMs);
    }
  }
}

void ShmWorkerEndpoint::write_frame(const std::uint8_t* prefix,
                                    std::size_t prefix_bytes,
                                    const std::uint8_t* body,
                                    std::size_t body_bytes) {
  write_raw(prefix, prefix_bytes);
  if (body_bytes > 0) write_raw(body, body_bytes);
}

// ---------------------------------------------------------------------------
// ShmWorkerPool (coordinator side)

ShmWorkerPool::ShmWorkerPool(std::size_t machines,
                             const ShmTransportOptions& options)
    : segment_(machines, options.ring_bytes),
      options_(options),
      alive_(machines, 0),
      assembly_(machines),
      completed_(machines, 0) {}

ShmWorkerPool::~ShmWorkerPool() {
  for (std::size_t m = 0; m < pids_.size(); ++m) {
    if (alive_[m] == 0) continue;
    ::kill(pids_[m], SIGKILL);
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pids_[m], &status, 0);
    } while (r < 0 && errno == EINTR);
    alive_[m] = 0;
  }
}

void ShmWorkerPool::spawn_impl(WorkerFn fn, void* ctx) {
  RCC_CHECK(pids_.empty());
  const pid_t coordinator = ::getpid();
  for (std::size_t m = 0; m < machines(); ++m) {
    // Same fork discipline as the socket transport: the child _exits (never
    // exit) so it runs no atexit handlers or static destructors against the
    // copy-on-write state it shares with the parent.
    const pid_t pid = ::fork();
    if (pid < 0) shm_fail("fork(machine %zu): %s", m, strerror(errno));
    if (pid == 0) {
      ShmWorkerEndpoint endpoint(segment_, m, coordinator,
                                 options_.timeout_ms);
      fn(ctx, m, endpoint);
      ::_exit(0);
    }
    pids_.push_back(pid);
    alive_[m] = 1;
  }
}

void ShmWorkerPool::begin_round() {
  if (rounds_begun_++ > 0) {
    RCC_CHECK(delivered_this_round_ == machines());
    ++round_;
  }
  delivered_this_round_ = 0;
  std::fill(completed_.begin(), completed_.end(), 0);
  for (Assembly& assembly : assembly_) {
    // A round boundary with half a frame in flight would silently corrupt
    // the next round's reassembly; it can only mean the caller skipped
    // next_ready() calls, which begin_round's delivered check already trips.
    RCC_CHECK(!assembly.header_parsed && assembly.header_filled == 0);
  }
}

void ShmWorkerPool::send_bytes(std::size_t machine, const std::uint8_t* frame,
                               std::size_t size) {
  RCC_CHECK(machine < machines());
  const Ring ring = segment_.downlink(machine);
  std::int64_t deadline = monotonic_ms() + options_.timeout_ms;
  std::size_t sent = 0;
  while (sent < size) {
    const std::size_t n = ring_write_some(ring, frame + sent, size - sent);
    if (n > 0) {
      sent += n;
      piece_bytes_ += n;
      deadline = monotonic_ms() + options_.timeout_ms;
      continue;
    }
    // The ring is full: either the worker is slow (wait for it to drain) or
    // dead (name it — a full downlink would otherwise block forever).
    if (alive_[machine] != 0) {
      int status = 0;
      const pid_t r = ::waitpid(pids_[machine], &status, WNOHANG);
      if (r == pids_[machine]) alive_[machine] = 0;
    }
    if (alive_[machine] == 0) {
      shm_fail("machine %zu worker died while its round-%u frame was being "
               "delivered (%zu of %zu bytes)",
               machine, round_, sent, size);
    }
    if (monotonic_ms() >= deadline) {
      shm_fail("timed out after %d ms delivering a round-%u frame to "
               "machine %zu (%zu of %zu bytes)",
               options_.timeout_ms, round_, machine, sent, size);
    }
    std::uint32_t seen_head = 0;
    if (ring_full_snapshot(ring, &seen_head)) {
      futex_wait_for_change(&ring.ctl->head, seen_head, kWaitSliceMs);
    }
  }
}

void ShmWorkerPool::send_frame(std::size_t machine, const std::uint8_t* prefix,
                               std::size_t prefix_bytes,
                               const std::uint8_t* body,
                               std::size_t body_bytes) {
  send_bytes(machine, prefix, prefix_bytes);
  if (body_bytes > 0) send_bytes(machine, body, body_bytes);
}

bool ShmWorkerPool::drain_one(std::size_t machine) {
  Assembly& assembly = assembly_[machine];
  const Ring ring = segment_.uplink(machine);
  bool progress = false;
  for (;;) {
    if (completed_[machine] != 0) {
      // One frame per machine per round is the protocol; anything after the
      // frame (a duplicate, a stray write) is a violation, caught NOW so it
      // cannot masquerade as the next round's bytes.
      std::uint8_t stray;
      const std::size_t n = ring_read_some(ring, &stray, 1);
      if (n == 0) return progress;
      shm_fail("machine %zu sent %zu bytes beyond its round-%u frame",
               machine, n, round_);
    }
    if (!assembly.header_parsed) {
      const std::size_t n = ring_read_some(
          ring, assembly.header_bytes.data() + assembly.header_filled,
          kFrameHeaderBytes - assembly.header_filled);
      if (n == 0) return progress;
      progress = true;
      wire_bytes_ += n;
      assembly.header_filled += n;
      if (assembly.header_filled < kFrameHeaderBytes) continue;
      // decode_frame_header validates magic/version/reserved/shape/cap and
      // aborts with a wire diagnostic on violation.
      assembly.header = decode_frame_header(assembly.header_bytes.data());
      assembly.header_parsed = true;
      if (assembly.header.machine != machine) {
        shm_fail("frame on machine %zu's ring names machine %u",
                 machine, assembly.header.machine);
      }
      assembly.payload.resize(
          static_cast<std::size_t>(assembly.header.payload_bytes));
      assembly.payload_filled = 0;
    }
    if (assembly.payload_filled < assembly.payload.size()) {
      const std::size_t n = ring_read_some(
          ring, assembly.payload.data() + assembly.payload_filled,
          assembly.payload.size() - assembly.payload_filled);
      if (n == 0) return progress;
      progress = true;
      wire_bytes_ += n;
      assembly.payload_filled += n;
      if (assembly.payload_filled < assembly.payload.size()) continue;
    }
    ReadyFrame frame;
    frame.header = assembly.header;
    frame.payload = std::move(assembly.payload);
    assembly = Assembly{};
    completed_[machine] = 1;
    ready_.push_back(std::move(frame));
  }
}

bool ShmWorkerPool::drain_uplinks() {
  bool progress = false;
  for (std::size_t m = 0; m < machines(); ++m) {
    if (drain_one(m)) progress = true;
  }
  return progress;
}

void ShmWorkerPool::check_for_dead_workers() {
  for (std::size_t m = 0; m < machines(); ++m) {
    if (completed_[m] != 0 || alive_[m] == 0) continue;
    int status = 0;
    const pid_t r = ::waitpid(pids_[m], &status, WNOHANG);
    if (r != pids_[m]) continue;
    alive_[m] = 0;
    // The worker may have exited AFTER publishing its complete frame; drain
    // once more before declaring it dead.
    drain_one(m);
    if (completed_[m] != 0) continue;
    const Assembly& assembly = assembly_[m];
    if (assembly.header_parsed) {
      shm_fail("machine %zu worker died mid-frame in round %u "
               "(%zu of %llu payload bytes)",
               m, round_, assembly.payload_filled,
               static_cast<unsigned long long>(
                   assembly.header.payload_bytes));
    }
    shm_fail("machine %zu worker died before sending its round-%u frame",
             m, round_);
  }
}

void ShmWorkerPool::fail_missing() const {
  std::string missing;
  for (std::size_t m = 0; m < machines(); ++m) {
    if (completed_[m] == 0) {
      if (!missing.empty()) missing += ", ";
      missing += std::to_string(m);
    }
  }
  shm_fail("timed out after %d ms waiting for round-%u machine frames; "
           "missing machine ids: [%s]",
           options_.timeout_ms, round_, missing.c_str());
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
    if (drain_uplinks()) continue;
    check_for_dead_workers();
    if (!ready_.empty()) continue;
    const std::int64_t remaining = deadline - monotonic_ms();
    if (remaining <= 0) fail_missing();
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
    send_bytes(m, frame.data(), frame.size());
  }
  const std::int64_t deadline = monotonic_ms() + options_.timeout_ms;
  std::size_t live = 0;
  for (std::size_t m = 0; m < machines(); ++m) live += alive_[m] != 0;
  // One sweep over ALL live workers per poll, with an exponential backoff
  // from 10 us between empty sweeps: the workers were all woken by their
  // shutdown frames above and exit concurrently, so the happy path reaps
  // the whole pool in a handful of sweeps — a per-machine millisecond-scale
  // sleep ladder would put k sequential sleeps on every pooled run.
  long backoff_ns = 10 * 1000;
  while (live > 0) {
    bool reaped_any = false;
    for (std::size_t m = 0; m < machines(); ++m) {
      if (alive_[m] == 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(pids_[m], &status, WNOHANG);
      if (r == pids_[m]) {
        alive_[m] = 0;
        --live;
        reaped_any = true;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (!clean) {
          shm_fail("machine %zu worker did not exit cleanly on shutdown", m);
        }
        continue;
      }
      if (r < 0 && errno != EINTR) {
        shm_fail("waitpid(machine %zu): %s", m, strerror(errno));
      }
    }
    if (live == 0) break;
    if (monotonic_ms() >= deadline) {
      for (std::size_t m = 0; m < machines(); ++m) {
        if (alive_[m] == 0) continue;
        ::kill(pids_[m], SIGKILL);
        int discard = 0;
        ::waitpid(pids_[m], &discard, 0);
        alive_[m] = 0;
        shm_fail("machine %zu worker ignored the shutdown handshake for "
                 "%d ms; killed",
                 m, options_.timeout_ms);
      }
    }
    if (reaped_any) {
      backoff_ns = 10 * 1000;  // progress: stay hot for the stragglers
    } else {
      const timespec backoff{0, backoff_ns};
      ::nanosleep(&backoff, nullptr);
      backoff_ns = std::min(backoff_ns * 2, 2000000L);  // cap at 2 ms
    }
  }
}

}  // namespace rcc
