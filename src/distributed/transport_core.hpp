// What both cross-process transports share below the protocol: the one
// frame reader, the fork and the reap of worker processes, and the helpers
// of their diagnostics. socket_transport.hpp and shm_transport.hpp differ
// only in the pipe that carries a frame's bytes.
#pragma once

#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "distributed/summary_wire.hpp"

namespace rcc {

/// Reassembles one frame from a byte stream. The 24-byte header fills a
/// fixed array and is validated by decode_frame_header the moment it is
/// whole; the payload is then read straight into the vector the ReadyFrame
/// ships, with no staging buffer and no memmove.
class FrameReader {
 public:
  /// Pulls bytes through `read(dst, max)`, which copies at most `max` bytes
  /// to `dst` and returns how many it copied (0: nothing more for now),
  /// until the frame is whole. `on_header(header)` runs once, as soon as the
  /// header parses and before the payload is allocated, so a caller can
  /// reject the frame's machine id at header time. Returns true once the
  /// frame is complete; take() then hands it over.
  template <typename Read, typename OnHeader>
  bool fill(const Read& read, const OnHeader& on_header) {
    while (!complete()) {
      const std::size_t n =
          parsed_ ? read(frame_.payload.data() + payload_filled_,
                         frame_.payload.size() - payload_filled_)
                  : read(header_bytes_.data() + header_filled_,
                         kFrameHeaderBytes - header_filled_);
      if (n == 0) return false;
      if (parsed_) {
        payload_filled_ += n;
      } else if ((header_filled_ += n) == kFrameHeaderBytes) {
        frame_.header = decode_frame_header(header_bytes_.data());
        parsed_ = true;
        on_header(frame_.header);
        frame_.payload.resize(
            static_cast<std::size_t>(frame_.header.payload_bytes));
      }
    }
    return true;
  }

  /// Moves the complete frame out and resets for the next one.
  ReadyFrame take();

  bool started() const { return header_filled_ > 0; }
  bool header_parsed() const { return parsed_; }
  const FrameHeader& header() const { return frame_.header; }
  std::size_t header_filled() const { return header_filled_; }
  std::size_t payload_filled() const { return payload_filled_; }

 private:
  bool complete() const {
    return parsed_ && payload_filled_ == frame_.payload.size();
  }

  std::array<std::uint8_t, kFrameHeaderBytes> header_bytes_{};
  std::size_t header_filled_ = 0;
  bool parsed_ = false;
  std::size_t payload_filled_ = 0;
  ReadyFrame frame_;
};

namespace transport_detail {

/// The one printf-then-abort body behind transport_fail and shm_fail:
/// prints `prefix`, the formatted message and a newline to stderr, then
/// aborts.
[[noreturn]] void vfail(const char* prefix, const char* fmt, va_list args);

std::int64_t monotonic_ms();

/// "0, 2, 5": the ids whose `done` flag is still 0, for the diagnostic of a
/// collection deadline.
std::string missing_ids(const std::vector<char>& done);

/// fork(); the child runs body(machine), then _exit(0)s — never exit(): it
/// shares the parent's address space copy-on-write and must run no atexit
/// handlers or static destructors against it. glibc's pthread_atfork
/// handlers leave malloc consistent in the child even when parent pool
/// threads are mid-allocation. Returns the child's pid, or -1 with errno
/// set.
template <typename Body>
pid_t fork_worker(std::size_t machine, const Body& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    body(machine);
    ::_exit(0);
  }
  return pid;
}

/// waitpid(WNOHANG) on machine's worker while `alive` flags it: once the
/// worker has exited it is reaped, its flag cleared and its status stored in
/// *status (which may be null). Returns whether the worker is still alive.
/// A waitpid failure aborts under `prefix`.
bool still_alive(const std::vector<pid_t>& pids, std::vector<char>& alive,
                 std::size_t machine, const char* prefix, int* status);

/// The status reap() reports for a worker it SIGKILLed at the deadline.
inline constexpr int kKilledAtDeadline = -1;

/// The one reap path of both transports. Waits for every worker flagged in
/// `alive` (clearing its flag), sweeping them all with still_alive and a
/// backoff from 10 us to 2 ms between empty sweeps. Workers still alive
/// `timeout_ms` after the call (never, when timeout_ms < 0) are SIGKILLed
/// and reaped. Returns the lowest machine id whose worker did not exit 0,
/// with its waitpid status (or kKilledAtDeadline) in *status; nullopt when
/// every worker exited 0. A waitpid failure aborts under `prefix`.
std::optional<std::size_t> reap(const std::vector<pid_t>& pids,
                                std::vector<char>& alive, int timeout_ms,
                                const char* prefix, int* status);

}  // namespace transport_detail
}  // namespace rcc
