#include "distributed/transport_core.hpp"

#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace rcc {

ReadyFrame FrameReader::take() {
  RCC_CHECK(complete());
  ReadyFrame frame = std::move(frame_);
  *this = FrameReader{};
  return frame;
}

namespace transport_detail {

void vfail(const char* prefix, const char* fmt, va_list args) {
  std::fputs(prefix, stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  std::abort();
}

namespace {

[[noreturn]] void fail(const char* prefix, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  vfail(prefix, fmt, args);
}

}  // namespace

std::int64_t monotonic_ms() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

std::string missing_ids(const std::vector<char>& done) {
  std::string missing;
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (done[i] != 0) continue;
    if (!missing.empty()) missing += ", ";
    missing += std::to_string(i);
  }
  return missing;
}

bool still_alive(const std::vector<pid_t>& pids, std::vector<char>& alive,
                 std::size_t machine, const char* prefix, int* status) {
  if (alive[machine] == 0) return false;
  const pid_t r = ::waitpid(pids[machine], status, WNOHANG);
  if (r < 0 && errno != EINTR) {
    fail(prefix, "waitpid(machine %zu): %s", machine, strerror(errno));
  }
  if (r == pids[machine]) alive[machine] = 0;
  return alive[machine] != 0;
}

std::optional<std::size_t> reap(const std::vector<pid_t>& pids,
                                std::vector<char>& alive, int timeout_ms,
                                const char* prefix, int* status) {
  // `alive` may be longer than `pids`: a pool is sized before it spawns.
  std::vector<int> statuses(pids.size(), 0);
  const std::int64_t deadline = monotonic_ms() + timeout_ms;
  std::size_t live = 0;
  for (std::size_t m = 0; m < pids.size(); ++m) live += alive[m] != 0;
  // One sweep over ALL live workers per poll: workers exit concurrently, so
  // the happy path reaps the whole set in a handful of sweeps, where a
  // per-worker sleep ladder would put k sequential sleeps on every run.
  long backoff_ns = 10 * 1000;
  while (live > 0) {
    bool reaped_any = false;
    for (std::size_t m = 0; m < pids.size(); ++m) {
      if (alive[m] == 0 || still_alive(pids, alive, m, prefix, &statuses[m])) {
        continue;
      }
      --live;
      reaped_any = true;
    }
    if (live == 0) break;
    if (timeout_ms >= 0 && monotonic_ms() >= deadline) {
      for (std::size_t m = 0; m < pids.size(); ++m) {
        if (alive[m] == 0) continue;
        ::kill(pids[m], SIGKILL);
        int discard = 0;
        while (::waitpid(pids[m], &discard, 0) < 0 && errno == EINTR) {
        }
        alive[m] = 0;
        statuses[m] = kKilledAtDeadline;
      }
      break;
    }
    if (reaped_any) {
      backoff_ns = 10 * 1000;  // progress: stay hot for the stragglers
    } else {
      const timespec backoff{0, backoff_ns};
      ::nanosleep(&backoff, nullptr);
      backoff_ns = std::min(backoff_ns * 2, 2000000L);  // cap at 2 ms
    }
  }
  for (std::size_t m = 0; m < pids.size(); ++m) {
    if (statuses[m] == 0) continue;
    *status = statuses[m];
    return m;
  }
  return std::nullopt;
}

}  // namespace transport_detail
}  // namespace rcc
