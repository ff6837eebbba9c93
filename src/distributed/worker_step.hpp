// The worker side both cross-process transports share: one machine's turn
// as a worker process (worker_step) and the fault plan tests use to pin
// every failure path.
#pragma once

#include <unistd.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "distributed/summary_wire.hpp"
#include "graph/edge_list.hpp"

namespace rcc {

/// Fault injection for the worker processes of both cross-process
/// transports; -1 disables a machine knob. A socket worker or a single-call
/// shm pool serves round 0 only, so the engine rejects a nonzero kill_round
/// there; a persistent shm pool serves every round of its executor run.
struct FaultPlan {
  /// This machine's worker exits silently instead of building its summary
  /// in round `kill_round` (after reading that round's piece) — the
  /// coordinator's deadline or dead-worker sweep must name it.
  int kill_machine = -1;
  int kill_round = 0;
  /// This machine's worker writes its frame header plus half the payload,
  /// then dies — the coordinator must reject the torn frame.
  int torn_frame_machine = -1;
  /// This machine's persistent shm worker ignores the shutdown frame and
  /// sleeps — the bounded reap must SIGKILL it and name it.
  int ignore_shutdown_machine = -1;
};

/// Fault-injection exit for worker bodies: dies without a frame and
/// without a clean exit status.
[[noreturn]] inline void worker_exit_silently() { ::_exit(3); }

/// Fault-injection stall: sleeps until killed (the ignored shutdown).
[[noreturn]] inline void worker_sleep_forever() {
  for (;;) ::pause();
}

/// One machine's turn as a worker process: fault check, build, encode,
/// write — or tear the frame.
///
///   build() -> Summary         the machine's summary for this round
///   write(head, head_bytes, body, body_bytes)
///       puts ONE frame on the transport as two back-to-back byte runs
///       (body may be empty)
///
/// An EdgeList summary (the coreset drivers' bulk shape) goes out as a
/// stack-built prefix plus its raw edge bytes, with no frame-sized staging
/// vector; every other shape, and a frame the plan tears, is encoded whole.
template <typename BuildFn, typename WriteFn>
void worker_step(const FaultPlan& faults, std::size_t machine,
                 std::uint32_t round, const BuildFn& build,
                 const WriteFn& write) {
  const auto id = static_cast<long>(machine);
  if (id == faults.kill_machine &&
      static_cast<long>(round) == faults.kill_round) {
    worker_exit_silently();
  }
  const auto summary = build();
  const auto wire_id = static_cast<std::uint32_t>(machine);
  const bool tear = id == faults.torn_frame_machine;
  if constexpr (std::is_same_v<std::decay_t<decltype(summary)>, EdgeList>) {
    if (!tear) {
      std::array<std::uint8_t, kEdgeListFramePrefixBytes> prefix;
      encode_edge_list_frame_prefix(summary, wire_id, prefix.data());
      write(prefix.data(), prefix.size(),
            reinterpret_cast<const std::uint8_t*>(summary.edges().data()),
            summary.num_edges() * sizeof(Edge));
      return;
    }
  }
  const std::vector<std::uint8_t> frame = encode_frame(summary, wire_id);
  if (tear) {
    // All of the header, half the payload: the coordinator learns WHICH
    // machine tore its frame before the worker dies.
    write(frame.data(),
          kFrameHeaderBytes + (frame.size() - kFrameHeaderBytes) / 2, nullptr,
          0);
    worker_exit_silently();
  }
  write(frame.data(), frame.size(), nullptr, 0);
}

}  // namespace rcc
