// The unified simultaneous-protocol engine (coordinator model, Section 2).
//
// Every protocol in this library — unweighted/weighted matching,
// unweighted/weighted/grouped vertex cover, and the MPC simulation's
// coreset round — is one instance of the same three-phase pipeline:
//
//   partition  — the sharded partitioner scatters the input into one flat
//                edge arena with a per-machine offset index (zero-copy
//                pieces; see partition/sharded_partition.hpp),
//   machines   — every machine builds its summary from its arena shard,
//                one task per machine on the thread pool, each with an
//                up-front forked RNG stream so results are independent of
//                thread scheduling,
//   combine    — the coordinator folds the k summaries into a solution
//                (matching solver / VC union / weighted merge — pluggable).
//
// The engine is generic over the edge payload (Edge / WeightedEdge), the
// summary type, and the phase callables, and returns a unified
// ProtocolResult carrying the solution, the retained summaries, word-exact
// communication stats, and per-phase wall timings. Every driver in
// protocol.hpp / protocols.hpp / weighted_*_protocol.hpp is one call to
// run_protocol (or run_protocol_on_pieces for a caller-made partition).
//
// The combine phase is a STREAMING fold: the coordinator absorbs each
// machine summary as it lands (a StreamingFold: `init / absorb(summary,
// machine) / finish`), overlapping the machine and combine phases so the
// coordinator is not gated on the slowest shard. Absorbs run in machine-id
// order: every machine-phase shape (sequential, thread pool, socket or shm
// workers) only reports the next completed machine id, and one reorder
// buffer releases the ids in ascending order, so the result does not
// depend on thread scheduling or transport.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "distributed/message.hpp"
#include "distributed/shm_transport.hpp"
#include "distributed/socket_transport.hpp"
#include "distributed/summary_wire.hpp"
#include "distributed/worker_step.hpp"
#include "graph/edge_source.hpp"
#include "partition/partition.hpp"
#include "partition/sharded_partition.hpp"
#include "util/completion.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/workspace.hpp"

namespace rcc {

class Options;

/// Wall time of each engine phase.
struct ProtocolTiming {
  double partition_seconds = 0.0;
  double summaries_seconds = 0.0;  // wall time of the machine phase plus the
                                   // overlapped absorbs, until the last
                                   // absorb returns
  double combine_seconds = 0.0;    // the fold's finish call
};

/// How machine summaries reach the coordinator.
enum class EngineTransport {
  kInproc,  // shared address space: sequential, or a thread pool
  kSocket,  // k forked worker processes streaming framed summaries over
            // loopback TCP (summary_wire.hpp / socket_transport.hpp)
  kShm,     // k forked worker processes exchanging the same frames through
            // shared-memory rings (shm_transport.hpp); persistent workers
            // when a multi-round executor provides a pool slot
};

/// Knobs of the machine phase's transport.
struct StreamingOptions {
  /// Where the machine phase runs. kSocket and kShm require a
  /// WireSerializable summary type and ignore the thread pool — the worker
  /// processes ARE the parallelism.
  EngineTransport transport = EngineTransport::kInproc;
  /// Socket-transport knobs (port, deadline); unused unless
  /// transport == kSocket.
  SocketTransportOptions socket;
  /// Shm-transport knobs (ring capacity, deadline); unused unless
  /// transport == kShm.
  ShmTransportOptions shm;
  /// Fault injection for the worker processes of either cross-process
  /// transport; the defaults inject nothing.
  FaultPlan faults;
  /// A multi-round executor's pool slot for transport == kShm, or null.
  /// Either way the engine runs the machine phase on one ShmWorkerPool
  /// whose workers serve round 0 off their fork snapshot (pieces and rng
  /// streams are inherited copy-on-write; nothing ships down):
  ///   null         a pool for this call alone, shut down before it returns;
  ///   empty slot   a pool spawned into the slot that outlives the call;
  ///   filled slot  the slot's pool serves this round: each machine's piece
  ///                and rng stream ship down its ring, no fork.
  /// The slot's owner (run_mpc_rounds, for round-invariant builds) shuts
  /// the pool down. Edge-typed pieces only.
  std::unique_ptr<ShmWorkerPool>* shm_pool = nullptr;
};

/// What crossed a process boundary; all zeros for in-process runs.
struct TransportTelemetry {
  EngineTransport kind = EngineTransport::kInproc;
  std::uint64_t wire_bytes = 0;  // framed bytes received (headers + payloads)
  std::uint64_t frames = 0;      // summary frames received (== k on success)
  /// Downlink bytes the coordinator shipped (piece-delivery frames to a
  /// persistent shm pool); 0 for a round whose pieces rode the fork.
  std::uint64_t piece_bytes = 0;
  /// Worker processes forked FOR THIS CALL: k for socket runs and for the
  /// call that spawns a shm pool, 0 for a round served by a pool spawned
  /// earlier (the amortization the pool exists to provide).
  std::uint64_t forks = 0;
};

/// What the streaming fold observed.
struct StreamingTelemetry {
  /// Summaries the coordinator absorbed before it received the k-th (last)
  /// completed summary: the pipelining the streaming fold exists to
  /// create — 0 when every absorb waits for the last machine, up to k-1.
  /// With a thread pool or worker processes this is wall-clock
  /// machine/combine overlap; a sequential run reports k-1, the same
  /// interleaving (absorb i precedes build i+1) without concurrency.
  std::size_t absorbed_while_machines_ran = 0;
};

/// What every protocol run returns: the coordinator's solution, the machine
/// summaries (retained for probes and experiments), the communication
/// ledger, per-phase timings, and the streaming overlap telemetry.
template <typename Solution, typename Summary>
struct ProtocolResult {
  Solution solution;
  std::vector<Summary> summaries;
  CommStats comm;
  ProtocolTiming timing;
  StreamingTelemetry streaming;
  TransportTelemetry transport;
};

/// Machine phases + streaming combine over pre-made pieces (arena shards, or
/// any contiguous edge storage — experiments use this to contrast random vs
/// adversarial partitionings on identical edges). This is the engine core.
///
///   build(piece, ctx, machine_rng) -> Summary   one machine's summary,
///       where piece is the typed view (EdgeSpan / WeightedEdgeSpan) over
///       the machine's shard
///   account(summary)               -> MessageSize   word-exact message cost
///
/// The StreamingFold contract:
///
///   fold.init(k)                      optional; before any machine runs
///   fold.absorb(summary, machine)     once per machine, in machine-id order;
///       runs on the CALLER's thread, overlapped with other machines' build
///       calls — it must not mutate state the build phase reads. The summary's
///       message cost is accounted before the call, so absorb may move the
///       summary's contents out. A fold that needs the cost (e.g. to charge
///       a ledger) declares absorb(summary, machine, const MessageSize&)
///       instead and receives the recorded cost — account is never
///       re-evaluated
///   fold.finish(summaries, rng) -> Solution   after every absorb; the
///       retained summary vector is passed for folds that want the whole
///       collection
///
/// RNG discipline: k machine streams are forked up front, absorb draws
/// nothing, finish gets the coordinator's rng — so the caller's rng ends at
/// the same position whatever the pool or transport.
template <typename EdgeT, typename Build, typename Account, typename StreamFold>
auto run_protocol_on_pieces(
    const std::vector<std::span<const EdgeT>>& pieces, VertexId num_vertices,
    VertexId left_size, Rng& rng, ThreadPool* pool, const Build& build,
    const Account& account, StreamFold&& fold,
    const StreamingOptions& opts = {},
    ProtocolWorkspace* workspace = nullptr) {
  using View = typename EdgeViewOf<EdgeT>::type;
  using Summary = std::decay_t<std::invoke_result_t<
      const Build&, View, const PartitionContext&, Rng&>>;
  using Solution = std::decay_t<decltype(fold.finish(
      std::declval<std::vector<Summary>&>(), std::declval<Rng&>()))>;

  const std::size_t k = pieces.size();
  RCC_CHECK(k >= 1);
  ProtocolResult<Solution, Summary> result;

  if constexpr (requires { fold.init(k); }) fold.init(k);

  // RNG streams are forked up front so the outcome does not depend on
  // thread scheduling.
  WallTimer timer;
  std::vector<Rng> machine_rngs;
  machine_rngs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) machine_rngs.push_back(rng.fork());
  result.summaries.resize(k);
  // Round-persistent scratch: machine i always receives workspace scratch i
  // (pre-grown here — the set must not grow concurrently), so repeated
  // rounds reuse one warmed working set per machine slot.
  if (workspace != nullptr) workspace->ensure_machines(k);
  // Machine i's build on any view of its piece: the arena shard (in process,
  // and in a forked worker, which inherits shard and stream copy-on-write)
  // or a piece a persistent shm worker received down its ring.
  const auto build_machine = [&](std::size_t i, View piece, Rng& machine_rng) {
    const PartitionContext ctx{
        piece.num_vertices(), k, i, left_size,
        workspace != nullptr ? &workspace->machine(i) : nullptr};
    return build(piece, ctx, machine_rng);
  };
  const auto build_shard = [&](std::size_t i) {
    return build_machine(
        i, View(pieces[i].data(), pieces[i].size(), num_vertices),
        machine_rngs[i]);
  };

  // A summary's word-exact cost is recorded the moment it is handed to the
  // coordinator — before absorb, which is thereby free to consume (move out
  // of) the retained summary; cost-aware folds get the recorded MessageSize
  // instead of re-running account.
  result.comm.per_machine.resize(k);
  const auto deliver = [&](std::size_t id) {
    result.comm.per_machine[id] = account(result.summaries[id]);
    if constexpr (requires {
                    fold.absorb(result.summaries[id], id,
                                result.comm.per_machine[id]);
                  }) {
      fold.absorb(result.summaries[id], id, result.comm.per_machine[id]);
    } else {
      fold.absorb(result.summaries[id], id);
    }
  };
  // The one collect loop. Every machine-phase shape is a source of the next
  // completed machine id, its summary already in result.summaries; one
  // CanonicalReorder releases the ids in machine-id order, so folds,
  // accounting and RNG draws are the same whatever the shape.
  const auto collect = [&](auto&& next_completed) {
    CanonicalReorder reorder(k);
    for (std::size_t received = 1; received <= k; ++received) {
      reorder.complete(next_completed(), [&](std::size_t id) {
        if (received < k) ++result.streaming.absorbed_while_machines_ran;
        deliver(id);
      });
    }
    RCC_CHECK(reorder.drained());
  };
  if (opts.transport != EngineTransport::kInproc) {
    // Cross-process machine phase: k worker processes, each forked AFTER
    // the rng streams above (so the coordinator rng's position is identical
    // to the in-process paths) and each running worker_step — fault check,
    // build on its copy-on-write inherited shard, encode, write. The thread
    // pool is ignored: workers are the parallelism.
    if constexpr (WireSerializable<Summary>) {
      RCC_CHECK((opts.faults.kill_round == 0 ||
                 (opts.transport == EngineTransport::kShm && opts.shm_pool)) &&
                "FaultPlan::kill_round > 0 needs a persistent shm pool");
      result.transport.kind = opts.transport;
      result.transport.frames = k;
      // A frame source (socket collector or shm pool) as an id source:
      // decode the next completed frame into its machine's slot.
      const auto decode_next = [&](auto& frames) {
        const auto frame = frames.next_ready();
        const std::size_t id = frame.header.machine;
        result.summaries[id] =
            decode_frame_payload<Summary>(frame.header, frame.payload.data());
        return id;
      };
      if (opts.transport == EngineTransport::kSocket) {
        // Loopback sockets: fresh workers per call, one connection each.
        LoopbackListener listener(opts.socket.leader_port);
        const std::uint16_t port = listener.port();
        const std::vector<pid_t> workers = spawn_workers(k, [&](std::size_t i) {
          worker_step(
              opts.faults, i, 0, [&] { return build_shard(i); },
              [&](const std::uint8_t* head, std::size_t head_bytes,
                  const std::uint8_t* body, std::size_t body_bytes) {
                const int fd = connect_to_leader(port, opts.socket.timeout_ms);
                send_all(fd, head, head_bytes);
                if (body_bytes > 0) send_all(fd, body, body_bytes);
              });
        });
        {
          FrameCollector collector(listener, k, opts.socket.timeout_ms);
          collect([&] { return decode_next(collector); });
          result.transport.wire_bytes = collector.wire_bytes();
          result.transport.forks = k;
        }
        reap_workers(workers);
      } else {
        // Shm rings: one pool, spawned here when this call has none — for
        // this call alone (no slot) or into an executor's slot, where it
        // outlives the call and serves the later rounds. A spawned pool's
        // round 0 rides the fork; a pool from an earlier round gets this
        // round's piece and rng stream down its rings: a stack-built prefix
        // plus the shard bytes streamed straight from the partition, never
        // a frame-sized staging vector.
        RCC_CHECK((std::is_same_v<EdgeT, Edge> || opts.shm_pool == nullptr) &&
                  "persistent shm pools take edge-typed pieces only");
        std::unique_ptr<ShmWorkerPool> call_pool;
        std::unique_ptr<ShmWorkerPool>& slot =
            opts.shm_pool != nullptr ? *opts.shm_pool : call_pool;
        const bool spawned = slot == nullptr;
        if (spawned) {
          slot = std::make_unique<ShmWorkerPool>(k, opts.shm);
          slot->spawn([&](std::size_t i, ShmWorkerEndpoint& endpoint) {
            serve_shm_worker(
                endpoint, opts.faults, [&](const PieceDeliveryView* piece) {
                  if constexpr (std::is_same_v<EdgeT, Edge>) {
                    if (piece != nullptr) {
                      Rng piece_rng = Rng::from_state(piece->rng_state);
                      return build_machine(
                          i,
                          EdgeSpan(piece->edges, piece->num_edges,
                                   piece->num_vertices),
                          piece_rng);
                    }
                  }
                  return build_shard(i);
                });
          });
        }
        ShmWorkerPool& worker_pool = *slot;
        RCC_CHECK(worker_pool.machines() == k);
        const std::uint64_t wire_before = worker_pool.wire_bytes();
        const std::uint64_t piece_before = worker_pool.piece_bytes();
        worker_pool.begin_round();
        if constexpr (std::is_same_v<EdgeT, Edge>) {
          for (std::size_t i = 0; !spawned && i < k; ++i) {
            std::array<std::uint8_t, kPieceFramePrefixBytes> prefix;
            encode_piece_frame_prefix(
                pieces[i].size(), num_vertices, machine_rngs[i].state(),
                worker_pool.round(), static_cast<std::uint32_t>(i),
                prefix.data());
            worker_pool.send_frame(
                i, prefix.data(), prefix.size(),
                reinterpret_cast<const std::uint8_t*>(pieces[i].data()),
                pieces[i].size() * sizeof(Edge));
          }
        }
        collect([&] { return decode_next(worker_pool); });
        result.transport.wire_bytes = worker_pool.wire_bytes() - wire_before;
        result.transport.piece_bytes =
            worker_pool.piece_bytes() - piece_before;
        result.transport.forks = spawned ? k : 0;
        if (call_pool != nullptr) call_pool->shutdown_and_reap();
      }
    } else {
      RCC_CHECK(!"cross-process engine transports require a "
                 "wire-serializable summary");
    }
  } else if (pool == nullptr || pool->size() == 1 || k == 1) {
    // Sequential: build and absorb alternate machine by machine. A
    // one-worker pool takes this branch too — it admits no machine/absorb
    // overlap, so the dispatch (one futex wake per machine while the
    // coordinator blocks on the completion queue) is pure overhead on top of
    // the same schedule.
    std::size_t next = 0;
    collect([&] {
      result.summaries[next] = build_shard(next);
      return next++;
    });
  } else {
    // Thread pool: each task builds its machine's summary, then publishes
    // the id (the queue's mutex is the happens-before edge to the absorb).
    CompletionQueue queue(k);
    for (std::size_t i = 0; i < k; ++i) {
      pool->submit([&, i] {
        result.summaries[i] = build_shard(i);
        queue.push(i);
      });
    }
    collect([&] { return queue.pop(); });
    pool->wait_idle();
  }
  result.timing.summaries_seconds = timer.seconds();

  timer.reset();
  result.solution = fold.finish(result.summaries, rng);
  result.timing.combine_seconds = timer.seconds();
  return result;
}

/// Adapts a sharded partition into engine pieces (zero-copy arena slices;
/// the partition must outlive the call).
template <typename EdgeT>
std::vector<std::span<const EdgeT>> pieces_of(
    const ShardedPartition<EdgeT>& parts) {
  std::vector<std::span<const EdgeT>> pieces;
  pieces.reserve(parts.num_machines());
  for (std::size_t i = 0; i < parts.num_machines(); ++i) {
    pieces.push_back(parts.shard(i));
  }
  return pieces;
}

/// The full pipeline: sharded random partition, then machines streaming
/// their summaries into the fold as they finish. The partition and machine
/// phases both run on `pool` when provided.
template <typename EdgeT, typename Build, typename Account, typename StreamFold>
auto run_protocol(std::span<const EdgeT> edges, VertexId num_vertices,
                  std::size_t k, VertexId left_size, Rng& rng,
                  ThreadPool* pool, const Build& build, const Account& account,
                  StreamFold&& fold, const StreamingOptions& opts = {}) {
  WallTimer timer;
  const ShardedPartition<EdgeT> parts(edges, num_vertices, k, rng, pool);
  const double partition_seconds = timer.seconds();

  auto result = run_protocol_on_pieces<EdgeT>(
      pieces_of(parts), num_vertices, left_size, rng, pool, build, account,
      std::forward<StreamFold>(fold), opts);
  result.timing.partition_seconds = partition_seconds;
  return result;
}

/// Registers the machine-phase transport knobs on an Options parser:
///   --engine-transport             inproc | socket (forked workers over
///                                  loopback) | shm (forked workers over
///                                  shared-memory rings)
///   --engine-transport-port        coordinator port (0 = ephemeral)
///   --engine-transport-timeout-ms  socket/shm deadline per wait
///   --engine-shm-ring-bytes        per-direction ring capacity for shm
void add_streaming_flags(Options& options);

/// Reads the knobs registered by add_streaming_flags back; exits(2) on an
/// unknown enum value or out-of-range number (strict Options philosophy).
StreamingOptions streaming_options_from_options(const Options& options);

/// Adapts a vector of owning edge lists into engine pieces (zero-copy views;
/// the lists must outlive the call). All pieces must share one vertex
/// universe — the engine rebuilds each view with the caller's num_vertices,
/// so a divergent piece would silently have its universe overridden.
inline std::vector<std::span<const Edge>> pieces_of(
    const std::vector<EdgeList>& lists) {
  std::vector<std::span<const Edge>> pieces;
  pieces.reserve(lists.size());
  for (const EdgeList& l : lists) {
    RCC_CHECK(l.num_vertices() == lists.front().num_vertices());
    pieces.emplace_back(l.edges().data(), l.num_edges());
  }
  return pieces;
}

}  // namespace rcc
