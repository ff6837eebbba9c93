// Cross-process machine phase over loopback sockets AND shared-memory rings
// (distributed/socket_transport.hpp, distributed/shm_transport.hpp + the
// kSocket/kShm branches of distributed/protocol_engine.hpp):
//
//   (a) both multi-process backends must be seed-for-seed IDENTICAL to
//       both the in-process barrier and in-process canonical streaming —
//       exact solutions, word-exact communication ledgers, per-machine
//       summary sizes, round counts, and the caller's RNG stream position —
//       across a generator x seed x k grid for every single-round protocol
//       driver (matching, VC, grouped VC, both weighted drivers) and every
//       streaming-capable multi-round combiner (coreset matching, coreset
//       VC, filtering, augmenting, EDCS),
//   (b) transport telemetry reports what actually crossed the process
//       boundary: k frames, framed bytes >= k headers (byte-identical
//       between socket and shm — same summary_wire frames), kInproc
//       reporting zeros; fork accounting separates the persistent shm pool
//       (k forks per RUN, piece frames down the rings) from the per-round
//       forking of the socket path and of non-round-invariant shm drivers,
//   (c) backpressure: frames far larger than the ring capacity flow through
//       chunked writes without deadlock or corruption,
//   (d) fault injection: a killed worker fails the run NAMING the machine
//       and the round (no hang) — before its frame, mid-frame, and (for the
//       persistent pool) mid-run after serving a full round; silent-but-live
//       workers time out listing every missing machine id; a worker that
//       ignores the shutdown handshake is killed and named. All death tests
//       — a lost worker is a failed run, not a recoverable condition.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/protocol.hpp"
#include "distributed/protocols.hpp"
#include "distributed/shm_transport.hpp"
#include "distributed/socket_transport.hpp"
#include "distributed/summary_wire.hpp"
#include "distributed/weighted_matching_protocol.hpp"
#include "distributed/weighted_vc_protocol.hpp"
#include "graph/generators.hpp"
#include "mpc/augmenting_rounds.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/edcs_rounds.hpp"
#include "mpc/filtering_mpc.hpp"
#include "mpc/mpc_engine.hpp"
#include "util/thread_pool.hpp"

namespace rcc {
namespace {

std::vector<Edge> sorted_edges(const Matching& m) {
  EdgeList el = m.to_edge_list();
  el.sort();
  return el.edges();
}

StreamingOptions socket_options(int timeout_ms = 30000) {
  StreamingOptions opts;
  opts.transport = EngineTransport::kSocket;
  opts.socket.timeout_ms = timeout_ms;
  return opts;
}

StreamingOptions shm_options(int timeout_ms = 30000,
                             std::size_t ring_bytes = std::size_t{1} << 20) {
  StreamingOptions opts;
  opts.transport = EngineTransport::kShm;
  opts.shm.timeout_ms = timeout_ms;
  opts.shm.ring_bytes = ring_bytes;
  return opts;
}

/// The socket run received exactly one frame per machine and counted the
/// bytes behind them.
template <typename Result>
void expect_socket_telemetry(const Result& result, std::size_t k) {
  EXPECT_EQ(result.transport.kind, EngineTransport::kSocket);
  EXPECT_EQ(result.transport.frames, k);
  EXPECT_GE(result.transport.wire_bytes, k * kFrameHeaderBytes);
}

/// The shm run delivered one frame per machine through the rings, and its
/// framed bytes are IDENTICAL to the socket run's — both transports carry
/// the same summary_wire frames, only the pipe differs. A single engine
/// round outside a persistent pool forks its k workers itself.
template <typename Result>
void expect_shm_telemetry(const Result& shm, const Result& socket,
                          std::size_t k) {
  EXPECT_EQ(shm.transport.kind, EngineTransport::kShm);
  EXPECT_EQ(shm.transport.frames, k);
  EXPECT_EQ(shm.transport.wire_bytes, socket.transport.wire_bytes);
  EXPECT_EQ(shm.transport.forks, k);
}

TEST(DistributedTransport, MatchingProtocolMatchesInprocSeedForSeed) {
  const MaximumMatchingCoreset coreset;
  for (std::uint64_t seed : {1u, 2u}) {
    Rng gen(seed);
    const std::vector<EdgeList> instances = {
        gnp(300, 5.0 / 300, gen), random_bipartite(80, 100, 0.06, gen)};
    for (const EdgeList& el : instances) {
      for (const std::size_t k : {4u, 7u}) {
        Rng barrier_rng(seed);
        const MatchingProtocolResult barrier = run_matching_protocol(
            el, k, coreset, ComposeSolver::kMaximum, 0, barrier_rng);
        Rng inproc_rng(seed);
        const MatchingProtocolResult inproc = run_matching_protocol_streaming(
            el, k, coreset, ComposeSolver::kMaximum, 0, inproc_rng);
        Rng socket_rng(seed);
        const MatchingProtocolResult socket = run_matching_protocol_streaming(
            el, k, coreset, ComposeSolver::kMaximum, 0, socket_rng,
            /*pool=*/nullptr, socket_options());
        Rng shm_rng(seed);
        const MatchingProtocolResult shm = run_matching_protocol_streaming(
            el, k, coreset, ComposeSolver::kMaximum, 0, shm_rng,
            /*pool=*/nullptr, shm_options());

        EXPECT_EQ(sorted_edges(barrier.solution), sorted_edges(socket.solution))
            << "seed=" << seed << " k=" << k;
        EXPECT_EQ(sorted_edges(inproc.solution), sorted_edges(socket.solution));
        EXPECT_EQ(sorted_edges(barrier.solution), sorted_edges(shm.solution));
        EXPECT_EQ(barrier.comm.total_words(), socket.comm.total_words());
        EXPECT_EQ(barrier.comm.total_words(), shm.comm.total_words());
        ASSERT_EQ(barrier.summaries.size(), socket.summaries.size());
        ASSERT_EQ(barrier.summaries.size(), shm.summaries.size());
        for (std::size_t i = 0; i < k; ++i) {
          EXPECT_EQ(barrier.summaries[i].edges(), socket.summaries[i].edges());
          EXPECT_EQ(barrier.summaries[i].edges(), shm.summaries[i].edges());
        }
        // All four paths leave the caller's RNG at one stream position.
        const std::uint64_t expected = barrier_rng.next_u64();
        EXPECT_EQ(expected, inproc_rng.next_u64());
        EXPECT_EQ(expected, socket_rng.next_u64());
        EXPECT_EQ(expected, shm_rng.next_u64());

        expect_socket_telemetry(socket, k);
        expect_shm_telemetry(shm, socket, k);
        EXPECT_EQ(inproc.transport.kind, EngineTransport::kInproc);
        EXPECT_EQ(inproc.transport.wire_bytes, 0u);
        EXPECT_EQ(inproc.transport.frames, 0u);
      }
    }
  }
}

TEST(DistributedTransport, VcProtocolMatchesInprocSeedForSeed) {
  const PeelingVcCoreset coreset;
  for (std::uint64_t seed : {3u, 4u}) {
    Rng gen(seed);
    const EdgeList el = gnp(250, 6.0 / 250, gen);
    for (const std::size_t k : {4u, 6u}) {
      Rng barrier_rng(seed);
      const VcProtocolResult barrier =
          run_vc_protocol(el, k, coreset, barrier_rng);
      Rng socket_rng(seed);
      const VcProtocolResult socket = run_vc_protocol_streaming(
          el, k, coreset, socket_rng, /*pool=*/nullptr, socket_options());
      Rng shm_rng(seed);
      const VcProtocolResult shm = run_vc_protocol_streaming(
          el, k, coreset, shm_rng, /*pool=*/nullptr, shm_options());

      EXPECT_EQ(barrier.solution.vertices(), socket.solution.vertices())
          << "seed=" << seed << " k=" << k;
      EXPECT_EQ(barrier.solution.vertices(), shm.solution.vertices());
      EXPECT_EQ(barrier.comm.total_words(), socket.comm.total_words());
      EXPECT_EQ(barrier.comm.total_words(), shm.comm.total_words());
      ASSERT_EQ(barrier.summaries.size(), socket.summaries.size());
      ASSERT_EQ(barrier.summaries.size(), shm.summaries.size());
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(barrier.summaries[i].residual_edges.edges(),
                  socket.summaries[i].residual_edges.edges());
        EXPECT_EQ(barrier.summaries[i].fixed_vertices,
                  socket.summaries[i].fixed_vertices);
        EXPECT_EQ(barrier.summaries[i].residual_edges.edges(),
                  shm.summaries[i].residual_edges.edges());
        EXPECT_EQ(barrier.summaries[i].fixed_vertices,
                  shm.summaries[i].fixed_vertices);
      }
      const std::uint64_t expected = barrier_rng.next_u64();
      EXPECT_EQ(expected, socket_rng.next_u64());
      EXPECT_EQ(expected, shm_rng.next_u64());
      expect_socket_telemetry(socket, k);
      expect_shm_telemetry(shm, socket, k);
    }
  }
}

TEST(DistributedTransport, GroupedVcProtocolMatchesInprocSeedForSeed) {
  // kGroupedVc on the wire: core coreset in the contracted group universe
  // plus the machine's pinned group ids.
  for (std::uint64_t seed : {7u, 8u}) {
    Rng gen(seed);
    const EdgeList el = gnp(240, 6.0 / 240, gen);
    for (const std::size_t k : {4u, 6u}) {
      for (const double alpha : {26.0, 96.0}) {
        Rng barrier_rng(seed);
        const GroupedVcProtocolResult barrier =
            grouped_vc_protocol(el, k, alpha, barrier_rng);
        Rng inproc_rng(seed);
        const GroupedVcProtocolResult inproc =
            grouped_vc_protocol_streaming(el, k, alpha, inproc_rng);
        Rng socket_rng(seed);
        const GroupedVcProtocolResult socket = grouped_vc_protocol_streaming(
            el, k, alpha, socket_rng, /*pool=*/nullptr, socket_options());
        Rng shm_rng(seed);
        const GroupedVcProtocolResult shm = grouped_vc_protocol_streaming(
            el, k, alpha, shm_rng, /*pool=*/nullptr, shm_options());

        EXPECT_EQ(barrier.solution.vertices(), socket.solution.vertices())
            << "seed=" << seed << " k=" << k << " alpha=" << alpha;
        EXPECT_EQ(inproc.solution.vertices(), socket.solution.vertices());
        EXPECT_EQ(barrier.solution.vertices(), shm.solution.vertices());
        EXPECT_EQ(barrier.comm.total_words(), socket.comm.total_words());
        EXPECT_EQ(barrier.comm.total_words(), shm.comm.total_words());
        ASSERT_EQ(barrier.summaries.size(), socket.summaries.size());
        ASSERT_EQ(barrier.summaries.size(), shm.summaries.size());
        for (std::size_t i = 0; i < k; ++i) {
          // Both folds move the core out of the retained summary; the pinned
          // groups stay behind and must have crossed the wire intact.
          EXPECT_EQ(barrier.summaries[i].pinned_groups,
                    socket.summaries[i].pinned_groups);
          EXPECT_EQ(barrier.summaries[i].pinned_groups,
                    shm.summaries[i].pinned_groups);
        }
        const std::uint64_t expected = barrier_rng.next_u64();
        EXPECT_EQ(expected, inproc_rng.next_u64());
        EXPECT_EQ(expected, socket_rng.next_u64());
        EXPECT_EQ(expected, shm_rng.next_u64());
        expect_socket_telemetry(socket, k);
        expect_shm_telemetry(shm, socket, k);
      }
    }
  }
}

TEST(DistributedTransport, WeightedDriversMatchInprocSeedForSeed) {
  // Covers the two remaining wire shapes: kWeightedEdges (bit-exact doubles
  // through the frame) and kVcCoresetBatch (one coreset per weight class).
  for (std::uint64_t seed : {5u, 6u}) {
    Rng gen(seed);
    WeightedEdgeList w;
    w.num_vertices = 120;
    for (int i = 0; i < 700; ++i) {
      const auto u = static_cast<VertexId>(gen.next_below(119));
      w.add(u, static_cast<VertexId>(u + 1), gen.uniform_real(0.5, 16.0));
    }
    constexpr std::size_t k = 5;

    Rng barrier_rng(seed);
    const WeightedMatchingProtocolResult barrier =
        weighted_matching_protocol(w, k, 0, barrier_rng);
    Rng socket_rng(seed);
    const WeightedMatchingProtocolResult socket =
        weighted_matching_protocol_streaming(w, k, 0, socket_rng,
                                             /*pool=*/nullptr,
                                             /*class_base=*/2.0,
                                             socket_options());
    Rng shm_rng(seed);
    const WeightedMatchingProtocolResult shm =
        weighted_matching_protocol_streaming(w, k, 0, shm_rng,
                                             /*pool=*/nullptr,
                                             /*class_base=*/2.0,
                                             shm_options());
    EXPECT_EQ(sorted_edges(barrier.solution), sorted_edges(socket.solution));
    EXPECT_EQ(sorted_edges(barrier.solution), sorted_edges(shm.solution));
    EXPECT_EQ(barrier.matching_weight, socket.matching_weight)
        << "weights must cross the wire bit-exactly";
    EXPECT_EQ(barrier.matching_weight, shm.matching_weight);
    EXPECT_EQ(barrier.comm.total_words(), socket.comm.total_words());
    EXPECT_EQ(barrier.comm.total_words(), shm.comm.total_words());
    EXPECT_EQ(barrier.max_classes_per_machine, socket.max_classes_per_machine);
    EXPECT_EQ(barrier.max_classes_per_machine, shm.max_classes_per_machine);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    expect_socket_telemetry(socket, k);
    expect_shm_telemetry(shm, socket, k);

    const EdgeList el = gnp(180, 0.05, gen);
    VertexWeights weights(el.num_vertices());
    for (double& x : weights) x = gen.uniform_real(1.0, 64.0);
    Rng vc_barrier_rng(seed);
    const WeightedVcProtocolResult vc_barrier =
        weighted_vc_protocol(el, weights, k, vc_barrier_rng);
    Rng vc_socket_rng(seed);
    const WeightedVcProtocolResult vc_socket = weighted_vc_protocol_streaming(
        el, weights, k, vc_socket_rng, /*pool=*/nullptr, socket_options());
    Rng vc_shm_rng(seed);
    const WeightedVcProtocolResult vc_shm = weighted_vc_protocol_streaming(
        el, weights, k, vc_shm_rng, /*pool=*/nullptr, shm_options());
    EXPECT_EQ(vc_barrier.solution.vertices(), vc_socket.solution.vertices());
    EXPECT_EQ(vc_barrier.solution.vertices(), vc_shm.solution.vertices());
    EXPECT_EQ(vc_barrier.cover_cost, vc_socket.cover_cost);
    EXPECT_EQ(vc_barrier.cover_cost, vc_shm.cover_cost);
    EXPECT_EQ(vc_barrier.weight_classes, vc_socket.weight_classes);
    EXPECT_EQ(vc_barrier.weight_classes, vc_shm.weight_classes);
    const std::uint64_t vc_expected = vc_barrier_rng.next_u64();
    EXPECT_EQ(vc_expected, vc_socket_rng.next_u64());
    EXPECT_EQ(vc_expected, vc_shm_rng.next_u64());
    expect_socket_telemetry(vc_socket, k);
    expect_shm_telemetry(vc_shm, vc_socket, k);
  }
}

// ---------------------------------------------------------------------------
// Multi-round combiners through run_mpc_rounds: requesting a cross-process
// transport must replay the in-process barrier word for word, round for
// round. The socket path forks fresh workers every round; the shm path
// serves round-invariant builds (coreset matching/VC, EDCS) from ONE
// persistent worker pool — worker_forks == k for the whole run, pieces
// shipped down the rings — and re-forks per round for builds that read
// coordinator-evolving state (filtering, augmenting).

MpcEngineConfig base_config(const EdgeList& graph, std::size_t max_rounds) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph.num_vertices());
  config.max_rounds = max_rounds;
  config.input_already_random = true;
  return config;
}

MpcEngineConfig socket_config(const EdgeList& graph, std::size_t max_rounds) {
  MpcEngineConfig config = base_config(graph, max_rounds);
  config.streaming = socket_options();
  return config;
}

MpcEngineConfig shm_config(const EdgeList& graph, std::size_t max_rounds,
                           std::size_t ring_bytes = std::size_t{1} << 20) {
  MpcEngineConfig config = base_config(graph, max_rounds);
  config.streaming = shm_options(30000, ring_bytes);
  return config;
}

void expect_same_rounds(const MpcExecutionStats& barrier,
                        const MpcExecutionStats& socket) {
  EXPECT_EQ(barrier.mpc_rounds, socket.mpc_rounds);
  EXPECT_EQ(barrier.engine_rounds, socket.engine_rounds);
  EXPECT_EQ(barrier.total_comm_words, socket.total_comm_words);
  ASSERT_EQ(barrier.per_round.size(), socket.per_round.size());
  for (std::size_t i = 0; i < barrier.per_round.size(); ++i) {
    EXPECT_EQ(barrier.per_round[i].comm_words, socket.per_round[i].comm_words)
        << "round " << i;
    EXPECT_EQ(barrier.per_round[i].active_edges,
              socket.per_round[i].active_edges)
        << "round " << i;
    EXPECT_EQ(barrier.per_round[i].surviving_edges,
              socket.per_round[i].surviving_edges)
        << "round " << i;
  }
}

/// Fork accounting of a persistent-pool shm run against the socket run over
/// the same seed: the pool forked its k workers ONCE no matter how many
/// engine rounds ran, the socket path paid k per round, and both pushed the
/// same summary bytes up their pipes. Piece deliveries only exist on the
/// shm downlink, and only for rounds after the first: round 0 rides the
/// pool's fork.
void expect_persistent_pool(const MpcExecutionStats& shm,
                            const MpcExecutionStats& socket, std::size_t k) {
  EXPECT_EQ(shm.worker_forks, k);
  EXPECT_EQ(socket.worker_forks, k * socket.engine_rounds);
  EXPECT_EQ(shm.transport_wire_bytes, socket.transport_wire_bytes);
  if (shm.engine_rounds > 1) {
    EXPECT_GT(shm.transport_piece_bytes, 0u);
  } else {
    EXPECT_EQ(shm.transport_piece_bytes, 0u);
  }
  EXPECT_EQ(socket.transport_piece_bytes, 0u);
}

/// Fork accounting of an ephemeral shm run (non-round-invariant build):
/// forked per round exactly like the socket path, no piece frames — the
/// workers inherit their shards copy-on-write.
void expect_ephemeral_shm(const MpcExecutionStats& shm,
                          const MpcExecutionStats& socket, std::size_t k) {
  EXPECT_EQ(shm.worker_forks, k * shm.engine_rounds);
  EXPECT_EQ(socket.worker_forks, k * socket.engine_rounds);
  EXPECT_EQ(shm.transport_wire_bytes, socket.transport_wire_bytes);
  EXPECT_EQ(shm.transport_piece_bytes, 0u);
}

/// A deterministic fixed-round-count harness: a round-invariant build (the
/// piece itself is its summary) plus a fold that recirculates every edge, so
/// with early_stop off the run executes EXACTLY max_rounds engine rounds on
/// every transport — the coreset drivers typically converge in one round,
/// which proves correctness but not amortization. This is the probe for the
/// persistent pool's fork claim: k forks per RUN versus k per round.
MpcExecutionStats run_recirculating_rounds(const EdgeList& el,
                                           MpcEngineConfig config, Rng& rng) {
  config.early_stop = false;
  config.round_invariant_build = true;
  const auto build = [](EdgeSpan piece, const PartitionContext&, Rng&) {
    return piece.to_edge_list();
  };
  const auto account = [](const EdgeList& s) {
    return MessageSize{s.num_edges(), 0};
  };
  struct RecirculatingFold {
    void absorb(EdgeList&, std::size_t, MpcRoundContext&) {}
    EdgeList finish(std::vector<EdgeList>&, MpcRoundContext& ctx, Rng&) {
      ctx.note_progress(1);
      ctx.survivors_out().assign(ctx.active_edges());
      return std::move(ctx.survivors_out());
    }
  } fold;
  return run_mpc_rounds(el, config, 0, rng, nullptr, build, account, fold);
}

TEST(DistributedTransport, CoresetMatchingRoundsMatchOverSocketAndShm) {
  for (std::uint64_t seed : {11u, 12u}) {
    Rng gen(seed);
    const EdgeList el = gnp(400, 5.0 / 400, gen);
    const std::size_t k = base_config(el, 3).mpc.num_machines;
    Rng barrier_rng(seed);
    const CoresetMpcMatchingResult barrier = coreset_mpc_matching_rounds(
        el, base_config(el, 3), 0, barrier_rng);
    Rng socket_rng(seed);
    const CoresetMpcMatchingResult socket = coreset_mpc_matching_rounds(
        el, socket_config(el, 3), 0, socket_rng);
    Rng shm_rng(seed);
    const CoresetMpcMatchingResult shm = coreset_mpc_matching_rounds(
        el, shm_config(el, 3), 0, shm_rng);
    EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(socket.matching));
    EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(shm.matching));
    EXPECT_EQ(barrier.rounds, socket.rounds);
    EXPECT_EQ(barrier.rounds, shm.rounds);
    expect_same_rounds(barrier.stats, socket.stats);
    expect_same_rounds(barrier.stats, shm.stats);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    expect_persistent_pool(shm.stats, socket.stats, k);
  }
}

TEST(DistributedTransport, PersistentPoolAmortizesForksOverFiveRounds) {
  // The coreset drivers converge in one round on these instances, so the
  // amortization claim rides the recirculating harness: five engine rounds,
  // every one served by the k workers forked before round 0, while the
  // socket path pays k forks per round for the same bytes.
  constexpr std::size_t kRounds = 5;
  Rng gen(36);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  const std::size_t k = base_config(el, kRounds).mpc.num_machines;
  Rng barrier_rng(36);
  const MpcExecutionStats barrier =
      run_recirculating_rounds(el, base_config(el, kRounds), barrier_rng);
  Rng socket_rng(36);
  const MpcExecutionStats socket =
      run_recirculating_rounds(el, socket_config(el, kRounds), socket_rng);
  Rng shm_rng(36);
  const MpcExecutionStats shm =
      run_recirculating_rounds(el, shm_config(el, kRounds), shm_rng);
  ASSERT_EQ(barrier.engine_rounds, kRounds);
  expect_same_rounds(barrier, socket);
  expect_same_rounds(barrier, shm);
  const std::uint64_t expected = barrier_rng.next_u64();
  EXPECT_EQ(expected, socket_rng.next_u64());
  EXPECT_EQ(expected, shm_rng.next_u64());
  EXPECT_EQ(shm.worker_forks, k);               // one fork per run
  EXPECT_EQ(socket.worker_forks, k * kRounds);  // k per round
  EXPECT_EQ(shm.transport_wire_bytes, socket.transport_wire_bytes);
  EXPECT_GT(shm.transport_piece_bytes, 0u);
}

TEST(DistributedTransport, CoresetMatchingRoundsSurviveTinyUplinkRings) {
  // 512-byte rings against multi-KB summary frames: the coreset run's
  // uplink chunks dozens of handoffs per frame and must still replay the
  // barrier exactly. (Its round-0 piece rides the pool fork, so this leg
  // exercises the uplink; the recirculating test below covers the
  // downlink.)
  Rng gen(11);
  const EdgeList el = gnp(400, 5.0 / 400, gen);
  Rng barrier_rng(11);
  const CoresetMpcMatchingResult barrier =
      coreset_mpc_matching_rounds(el, base_config(el, 3), 0, barrier_rng);
  Rng shm_rng(11);
  const CoresetMpcMatchingResult shm = coreset_mpc_matching_rounds(
      el, shm_config(el, 3, /*ring_bytes=*/512), 0, shm_rng);
  EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(shm.matching));
  expect_same_rounds(barrier.stats, shm.stats);
  EXPECT_EQ(barrier_rng.next_u64(), shm_rng.next_u64());
}

TEST(DistributedTransport, RecirculatingRoundsSurviveTinyDownlinkRings) {
  // Round 0's piece rides the pool fork copy-on-write, so downlink piece
  // chunking is only exercised by rounds >= 1. The recirculating harness
  // pins four engine rounds against 512-byte rings: rounds 1-3 each ship
  // every machine's multi-KB piece through dozens of chunked ring handoffs
  // (prefix and body written back to back), and every summary chunks back
  // up — all of it must replay the barrier exactly.
  constexpr std::size_t kRounds = 4;
  Rng gen(11);
  const EdgeList el = gnp(400, 5.0 / 400, gen);
  Rng barrier_rng(11);
  const MpcExecutionStats barrier =
      run_recirculating_rounds(el, base_config(el, kRounds), barrier_rng);
  Rng shm_rng(11);
  const MpcExecutionStats shm = run_recirculating_rounds(
      el, shm_config(el, kRounds, /*ring_bytes=*/512), shm_rng);
  ASSERT_EQ(barrier.engine_rounds, kRounds);
  expect_same_rounds(barrier, shm);
  EXPECT_EQ(barrier_rng.next_u64(), shm_rng.next_u64());
  // Rounds 1-3 shipped real pieces: well beyond the four 72-byte control
  // frames a fork-served run would count.
  EXPECT_GT(shm.transport_piece_bytes,
            kRounds * base_config(el, kRounds).mpc.num_machines * 72u);
}

TEST(DistributedTransport, CoresetVcRoundsMatchOverSocketAndShm) {
  for (std::uint64_t seed : {13u, 14u}) {
    Rng gen(seed);
    const EdgeList el = gnp(350, 6.0 / 350, gen);
    const std::size_t k = base_config(el, 3).mpc.num_machines;
    Rng barrier_rng(seed);
    const CoresetMpcVcResult barrier =
        coreset_mpc_vertex_cover_rounds(el, base_config(el, 3), barrier_rng);
    Rng socket_rng(seed);
    const CoresetMpcVcResult socket =
        coreset_mpc_vertex_cover_rounds(el, socket_config(el, 3), socket_rng);
    Rng shm_rng(seed);
    const CoresetMpcVcResult shm =
        coreset_mpc_vertex_cover_rounds(el, shm_config(el, 3), shm_rng);
    EXPECT_EQ(barrier.cover.vertices(), socket.cover.vertices());
    EXPECT_EQ(barrier.cover.vertices(), shm.cover.vertices());
    EXPECT_EQ(barrier.rounds, socket.rounds);
    EXPECT_EQ(barrier.rounds, shm.rounds);
    expect_same_rounds(barrier.stats, socket.stats);
    expect_same_rounds(barrier.stats, shm.stats);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    expect_persistent_pool(shm.stats, socket.stats, k);
  }
}

TEST(DistributedTransport, FilteringRoundsMatchOverSocketAndShm) {
  for (std::uint64_t seed : {15u, 16u}) {
    Rng gen(seed);
    const EdgeList el = gnp(300, 0.06, gen);
    const std::size_t k = base_config(el, 12).mpc.num_machines;
    Rng barrier_rng(seed);
    const FilteringMpcResult barrier =
        filtering_mpc_rounds(el, base_config(el, 12), barrier_rng);
    Rng socket_rng(seed);
    const FilteringMpcResult socket =
        filtering_mpc_rounds(el, socket_config(el, 12), socket_rng);
    Rng shm_rng(seed);
    const FilteringMpcResult shm =
        filtering_mpc_rounds(el, shm_config(el, 12), shm_rng);
    EXPECT_EQ(sorted_edges(barrier.maximal_matching),
              sorted_edges(socket.maximal_matching));
    EXPECT_EQ(sorted_edges(barrier.maximal_matching),
              sorted_edges(shm.maximal_matching));
    EXPECT_EQ(barrier.cover.vertices(), socket.cover.vertices());
    EXPECT_EQ(barrier.cover.vertices(), shm.cover.vertices());
    EXPECT_EQ(barrier.filter_iterations, socket.filter_iterations);
    EXPECT_EQ(barrier.filter_iterations, shm.filter_iterations);
    expect_same_rounds(barrier.stats, socket.stats);
    expect_same_rounds(barrier.stats, shm.stats);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    // The filtering build reads the coordinator's evolving sample rate, so
    // its shm rounds re-fork ephemeral workers — no persistent pool.
    expect_ephemeral_shm(shm.stats, socket.stats, k);
  }
}

TEST(DistributedTransport, AugmentingRoundsMatchOverSocketAndShm) {
  const AugmentingRoundsConfig aug = AugmentingRoundsConfig::for_epsilon(0.34);
  for (std::uint64_t seed : {17u, 18u}) {
    Rng gen(seed);
    const EdgeList el = gnp(260, 5.0 / 260, gen);
    const std::size_t k = base_config(el, 20).mpc.num_machines;
    Rng barrier_rng(seed);
    const AugmentingMpcResult barrier = run_matching_rounds_augmenting(
        el, base_config(el, 20), aug, 0, barrier_rng);
    Rng socket_rng(seed);
    const AugmentingMpcResult socket = run_matching_rounds_augmenting(
        el, socket_config(el, 20), aug, 0, socket_rng);
    Rng shm_rng(seed);
    const AugmentingMpcResult shm = run_matching_rounds_augmenting(
        el, shm_config(el, 20), aug, 0, shm_rng);
    EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(socket.matching));
    EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(shm.matching));
    EXPECT_EQ(barrier.certified, socket.certified);
    EXPECT_EQ(barrier.certified, shm.certified);
    EXPECT_EQ(barrier.total_augmentations, socket.total_augmentations);
    EXPECT_EQ(barrier.total_augmentations, shm.total_augmentations);
    expect_same_rounds(barrier.stats, socket.stats);
    expect_same_rounds(barrier.stats, shm.stats);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    // The augmenting build searches the coordinator's current matching, so
    // its shm rounds re-fork ephemeral workers — no persistent pool.
    expect_ephemeral_shm(shm.stats, socket.stats, k);
  }
}

TEST(DistributedTransport, EdcsRoundsMatchOverSocketAndShm) {
  for (std::uint64_t seed : {19u, 20u}) {
    Rng gen(seed);
    const EdgeList el = gnp(300, 4.0 / 300, gen);
    const std::size_t k = base_config(el, 4).mpc.num_machines;
    Rng barrier_rng(seed);
    const EdcsMpcResult barrier = run_matching_rounds_edcs(
        el, base_config(el, 4), EdcsRoundsConfig{}, 0, barrier_rng);
    Rng socket_rng(seed);
    const EdcsMpcResult socket = run_matching_rounds_edcs(
        el, socket_config(el, 4), EdcsRoundsConfig{}, 0, socket_rng);
    Rng shm_rng(seed);
    const EdcsMpcResult shm = run_matching_rounds_edcs(
        el, shm_config(el, 4), EdcsRoundsConfig{}, 0, shm_rng);
    EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(socket.matching));
    EXPECT_EQ(sorted_edges(barrier.matching), sorted_edges(shm.matching));
    EXPECT_EQ(barrier.cover.vertices(), socket.cover.vertices());
    EXPECT_EQ(barrier.cover.vertices(), shm.cover.vertices());
    EXPECT_EQ(barrier.certified, socket.certified);
    EXPECT_EQ(barrier.certified, shm.certified);
    expect_same_rounds(barrier.stats, socket.stats);
    expect_same_rounds(barrier.stats, shm.stats);
    const std::uint64_t expected = barrier_rng.next_u64();
    EXPECT_EQ(expected, socket_rng.next_u64());
    EXPECT_EQ(expected, shm_rng.next_u64());
    // build_edcs is a pure function of the shard and the const beta/lambda
    // parameters, so EDCS rounds ride the persistent pool too.
    expect_persistent_pool(shm.stats, socket.stats, k);
  }
}

// ---------------------------------------------------------------------------
// Fault injection. A run missing a worker must fail FAST (within the
// configured deadline) with a diagnostic naming the machine — never hang.
// threadsafe death tests: the statement re-execs, so the fork-heavy
// transport code runs in a clean child.

/// One FaultPlan drives both cross-process transports, so each fault is
/// one death test run over both; each transport keeps its own instance,
/// deadline and diagnostic.
struct FaultCase {
  EngineTransport transport;
  std::uint64_t seed;
  int timeout_ms;
  const char* diagnostic;
};

void PrintTo(const FaultCase& c, std::ostream* os) {
  *os << (c.transport == EngineTransport::kSocket ? "socket" : "shm");
}

class FaultDeathTest : public ::testing::TestWithParam<FaultCase> {
 protected:
  /// Runs the VC protocol on a small instance over the case's transport
  /// with `faults`, expecting the case's diagnostic.
  void expect_death(FaultPlan faults) const {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const FaultCase& c = GetParam();
    Rng gen(c.seed);
    const EdgeList el = gnp(120, 0.05, gen);
    const PeelingVcCoreset coreset;
    StreamingOptions opts = c.transport == EngineTransport::kSocket
                                ? socket_options(c.timeout_ms)
                                : shm_options(c.timeout_ms);
    opts.faults = faults;
    Rng rng(c.seed);
    EXPECT_DEATH(
        (void)run_vc_protocol_streaming(el, 4, coreset, rng, nullptr, opts),
        c.diagnostic);
  }
};

using KilledWorkerDeathTest = FaultDeathTest;

TEST_P(KilledWorkerDeathTest, DiesNamingMachine) {
  FaultPlan faults;
  faults.kill_machine = 2;
  expect_death(faults);
}

INSTANTIATE_TEST_SUITE_P(
    DistributedTransport, KilledWorkerDeathTest,
    ::testing::Values(
        FaultCase{EngineTransport::kSocket, 31, 2000,
                  "socket transport: timed out after 2000 ms waiting for "
                  "machine frames; missing machine ids: \\[2\\]"},
        FaultCase{EngineTransport::kShm, 34, 5000,
                  "shm transport: machine 2 worker died before sending its "
                  "round-0 frame"}));

using PartialFrameDeathTest = FaultDeathTest;

TEST_P(PartialFrameDeathTest, DiesNamingMachine) {
  FaultPlan faults;
  faults.torn_frame_machine = 1;
  expect_death(faults);
}

INSTANTIATE_TEST_SUITE_P(
    DistributedTransport, PartialFrameDeathTest,
    ::testing::Values(
        FaultCase{EngineTransport::kSocket, 32, 10000,
                  "socket transport: machine 1 closed its connection "
                  "mid-frame"},
        FaultCase{EngineTransport::kShm, 35, 5000,
                  "shm transport: machine 1 worker died mid-frame in round "
                  "0"}));

TEST(DistributedTransportDeathTest, ConcurrentDuplicateMachineIdDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Two LIVE connections claim machine 0: the first parks after its
        // header, the second sends a complete frame. The duplicate must die
        // at the second header parse — waiting for the first claimant to
        // COMPLETE would let both absorb under arrival order while the
        // genuinely missing machine 1 never times out.
        LoopbackListener listener(0);
        FrameCollector collector(listener, /*expected=*/2,
                                 /*timeout_ms=*/5000);
        EdgeList el(4);
        el.add(0, 1);
        const std::vector<std::uint8_t> frame =
            encode_frame(el, /*machine=*/0);
        const int header_only = connect_to_leader(listener.port(), 1000);
        send_all(header_only, frame.data(), kFrameHeaderBytes);
        const int duplicate = connect_to_leader(listener.port(), 1000);
        send_all(duplicate, frame.data(), frame.size());
        (void)collector.next_ready();
        (void)collector.next_ready();
      },
      "socket transport: duplicate frame for machine 0");
}

// ---------------------------------------------------------------------------
// Shm-transport fault injection: the ring coordinator must convert every
// lost-worker condition into a bounded-time failure that names the machine
// AND the round, and the shutdown handshake must never hang on a wedged
// worker.

TEST(DistributedTransport, ShmBackpressureTinyRingStillCompletes) {
  // 256-byte rings versus frames tens of KB wide: every frame crosses in
  // hundreds of chunked ring passes. The run must neither deadlock nor
  // corrupt — the result stays byte-identical to the barrier.
  Rng gen(33);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  const PeelingVcCoreset coreset;
  Rng barrier_rng(33);
  const VcProtocolResult barrier = run_vc_protocol(el, 6, coreset, barrier_rng);
  Rng shm_rng(33);
  const VcProtocolResult shm = run_vc_protocol_streaming(
      el, 6, coreset, shm_rng, /*pool=*/nullptr,
      shm_options(/*timeout_ms=*/30000, /*ring_bytes=*/256));
  EXPECT_EQ(barrier.solution.vertices(), shm.solution.vertices());
  EXPECT_EQ(barrier.comm.total_words(), shm.comm.total_words());
  EXPECT_EQ(barrier_rng.next_u64(), shm_rng.next_u64());
}

TEST(DistributedTransportDeathTest, ShmPersistentWorkerKilledMidRunNamesRound) {
  // The pool must have served round 0 completely before the injected death:
  // a failure naming round 1 proves both the persistence (same worker, next
  // round) and the diagnosis.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng gen(11);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  MpcEngineConfig config = shm_config(el, 3);
  config.streaming.shm.timeout_ms = 5000;
  config.streaming.faults.kill_machine = 1;
  config.streaming.faults.kill_round = 1;
  Rng rng(11);
  EXPECT_DEATH(
      (void)run_recirculating_rounds(el, config, rng),
      "shm transport: machine 1 worker died before sending its round-1 "
      "frame");
}

TEST(DistributedTransportDeathTest, ShmIgnoredShutdownIsKilledAndNamed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng gen(12);
  const EdgeList el = gnp(300, 6.0 / 300, gen);
  MpcEngineConfig config = shm_config(el, 2);
  config.streaming.shm.timeout_ms = 1500;
  config.streaming.faults.ignore_shutdown_machine = 0;
  Rng rng(12);
  EXPECT_DEATH(
      (void)run_recirculating_rounds(el, config, rng),
      "shm transport: machine 0 worker ignored the shutdown handshake for "
      "1500 ms; killed");
}

TEST(DistributedTransportDeathTest, ShmSilentWorkersTimeOutListingMachines) {
  // Live-but-silent workers (no frame, no exit) are the one condition the
  // dead-worker sweep cannot classify: the round deadline fires and lists
  // every machine still owing its frame.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ShmTransportOptions opts;
        opts.timeout_ms = 1500;
        ShmWorkerPool pool(3, opts);
        pool.spawn([](std::size_t, ShmWorkerEndpoint&) {
          // Stay alive without ever writing; exit once the aborted
          // coordinator is gone so the death-test child leaks no processes.
          const pid_t parent = ::getppid();
          while (::getppid() == parent) ::usleep(20 * 1000);
          ::_exit(0);
        });
        pool.begin_round();
        (void)pool.next_ready();
      },
      "shm transport: timed out after 1500 ms waiting for round-0 machine "
      "frames; missing machine ids: \\[0, 1, 2\\]");
}

}  // namespace
}  // namespace rcc
