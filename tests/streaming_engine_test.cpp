// The streaming combine path of the ProtocolEngine
// (distributed/protocol_engine.hpp), the one coordinator fold every driver
// runs:
//
//   * machine-id absorb order is seed-for-seed reproducible: a run equals
//     the compose_* reference over its own retained summaries with the
//     caller's rng replayed through partition + k forks (matching, VC,
//     weighted matching) for every pool size, pooled runs equal sequential
//     ones, and golden pins freeze the grouped, weighted and multi-round
//     MPC entry points (solution hash, comm words, memory peak, rounds, and
//     the caller's next rng draw),
//   * the overlap telemetry reports what the path exists to create: the
//     coordinator absorbing summaries before the last one is received,
//   * the engine flags round-trip strictly, and the streaming toggle, absorb
//     order and queue capacity are unknown flags (every driver streams, in
//     one order, through one slot per machine).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "coreset/weighted_coreset.hpp"
#include "distributed/protocol.hpp"
#include "distributed/protocols.hpp"
#include "distributed/weighted_matching_protocol.hpp"
#include "distributed/weighted_vc_protocol.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/edcs_rounds.hpp"
#include "mpc/filtering_mpc.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"

namespace rcc {
namespace {

std::vector<Edge> sorted_edges(const Matching& m) {
  EdgeList el = m.to_edge_list();
  el.sort();
  return el.edges();
}

constexpr std::size_t kMachines = 5;

/// Pool sizes the reproducibility tests sweep; 0 runs without a pool.
constexpr std::size_t kPoolSizes[] = {0, 1, 2, 4, 8};

/// The caller's rng as the engine hands it to the coordinator's finish: the
/// sharded partition's draws, then one fork per machine.
template <typename Graph>
Rng coordinator_rng(const Graph& graph, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  (void)shard_random(graph, k, rng);
  for (std::size_t i = 0; i < k; ++i) (void)rng.fork();
  return rng;
}

/// Parallel unit-path edges (u, u+1) with random weights: a multigraph whose
/// weight classes all carry edges.
WeightedEdgeList weighted_path_multigraph(Rng& gen) {
  WeightedEdgeList w;
  w.num_vertices = 120;
  for (int i = 0; i < 900; ++i) {
    const auto u = static_cast<VertexId>(gen.next_below(119));
    w.add(u, static_cast<VertexId>(u + 1), gen.uniform_real(0.5, 16.0));
  }
  return w;
}


TEST(StreamingEngine, CanonicalMatchingEqualsComposeOverItsSummaries) {
  const MaximumMatchingCoreset coreset;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng gen(seed);
    const EdgeList el = gnp(400, 5.0 / 400, gen);
    for (const std::size_t threads : kPoolSizes) {
      ThreadPool pool(std::max<std::size_t>(threads, 1));
      Rng rng(seed);
      const MatchingProtocolResult r =
          run_matching_protocol(el, kMachines, coreset, ComposeSolver::kMaximum,
                                0, rng, threads > 0 ? &pool : nullptr);
      Rng reference_rng = coordinator_rng(el, kMachines, seed);
      const Matching reference = compose_matching_coresets(
          r.summaries, ComposeSolver::kMaximum, 0, reference_rng);

      EXPECT_EQ(sorted_edges(r.solution), sorted_edges(reference))
          << "seed=" << seed << " threads=" << threads;
      std::uint64_t words = 0;
      for (const EdgeList& s : r.summaries) words += 2 * s.num_edges();
      EXPECT_EQ(r.comm.total_words(), words);
      // The run leaves the caller's RNG where partition + k forks + the
      // coordinator's draws put it.
      EXPECT_EQ(rng.next_u64(), reference_rng.next_u64());
    }
  }
}

TEST(StreamingEngine, CanonicalVcEqualsComposeOverItsSummaries) {
  const PeelingVcCoreset coreset;
  for (std::uint64_t seed : {4u, 5u}) {
    Rng gen(seed);
    const EdgeList el = gnp(300, 6.0 / 300, gen);
    for (const std::size_t threads : kPoolSizes) {
      ThreadPool pool(std::max<std::size_t>(threads, 1));
      Rng rng(seed);
      const VcProtocolResult r = run_vc_protocol(el, kMachines, coreset, rng,
                                                 threads > 0 ? &pool : nullptr);
      Rng reference_rng = coordinator_rng(el, kMachines, seed);
      const VertexCover reference =
          compose_vc_coresets(r.summaries, el.num_vertices(), reference_rng);

      EXPECT_EQ(r.solution.vertices(), reference.vertices())
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(rng.next_u64(), reference_rng.next_u64());
    }
  }
}

TEST(StreamingEngine, CanonicalWeightedMatchingEqualsComposeOverItsSummaries) {
  for (std::uint64_t seed : {8u, 9u}) {
    Rng gen(seed);
    const WeightedEdgeList w = weighted_path_multigraph(gen);
    ThreadPool pool(4);
    Rng rng(seed);
    const WeightedMatchingProtocolResult r =
        weighted_matching_protocol(w, kMachines, 0, rng, &pool);
    const Matching reference =
        compose_weighted_coresets(r.summaries, w.num_vertices, 0);
    EXPECT_EQ(sorted_edges(r.solution), sorted_edges(reference));
    EXPECT_DOUBLE_EQ(r.matching_weight, matching_weight(reference, w));
    Rng reference_rng = coordinator_rng(w, kMachines, seed);
    EXPECT_EQ(rng.next_u64(), reference_rng.next_u64());
  }
}

TEST(StreamingEngine, EdcsCombinerPooledMatchesSequentialSeedForSeed) {
  // The EDCS round-combiner through the multi-round executor: a pooled run,
  // whose absorbs overlap the machine phase, must replay the sequential run
  // word for word — matched edges, ledger communication, round count, and
  // memory peaks — in both the one-round default regime and the degenerate
  // beta = 2 regime whose survivors force a second engine round.
  struct Regime {
    EdgeList edges;
    EdcsRoundsConfig edcs;
  };
  std::vector<Regime> regimes;
  {
    Rng gen(21);
    regimes.push_back({gnp(400, 5.0 / 400, gen), EdcsRoundsConfig{}});
    EdcsRoundsConfig thin;
    thin.edcs.beta = 2;
    thin.edcs.lambda = 1;
    regimes.push_back({crown_forest(12, 3), thin});
  }
  for (const Regime& regime : regimes) {
    for (std::uint64_t seed : {7u, 22u}) {
      MpcEngineConfig config;
      config.mpc.num_machines = 4;
      config.mpc.memory_words = std::uint64_t{1} << 40;
      config.max_rounds = 32;

      Rng seq_rng(seed);
      const EdcsMpcResult seq = run_matching_rounds_edcs(
          regime.edges, config, regime.edcs, 0, seq_rng);
      const std::uint64_t seq_next = seq_rng.next_u64();
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        Rng par_rng(seed);
        const EdcsMpcResult par = run_matching_rounds_edcs(
            regime.edges, config, regime.edcs, 0, par_rng, &pool);

        EXPECT_EQ(sorted_edges(seq.matching), sorted_edges(par.matching))
            << "seed=" << seed << " beta=" << regime.edcs.edcs.beta
            << " threads=" << threads;
        EXPECT_EQ(seq.cover.vertices(), par.cover.vertices());
        EXPECT_EQ(seq.stats.total_comm_words, par.stats.total_comm_words);
        EXPECT_EQ(seq.stats.engine_rounds, par.stats.engine_rounds);
        EXPECT_EQ(seq.max_memory_words, par.max_memory_words);
        EXPECT_EQ(seq.stats.round_peak_words, par.stats.round_peak_words);
        EXPECT_EQ(seq.certified, par.certified);
        // Same coordinator RNG stream position on exit.
        EXPECT_EQ(seq_next, par_rng.next_u64());
      }
    }
  }
}

TEST(StreamingEngine, SequentialRunReportsFullPipeliningTelemetry) {
  // Without a pool, build and absorb alternate machine by machine: every
  // absorb but the last lands before the k-th summary is received (the
  // field's definition — interleaving, which a pool turns into wall-clock
  // overlap).
  const MaximumMatchingCoreset coreset;
  Rng gen(13);
  const EdgeList el = gnp(200, 0.05, gen);
  {
    Rng rng(13);
    EdgeList union_edges(el.num_vertices());
    struct Probe {
      EdgeList& u;
      void absorb(EdgeList& s, std::size_t) { u.append(s); }
      Matching finish(std::vector<EdgeList>&, Rng& r) {
        return greedy_maximal_matching(u, GreedyOrder::kRandom, r);
      }
    } probe{union_edges};
    const auto build = [&](EdgeSpan piece, const PartitionContext& ctx,
                           Rng& machine_rng) {
      return coreset.build(piece, ctx, machine_rng);
    };
    const auto account = [](const EdgeList& s) {
      return MessageSize{s.num_edges(), 0};
    };
    auto result = run_protocol<Edge>(
        std::span<const Edge>(el.edges().data(), el.num_edges()),
        el.num_vertices(), kMachines, 0, rng, nullptr, build, account, probe);
    EXPECT_EQ(result.streaming.absorbed_while_machines_ran, kMachines - 1);
    EXPECT_TRUE(result.solution.valid());
  }
}

TEST(StreamingEngine, FlagsRoundTripIntoStreamingOptions) {
  Options options("streaming_engine_test");
  add_streaming_flags(options);
  add_streaming_flags(options);  // idempotent: double registration is a no-op
  const char* argv[] = {"test", "--engine-transport=socket",
                        "--engine-transport-port=4100"};
  options.parse(3, const_cast<char**>(argv));
  const StreamingOptions opts = streaming_options_from_options(options);
  EXPECT_EQ(opts.transport, EngineTransport::kSocket);
  EXPECT_EQ(opts.socket.leader_port, 4100);
  EXPECT_EQ(opts.socket.timeout_ms, 10000);  // the default deadline
}

TEST(StreamingEngine, ShmTransportFlagsRoundTripIntoStreamingOptions) {
  Options options("streaming_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-transport=shm",
                        "--engine-transport-timeout-ms=2500",
                        "--engine-shm-ring-bytes=65536"};
  options.parse(4, const_cast<char**>(argv));
  const StreamingOptions opts = streaming_options_from_options(options);
  EXPECT_EQ(opts.transport, EngineTransport::kShm);
  // One deadline flag feeds both cross-process transports.
  EXPECT_EQ(opts.shm.timeout_ms, 2500);
  EXPECT_EQ(opts.socket.timeout_ms, 2500);
  EXPECT_EQ(opts.shm.ring_bytes, 65536u);
}

TEST(StreamingEngineDeath, StreamingToggleIsAnUnknownFlag) {
  // Every driver streams, in machine-id order, through one completion slot
  // per machine: there is no on/off, order or capacity flag to parse.
  for (const std::string flag :
       {"streaming=true", "streaming-order=canonical", "queue-capacity=0"}) {
    Options options("streaming_engine_test");
    add_streaming_flags(options);
    const std::string arg = "--engine-" + flag;
    const char* argv[] = {"test", arg.c_str()};
    EXPECT_EXIT(options.parse(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2),
                "unknown flag --engine-" + flag.substr(0, flag.find('=')) +
                    " ");
  }
}

TEST(StreamingEngineDeath, UnknownTransportValueExitsStrictly) {
  Options options("streaming_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-transport=pipe"};
  options.parse(2, const_cast<char**>(argv));
  EXPECT_EXIT(streaming_options_from_options(options),
              ::testing::ExitedWithCode(2),
              "flag --engine-transport: 'pipe' is not one of 'inproc', "
              "'socket', 'shm'");
}

TEST(StreamingEngineDeath, UndersizedShmRingExitsStrictly) {
  Options options("streaming_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-shm-ring-bytes=32"};
  options.parse(2, const_cast<char**>(argv));
  EXPECT_EXIT(streaming_options_from_options(options),
              ::testing::ExitedWithCode(2),
              "flag --engine-shm-ring-bytes: 32 must be in \\[64, 2\\^30\\]");
}

TEST(StreamingEngineDeath, OverflowingTransportTimeoutExitsStrictly) {
  // Above INT_MAX the deadline would wrap negative in the transports' int
  // and every socket/shm run would time out at once.
  Options options("streaming_engine_test");
  add_streaming_flags(options);
  const char* argv[] = {"test", "--engine-transport-timeout-ms=3000000000"};
  options.parse(2, const_cast<char**>(argv));
  EXPECT_EXIT(streaming_options_from_options(options),
              ::testing::ExitedWithCode(2),
              "flag --engine-transport-timeout-ms: 3000000000 exceeds "
              "2147483647");
}

// ---------------------------------------------------------------------------
// Golden pins of the entry points whose coordinator fold is the canonical
// streaming fold: two seeds each, run sequentially and on a pool. A pin
// reduces a run to the facts a change to the combine path could move.

struct Pin {
  std::uint64_t seed;
  std::size_t size;            // matching edges / cover vertices
  std::uint64_t hash;          // FNV-1a over the sorted solution
  std::uint64_t comm_words;    // total words shipped to the coordinator
  std::uint64_t memory_words;  // MPC: ledger max_memory_words; one-round
                               // protocols: the largest machine message
  std::size_t engine_rounds;   // MPC executor rounds; 1 for protocols
  std::uint64_t next_rng;      // the caller rng's next_u64() after the run
};

std::uint64_t fnv1a(const std::vector<VertexId>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (VertexId id : ids) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (id >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t solution_hash(const Matching& m) {
  std::vector<VertexId> ids;
  for (const Edge& e : sorted_edges(m)) {
    ids.push_back(std::min(e.u, e.v));
    ids.push_back(std::max(e.u, e.v));
  }
  return fnv1a(ids);
}

std::uint64_t solution_hash(const VertexCover& c) {
  std::vector<VertexId> ids = c.vertices();
  std::sort(ids.begin(), ids.end());
  return fnv1a(ids);
}

template <typename Solution>
Pin observe(std::uint64_t seed, const Solution& solution,
            std::uint64_t comm_words, std::uint64_t memory_words,
            std::size_t engine_rounds, Rng& rng) {
  return Pin{seed, solution.size(), solution_hash(solution), comm_words,
             memory_words, engine_rounds, rng.next_u64()};
}

template <typename Run>
void expect_pins(const std::vector<Pin>& pins, const Run& run) {
  for (const Pin& pin : pins) {
    for (const bool pooled : {false, true}) {
      ThreadPool pool(4);
      const Pin got = run(pin.seed, pooled ? &pool : nullptr);
      const auto where = ::testing::Message()
                         << "seed=" << pin.seed << " pooled=" << pooled;
      EXPECT_EQ(got.size, pin.size) << where;
      EXPECT_EQ(got.hash, pin.hash) << where;
      EXPECT_EQ(got.comm_words, pin.comm_words) << where;
      EXPECT_EQ(got.memory_words, pin.memory_words) << where;
      EXPECT_EQ(got.engine_rounds, pin.engine_rounds) << where;
      EXPECT_EQ(got.next_rng, pin.next_rng) << where;
    }
  }
}

TEST(EntryPointPins, CoresetMpcMatchingRounds) {
  const std::vector<Pin> pins = {
      {90, 226, 0xb459853bbd80002bULL, 992, 1132, 2, 0x02016331fab5c959ULL},
      {91, 224, 0xb9e3bcd34f0c5227ULL, 984, 1144, 2, 0x9b09303d167df951ULL}};
  expect_pins(pins, [](std::uint64_t seed, ThreadPool* pool) {
    Rng gen(seed);
    const EdgeList el = gnp(600, 2.0 / 600, gen);
    MpcEngineConfig config;
    config.mpc = MpcConfig{8, std::uint64_t{1} << 40};
    config.max_rounds = 4;
    config.input_already_random = false;
    Rng rng(seed);
    const CoresetMpcMatchingResult r =
        coreset_mpc_matching_rounds(el, config, 0, rng, pool);
    return observe(seed, r.matching, r.stats.total_comm_words,
                   r.max_memory_words, r.stats.engine_rounds, rng);
  });
}

TEST(EntryPointPins, CoresetMpcVertexCoverRounds) {
  const std::vector<Pin> pins = {
      {92, 292, 0x0210ed038c8c1b92ULL, 14154, 15212, 2, 0xa774bad6669de1f4ULL},
      {93, 292, 0xb6112ac8b6c445f1ULL, 13746, 15162, 2, 0xdaff65ba86628ecbULL}};
  expect_pins(pins, [](std::uint64_t seed, ThreadPool* pool) {
    Rng gen(seed);
    const EdgeList el = gnp(300, 0.2, gen);
    MpcEngineConfig config;
    config.mpc = MpcConfig{4, std::uint64_t{1} << 40};
    config.max_rounds = 3;
    Rng rng(seed);
    const CoresetMpcVcResult r =
        coreset_mpc_vertex_cover_rounds(el, config, rng, pool);
    return observe(seed, r.cover, r.stats.total_comm_words,
                   r.max_memory_words, r.stats.engine_rounds, rng);
  });
}

TEST(EntryPointPins, FilteringMpcRounds) {
  const std::vector<Pin> pins = {
      {94, 194, 0x56eae6039037dfdaULL, 3194, 3064, 2, 0x5a32e64df3d65dc3ULL},
      {95, 194, 0xd7c064e0c23f1730ULL, 3006, 2886, 2, 0x6299777b00adc88cULL}};
  expect_pins(pins, [](std::uint64_t seed, ThreadPool* pool) {
    Rng gen(seed);
    const EdgeList el = gnp(400, 0.08, gen);
    MpcEngineConfig config;
    config.mpc = MpcConfig{8, 2 * 3000};
    config.max_rounds = 1000;
    Rng rng(seed);
    const FilteringMpcResult r = filtering_mpc_rounds(el, config, rng, pool);
    return observe(seed, r.maximal_matching, r.stats.total_comm_words,
                   r.max_memory_words, r.stats.engine_rounds, rng);
  });
}

TEST(EntryPointPins, GroupedVcProtocol) {
  const std::vector<Pin> pins = {
      {6, 234, 0x629ef3b58d500895ULL, 2656, 562, 1, 0x4710ac2cafac5e88ULL},
      {7, 234, 0xc00a646631724e31ULL, 2634, 542, 1, 0xe56de11ea1172caeULL}};
  expect_pins(pins, [](std::uint64_t seed, ThreadPool* pool) {
    Rng gen(seed);
    const EdgeList el = gnp(256, 0.04, gen);
    Rng rng(seed);
    const GroupedVcProtocolResult r =
        grouped_vc_protocol(el, kMachines, /*alpha=*/8.0, rng, pool);
    return observe(seed, r.solution, r.comm.total_words(),
                   r.comm.max_machine_words(), 1, rng);
  });
}

TEST(EntryPointPins, WeightedMatchingProtocol) {
  const std::vector<Pin> pins = {
      {8, 59, 0xe5466e6936a99f9eULL, 1620, 348, 1, 0xe939bdbcafbaefb4ULL},
      {9, 58, 0x733b66b70ae24385ULL, 1677, 369, 1, 0x594f599ba49ebb47ULL}};
  expect_pins(pins, [](std::uint64_t seed, ThreadPool* pool) {
    Rng gen(seed);
    const WeightedEdgeList w = weighted_path_multigraph(gen);
    Rng rng(seed);
    const WeightedMatchingProtocolResult r =
        weighted_matching_protocol(w, kMachines, 0, rng, pool);
    return observe(seed, r.solution, r.comm.total_words(),
                   r.comm.max_machine_words(), 1, rng);
  });
}

TEST(EntryPointPins, WeightedVcProtocol) {
  const std::vector<Pin> pins = {
      {8, 169, 0x1f54282118a59ce2ULL, 2086, 444, 1, 0xe939bdbcafbaefb4ULL},
      {9, 172, 0x1c6dad5bcfe09dd0ULL, 2040, 418, 1, 0x594f599ba49ebb47ULL}};
  expect_pins(pins, [](std::uint64_t seed, ThreadPool* pool) {
    Rng gen(seed);
    const EdgeList el = gnp(200, 0.05, gen);
    VertexWeights weights(el.num_vertices());
    for (double& x : weights) x = gen.uniform_real(1.0, 64.0);
    Rng rng(seed);
    const WeightedVcProtocolResult r =
        weighted_vc_protocol(el, weights, kMachines, rng, pool);
    return observe(seed, r.solution, r.comm.total_words(),
                   r.comm.max_machine_words(), 1, rng);
  });
}

}  // namespace
}  // namespace rcc
