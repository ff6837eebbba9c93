// Round 0 rides the fork (distributed/shm_transport.hpp, serve_shm_worker):
// a one-round executor run over shm is one worker pool serving one round.
// Its workers are forked after the partition and the machine RNG streams,
// so each builds round 0 off its copy-on-write snapshot and nothing travels
// down the rings. The run must report zero downlink bytes, exactly k forks,
// and the in-process result seed for seed.
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/mpc_engine.hpp"

namespace rcc {
namespace {

std::vector<Edge> sorted_edges(const Matching& m) {
  EdgeList el = m.to_edge_list();
  el.sort();
  return el.edges();
}

MpcEngineConfig one_round_config(const EdgeList& graph,
                                 EngineTransport transport) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph.num_vertices());
  config.max_rounds = 1;
  config.input_already_random = true;
  config.streaming.transport = transport;
  config.streaming.shm.timeout_ms = 30000;
  return config;
}

/// The shm run forked its k workers once and shipped them nothing; its
/// ledger matches the in-process run's.
void expect_round_zero_rode_the_fork(const MpcExecutionStats& shm,
                                     const MpcExecutionStats& inproc,
                                     std::size_t k) {
  EXPECT_EQ(shm.engine_rounds, 1u);
  EXPECT_EQ(shm.transport_piece_bytes, 0u);
  EXPECT_EQ(shm.worker_forks, k);
  EXPECT_GE(shm.transport_wire_bytes, k * kFrameHeaderBytes);
  EXPECT_EQ(shm.total_comm_words, inproc.total_comm_words);
  EXPECT_EQ(shm.mpc_rounds, inproc.mpc_rounds);
  EXPECT_EQ(inproc.worker_forks, 0u);
}

TEST(DistributedForkRound, OneRoundMatchingShipsNoPieces) {
  for (std::uint64_t seed : {41u, 42u}) {
    Rng gen(seed);
    const EdgeList el = gnp(400, 5.0 / 400, gen);
    const MpcEngineConfig inproc_config =
        one_round_config(el, EngineTransport::kInproc);
    Rng inproc_rng(seed);
    const CoresetMpcMatchingResult inproc =
        coreset_mpc_matching_rounds(el, inproc_config, 0, inproc_rng);
    Rng shm_rng(seed);
    const CoresetMpcMatchingResult shm = coreset_mpc_matching_rounds(
        el, one_round_config(el, EngineTransport::kShm), 0, shm_rng);
    EXPECT_EQ(sorted_edges(inproc.matching), sorted_edges(shm.matching))
        << "seed=" << seed;
    expect_round_zero_rode_the_fork(shm.stats, inproc.stats,
                                    inproc_config.mpc.num_machines);
    EXPECT_EQ(inproc_rng.next_u64(), shm_rng.next_u64());
  }
}

TEST(DistributedForkRound, OneRoundVertexCoverShipsNoPieces) {
  for (std::uint64_t seed : {43u, 44u}) {
    Rng gen(seed);
    const EdgeList el = gnp(350, 6.0 / 350, gen);
    const MpcEngineConfig inproc_config =
        one_round_config(el, EngineTransport::kInproc);
    Rng inproc_rng(seed);
    const CoresetMpcVcResult inproc =
        coreset_mpc_vertex_cover_rounds(el, inproc_config, inproc_rng);
    Rng shm_rng(seed);
    const CoresetMpcVcResult shm = coreset_mpc_vertex_cover_rounds(
        el, one_round_config(el, EngineTransport::kShm), shm_rng);
    EXPECT_EQ(inproc.cover.vertices(), shm.cover.vertices())
        << "seed=" << seed;
    expect_round_zero_rode_the_fork(shm.stats, inproc.stats,
                                    inproc_config.mpc.num_machines);
    EXPECT_EQ(inproc_rng.next_u64(), shm_rng.next_u64());
  }
}

TEST(DistributedForkRoundDeathTest, KillRoundWithoutAPersistentPoolDies) {
  // Only a persistent shm pool serves rounds after 0; anywhere else a
  // nonzero kill round would silently inject nothing, so it is refused.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng gen(45);
  const EdgeList el = gnp(120, 0.05, gen);
  MpcEngineConfig config = one_round_config(el, EngineTransport::kSocket);
  config.streaming.faults.kill_machine = 0;
  config.streaming.faults.kill_round = 1;
  Rng rng(45);
  EXPECT_DEATH((void)coreset_mpc_vertex_cover_rounds(el, config, rng),
               "kill_round > 0 needs a persistent shm pool");
}

}  // namespace
}  // namespace rcc
