#include "workloads.hpp"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/summary_wire.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "matching/augmenting_paths.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "mpc/augmenting_rounds.hpp"
#include "mpc/coreset_mpc.hpp"
#include "partition/sharded_partition.hpp"
#include "util/timer.hpp"
#include "vertex_cover/konig.hpp"

namespace perfbench {

using rcc::EdgeList;
using rcc::EngineTransport;
using rcc::VertexId;

namespace {

// Sizes are tuned for a 4-core box: each solve takes tens to hundreds of
// milliseconds, so one run holds enough solves for a p90 with ten samples
// beyond it. Deadlines sit far above any completing solve. augment-socket
// runs 100k + 100k vertices: at 50k + 50k its 32 forks per solve made the
// p90 swing by 0.3 between runs on a shared VM; more work per fork halves
// that.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      // Theorem 1 matching protocol, in process, over an mmap'd pack.
      {"match-powerlaw", Problem::kMatching, Family::kChungLu, 10000, 100.0,
       Ingest::kPack, EngineTransport::kInproc, 8, 1, 0.25},
      // The same protocol, solver, k, ingest and average degree on a random
      // bipartite graph, 20k + 20k vertices. The driver is not told the
      // bipartition, so its machines still run the blossom, but with no odd
      // cycle it never contracts and cannot hit the hang, so every solve
      // completes. G(n, m) was tried first: its blossom hangs too, on about
      // one solve in 10^4.
      {"match-bipartite", Problem::kMatching, Family::kBipartite, 20000,
       100.0, Ingest::kPack, EngineTransport::kInproc, 8, 1, 0.25},
      // Theorem 2 vertex-cover protocol, k shm workers, text ingest.
      {"vc-shm", Problem::kVertexCover, Family::kChungLu, 10000, 400.0,
       Ingest::kText, EngineTransport::kShm, 4, 1, 3.0},
      // (1+eps) augmenting rounds, k socket workers per round.
      {"augment-socket", Problem::kAugmenting, Family::kBipartite, 100000, 8.0,
       Ingest::kPack, EngineTransport::kSocket, 4, 8, 5.0},
      // Self-test stubs: a solve that never returns, and one that never
      // returns on odd seeds.
      {"stub-hang", Problem::kStubHang, Family::kNone, 0, 0.0, Ingest::kNone,
       EngineTransport::kInproc, 1, 1, 0.2},
      {"stub-flaky", Problem::kStubFlaky, Family::kNone, 0, 0.0,
       Ingest::kNone, EngineTransport::kInproc, 1, 1, 0.2},
  };
  return all;
}

std::uint64_t edge_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

std::vector<std::uint32_t> matching_payload(const rcc::Matching& m) {
  std::vector<std::uint32_t> pairs;
  pairs.reserve(2 * m.size());
  for (VertexId v = 0; v < m.num_vertices(); ++v) {
    if (m.is_matched(v) && m.mate(v) > v) {
      pairs.push_back(v);
      pairs.push_back(m.mate(v));
    }
  }
  return pairs;
}

std::vector<std::uint32_t> cover_payload(const rcc::VertexCover& c) {
  std::vector<std::uint32_t> vertices;
  vertices.reserve(c.size());
  for (VertexId v = 0; v < c.num_vertices(); ++v) {
    if (c.contains(v)) vertices.push_back(v);
  }
  return vertices;
}

/// Threads of the solver's pool: min(hardware threads, 4).
std::size_t solver_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

double worker_hwm_kib() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Caller side.

EdgeList generate_graph(const WorkloadSpec& spec, std::uint64_t seed) {
  rcc::Rng rng(seed);
  switch (spec.family) {
    case Family::kChungLu:
      return rcc::chung_lu_power_law(spec.n, 2.5, spec.avg_degree, rng);
    case Family::kBipartite:
      return rcc::random_bipartite(spec.n, spec.n, spec.avg_degree / spec.n,
                                   rng);
    case Family::kNone:
      break;
  }
  return EdgeList(1);
}

std::string write_input(const WorkloadSpec& spec, const EdgeList& graph,
                        const std::string& dir, std::uint64_t seed) {
  const std::string stem = dir + "/" + spec.name + "-" + std::to_string(seed) +
                           "-" + std::to_string(::getpid());
  if (spec.ingest == Ingest::kText) {
    rcc::write_edge_list(graph, stem + ".txt");
    return stem + ".txt";
  }
  rcc::GraphPack::write(graph, stem + ".rgp");
  return stem + ".rgp";
}

Checker::Checker(const EdgeList& graph) : graph_(graph) {
  keys_.reserve(graph.num_edges());
  for (const rcc::Edge& e : graph) keys_.push_back(edge_key(e.u, e.v));
  std::sort(keys_.begin(), keys_.end());
}

bool Checker::matching(const std::vector<std::uint32_t>& pairs,
                       std::string& why) const {
  const VertexId n = graph_.num_vertices();
  if (pairs.size() % 2 != 0) {
    why = "odd matching payload";
    return false;
  }
  std::vector<char> used(n, 0);
  for (std::size_t i = 0; i < pairs.size(); i += 2) {
    const VertexId u = pairs[i];
    const VertexId v = pairs[i + 1];
    if (u >= n || v >= n || u == v) {
      why = "matched pair out of range or a self-loop";
      return false;
    }
    if (used[u] || used[v]) {
      why = "matching reuses a vertex";
      return false;
    }
    used[u] = used[v] = 1;
    if (!std::binary_search(keys_.begin(), keys_.end(), edge_key(u, v))) {
      why = "matched pair is not an edge of the input";
      return false;
    }
  }
  return true;
}

bool Checker::cover(const std::vector<std::uint32_t>& vertices,
                    std::string& why) const {
  const VertexId n = graph_.num_vertices();
  std::vector<char> in(n, 0);
  for (std::uint32_t v : vertices) {
    if (v >= n || in[v]) {
      why = "cover vertex out of range or repeated";
      return false;
    }
    in[v] = 1;
  }
  for (const rcc::Edge& e : graph_) {
    if (!in[e.u] && !in[e.v]) {
      why = "cover leaves an edge uncovered";
      return false;
    }
  }
  return true;
}

std::optional<std::uint64_t> certify_nu(const WorkloadSpec& spec,
                                        const EdgeList& graph,
                                        const Checker& checker,
                                        std::string& why) {
  if (spec.family == Family::kBipartite) {
    const rcc::Graph g = rcc::bipartite_graph(graph, spec.left_size());
    const rcc::Matching m = rcc::hopcroft_karp(g);
    const rcc::VertexCover c = rcc::konig_min_vertex_cover(g);
    if (!checker.matching(matching_payload(m), why) ||
        !checker.cover(cover_payload(c), why)) {
      return std::nullopt;
    }
    if (m.size() != c.size()) {
      why = "matching and cover sizes differ: no Konig certificate";
      return std::nullopt;
    }
    return m.size();
  }
  // General graph: greedy, then bounded augmenting-path passes until the
  // matching reaches floor(non-isolated / 2), which no matching can exceed.
  std::vector<char> touched(graph.num_vertices(), 0);
  for (const rcc::Edge& e : graph) touched[e.u] = touched[e.v] = 1;
  const std::uint64_t non_isolated =
      static_cast<std::uint64_t>(std::count(touched.begin(), touched.end(), 1));
  const std::uint64_t bound = non_isolated / 2;
  rcc::Rng rng(0x5eedULL);
  rcc::Matching m =
      rcc::greedy_maximal_matching(graph, rcc::GreedyOrder::kRandom, rng);
  for (std::size_t cap = 3; cap <= 21 && m.size() < bound; cap += 2) {
    rcc::augment_matching(m, graph, cap);
  }
  if (!checker.matching(matching_payload(m), why)) return std::nullopt;
  if (m.size() != bound) {
    why = "matching of size " + std::to_string(m.size()) +
          " does not meet floor(non-isolated/2) = " + std::to_string(bound);
    return std::nullopt;
  }
  return m.size();
}

// ---------------------------------------------------------------------------
// Solver side.

struct Solver::Run {
  std::vector<std::uint32_t> payload;
  rcc::MpcExecutionStats stats;
  double seconds = 0.0;
};

Solver::Solver(const WorkloadSpec& spec, const std::string& input,
               Record& ready)
    : spec_(spec) {
  rcc::WallTimer ingest;
  if (spec.ingest == Ingest::kPack) {
    mapped_.emplace(input);
    ready.set("ingest_bytes", static_cast<double>(mapped_->file_bytes()));
  } else {
    heap_ = rcc::read_edge_list(input);
    FILE* f = std::fopen(input.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      ready.set("ingest_bytes", static_cast<double>(std::ftell(f)));
      std::fclose(f);
    }
  }
  ready.set("ingest_s", ingest.seconds());
  pool_ = std::make_unique<rcc::ThreadPool>(solver_threads());
}

rcc::EdgeSource Solver::source() const {
  return mapped_ ? rcc::EdgeSource(*mapped_) : rcc::EdgeSource(heap_);
}

Solver::Run Solver::run(std::uint64_t seed, EngineTransport transport,
                        rcc::ProtocolWorkspace& workspace) {
  rcc::MpcEngineConfig config;
  config.mpc.num_machines = spec_.k;
  config.mpc.memory_words = std::uint64_t{1} << 62;  // no budget cap
  config.max_rounds = spec_.rounds;
  config.streaming.transport = transport;
  rcc::Rng rng(seed);
  Run out;
  rcc::WallTimer timer;
  switch (spec_.problem) {
    case Problem::kMatching: {
      auto r = rcc::coreset_mpc_matching_rounds(source(), config, 0, rng,
                                                pool_.get(), &workspace);
      out.seconds = timer.seconds();
      out.payload = matching_payload(r.matching);
      out.stats = std::move(r.stats);
      break;
    }
    case Problem::kVertexCover: {
      auto r = rcc::coreset_mpc_vertex_cover_rounds(source(), config, rng,
                                                    pool_.get(), &workspace);
      out.seconds = timer.seconds();
      out.payload = cover_payload(r.cover);
      out.stats = std::move(r.stats);
      break;
    }
    case Problem::kAugmenting: {
      rcc::AugmentingRoundsConfig aug;
      aug.max_path_length = kAugmentPathCap;
      auto r = rcc::run_matching_rounds_augmenting(
          source(), config, aug, spec_.left_size(), rng, pool_.get(),
          &workspace);
      out.seconds = timer.seconds();
      out.payload = matching_payload(r.matching);
      out.stats = std::move(r.stats);
      break;
    }
    case Problem::kStubHang:
    case Problem::kStubFlaky:
      break;
  }
  return out;
}

Record Solver::solve(std::uint64_t seed, bool traced) {
  Run measured = run(seed, spec_.transport, workspace_);
  const rcc::MpcExecutionStats& s = measured.stats;
  Record reply;
  reply.set("solve_s", measured.seconds);
  reply.set("comm_words", static_cast<double>(s.total_comm_words));
  double active = 0.0;
  double allocs = 0.0;
  for (const rcc::MpcRoundReport& round : s.per_round) {
    active += static_cast<double>(round.active_edges);
    allocs += static_cast<double>(round.workspace_allocations);
  }
  reply.set("piece_words", 2.0 * active);
  reply.set("active_edges", active);
  reply.set("workspace_allocs", allocs);
  reply.set("engine_rounds", static_cast<double>(s.engine_rounds));
  reply.set("augmentations", static_cast<double>(s.total_augmentations));
  reply.set("forks", static_cast<double>(s.worker_forks));
  reply.set("wire_bytes", static_cast<double>(s.transport_wire_bytes));
  reply.set("piece_bytes", static_cast<double>(s.transport_piece_bytes));
  reply.set("engine_partition_s", s.total_timing.partition_seconds);
  reply.set("engine_machines_s", s.total_timing.summaries_seconds);
  reply.set("engine_combine_s", s.total_timing.combine_seconds);
  reply.set("worker_hwm_kib", worker_hwm_kib());
  if (traced) {
    if (spec_.cross_process()) {
      const Run twin =
          run(seed, EngineTransport::kInproc, twin_workspace_);
      reply.set("twin_s", twin.seconds);
      reply.set("twin_equal", twin.payload == measured.payload ? 1.0 : 0.0);
    }
    probe_layers(seed, reply);
  }
  reply.payload = std::move(measured.payload);
  return reply;
}

namespace {

template <typename Summary>
void probe_wire(const std::vector<Summary>& summaries, Record& reply) {
  rcc::WallTimer timer;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(summaries.size());
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    frames.push_back(
        rcc::encode_frame(summaries[i], static_cast<std::uint32_t>(i)));
  }
  reply.set("encode_s", timer.seconds());
  timer.reset();
  for (const auto& frame : frames) {
    const rcc::FrameHeader header = rcc::decode_frame_header(frame.data());
    rcc::decode_frame_payload<Summary>(header,
                                       frame.data() + rcc::kFrameHeaderBytes);
  }
  reply.set("decode_s", timer.seconds());
}

}  // namespace

// Benchmark-side spans around the library's public layer calls, on exactly
// the solve's round-0 shards: the executor partitions round 0 with the
// caller's rng, so the same seed reproduces them byte for byte.
void Solver::probe_layers(std::uint64_t seed, Record& reply) {
  const rcc::EdgeSpan edges = source().edges();
  const VertexId n = edges.num_vertices();
  const std::size_t k = spec_.k;
  probe_workspace_.ensure_machines(k);

  rcc::Rng rng(seed);
  rcc::ShardedPartition<rcc::Edge> parts;
  rcc::WallTimer timer;
  parts.repartition(std::span<const rcc::Edge>(edges.data(), edges.num_edges()),
                    n, k, rng, pool_.get());
  reply.set("partition_s", timer.seconds());

  std::vector<double> build_s(k, 0.0);
  double solver_span = 0.0;
  const auto shard = [&](std::size_t i) {
    return rcc::EdgeSpan(parts.shard(i).data(), parts.shard_size(i), n);
  };
  // The matching driver is called without the bipartition (left size 0),
  // so its machines run the blossom; the probe builds the same way.
  const VertexId left =
      spec_.problem == Problem::kMatching ? 0 : spec_.left_size();
  const auto context = [&](std::size_t i) {
    return rcc::PartitionContext{n, k, i, left, &probe_workspace_.machine(i)};
  };
  switch (spec_.problem) {
    case Problem::kMatching: {
      const rcc::MaximumMatchingCoreset coreset;
      for (std::size_t i = 0; i < k; ++i) {
        rcc::Rng machine_rng(seed + i);
        timer.reset();
        const EdgeList summary = coreset.build(shard(i), context(i), machine_rng);
        build_s[i] = timer.seconds();
        const rcc::Graph g(shard(i));
        timer.reset();
        const rcc::Matching m =
            rcc::blossom_maximum_matching(g, &probe_workspace_.machine(i));
        solver_span += timer.seconds();
        if (m.size() != summary.num_edges()) reply.set("probe_mismatch", 1.0);
      }
      solver_span /= static_cast<double>(k);
      break;
    }
    case Problem::kVertexCover: {
      // The peeling is the whole machine build here, so its solver span is
      // the build itself.
      const rcc::PeelingVcCoreset coreset;
      std::vector<rcc::VcCoresetOutput> summaries;
      for (std::size_t i = 0; i < k; ++i) {
        rcc::Rng machine_rng(seed + i);
        timer.reset();
        summaries.push_back(coreset.build(shard(i), context(i), machine_rng));
        build_s[i] = timer.seconds();
        solver_span += build_s[i];
      }
      solver_span /= static_cast<double>(k);
      probe_wire(summaries, reply);
      break;
    }
    case Problem::kAugmenting: {
      // Round 0's machine build: augmenting paths against the empty
      // matching the run starts from.
      const rcc::Matching empty(n);
      std::vector<std::vector<rcc::AugmentingPath>> summaries;
      for (std::size_t i = 0; i < k; ++i) {
        timer.reset();
        summaries.push_back(rcc::find_augmenting_paths(
            shard(i), empty, kAugmentPathCap, &probe_workspace_.machine(i)));
        build_s[i] = timer.seconds();
      }
      probe_wire(summaries, reply);
      break;
    }
    case Problem::kStubHang:
    case Problem::kStubFlaky:
      break;
  }
  if (spec_.transport == EngineTransport::kShm) {
    // The persistent ring pool forks before round 0's machine phase and is
    // shut down after the last round, outside every engine phase timing:
    // time one lifecycle of the transport's public pool alone.
    timer.reset();
    rcc::ShmWorkerPool shm_pool(k, rcc::ShmTransportOptions{});
    shm_pool.spawn([](std::size_t, rcc::ShmWorkerEndpoint& endpoint) {
      while (endpoint.read_frame().header.shape !=
             rcc::SummaryShape::kShutdown) {
      }
    });
    shm_pool.shutdown_and_reap();
    reply.set("pool_s", timer.seconds());
  }
  double total = 0.0;
  for (double b : build_s) total += b;
  reply.set("build_max_s", *std::max_element(build_s.begin(), build_s.end()));
  reply.set("build_mean_s", total / static_cast<double>(k));
  reply.set("solver_span_s", solver_span);
}

// ---------------------------------------------------------------------------
// Serve loop.

namespace {

[[noreturn]] void stuck_forever() {
  while (true) ::pause();
}

bool stub_hangs(Problem problem, std::uint64_t seed) {
  return problem == Problem::kStubHang ||
         (problem == Problem::kStubFlaky && seed % 2 == 1);
}

}  // namespace

int serve_main(const WorkloadSpec& spec, const std::string& input,
               bool traced, std::uint64_t warmup_seed, int cmd_fd,
               int reply_fd) {
  ::signal(SIGPIPE, SIG_IGN);
  const bool stub = spec.problem == Problem::kStubHang ||
                    spec.problem == Problem::kStubFlaky;
  rcc::WallTimer setup;
  Record ready;
  std::unique_ptr<Solver> solver;
  if (!stub) solver = std::make_unique<Solver>(spec, input, ready);
  if (!write_frame(reply_fd, kReady, ready)) return 1;

  const auto answer = [&](std::uint64_t seed, bool traced_request) {
    if (stub) {
      if (stub_hangs(spec.problem, seed)) stuck_forever();
      Record reply;
      reply.set("solve_s", 1e-6);
      return reply;
    }
    return solver->solve(seed, traced_request);
  };
  // The warm-up has the shape of the requests this solver will serve.
  answer(warmup_seed, traced);
  Record done;
  done.set("setup_s", setup.seconds());
  if (!write_frame(reply_fd, kSetup, done)) return 1;

  while (true) {
    std::uint32_t tag = 0;
    Record command;
    if (read_frame(cmd_fd, -1.0, tag, command) != ReadStatus::kOk) return 1;
    if (tag == kQuit) return 0;
    if (tag != kSolve) return 1;
    const Record reply =
        answer(take_seed(command), command.get("traced") != 0.0);
    if (!write_frame(reply_fd, kResult, reply)) return 1;
  }
}

}  // namespace perfbench
