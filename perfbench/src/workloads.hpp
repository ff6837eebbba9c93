// The benchmark's workloads: what each one generates, how the solver
// process ingests and solves it through the library's public drivers, the
// benchmark-side spans of a traced solve, and the outside correctness checks
// the caller runs on every result.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "distributed/protocol_engine.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph_pack.hpp"
#include "harness.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace perfbench {

enum class Problem {
  kMatching,
  kVertexCover,
  kAugmenting,
  kStubHang,   // self-test stub: no solve ever returns
  kStubFlaky,  // self-test stub: solves on odd seeds never return
};
enum class Family { kChungLu, kBipartite, kNone };
enum class Ingest { kPack, kText, kNone };

struct WorkloadSpec {
  std::string name;
  Problem problem;
  Family family;
  /// Chung-Lu: vertex count. Bipartite: vertices per side.
  rcc::VertexId n;
  double avg_degree;
  Ingest ingest;
  rcc::EngineTransport transport;
  std::size_t k;       // machines (worker processes when cross-process)
  std::size_t rounds;  // engine rounds every solve must run (name guard)
  double deadline_s;   // per untraced solve

  bool cross_process() const {
    return transport != rcc::EngineTransport::kInproc;
  }
  rcc::VertexId left_size() const {
    return family == Family::kBipartite ? n : 0;
  }
};

/// The benchmark workloads plus the two stub solvers of the self-tests.
const WorkloadSpec* find_workload(const std::string& name);

/// Path-length cap of the augmenting workload (2k+1 with k = 2).
inline constexpr std::size_t kAugmentPathCap = 5;

// ---------------------------------------------------------------------------
// Caller side: inputs, oracle, checks.

/// The workload's input graph, a pure function of the seed.
rcc::EdgeList generate_graph(const WorkloadSpec& spec, std::uint64_t seed);

/// Writes the graph in the workload's ingest format; returns the path.
std::string write_input(const WorkloadSpec& spec, const rcc::EdgeList& graph,
                        const std::string& dir, std::uint64_t seed);

/// Outside checks of solver output against the input graph, written
/// independently of the library's own validators.
class Checker {
 public:
  explicit Checker(const rcc::EdgeList& graph);

  /// `pairs` = u0 v0 u1 v1 ...: vertex-disjoint edges of the graph.
  bool matching(const std::vector<std::uint32_t>& pairs,
                std::string& why) const;
  /// `vertices` = distinct in-range ids touching every edge of the graph.
  bool cover(const std::vector<std::uint32_t>& vertices,
             std::string& why) const;

 private:
  const rcc::EdgeList& graph_;
  std::vector<std::uint64_t> keys_;  // sorted (min << 32 | max)
};

/// Certifies nu = |maximum matching| without trusting the solvers under
/// test: on general graphs a checked matching of size floor(non-isolated/2)
/// (which no matching can beat), on bipartite graphs a checked matching and
/// a checked cover of equal size (Konig). Returns nullopt, with the reason,
/// when no certificate is found.
std::optional<std::uint64_t> certify_nu(const WorkloadSpec& spec,
                                        const rcc::EdgeList& graph,
                                        const Checker& checker,
                                        std::string& why);

// ---------------------------------------------------------------------------
// Solver side.

/// One solver process's state: the ingested input, the thread pool, and the
/// workspaces a repeat caller keeps across solves.
class Solver {
 public:
  /// Ingests `input` and creates the pool; `ready` receives the ingest span.
  Solver(const WorkloadSpec& spec, const std::string& input, Record& ready);

  /// One solve through the workload's public driver. A traced request adds
  /// the in-process twin (cross-process workloads) and the layer probes.
  Record solve(std::uint64_t seed, bool traced);

 private:
  struct Run;
  Run run(std::uint64_t seed, rcc::EngineTransport transport,
          rcc::ProtocolWorkspace& workspace);
  void probe_layers(std::uint64_t seed, Record& reply);
  rcc::EdgeSource source() const;

  const WorkloadSpec& spec_;
  std::optional<rcc::MappedGraph> mapped_;
  rcc::EdgeList heap_;
  std::unique_ptr<rcc::ThreadPool> pool_;
  rcc::ProtocolWorkspace workspace_;        // the measured solves
  rcc::ProtocolWorkspace twin_workspace_;   // in-process twins
  rcc::ProtocolWorkspace probe_workspace_;  // layer probes
};

/// `rccbench serve`: the solver process's main loop.
/// `traced` selects the warm-up's shape (a traced run warms its probes too).
int serve_main(const WorkloadSpec& spec, const std::string& input,
               bool traced, std::uint64_t warmup_seed, int cmd_fd,
               int reply_fd);

}  // namespace perfbench
