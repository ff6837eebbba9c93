#include "distributed/protocol.hpp"

#include <utility>

#include "matching/greedy.hpp"
#include "matching/max_matching.hpp"
#include "vertex_cover/approx.hpp"

namespace rcc {

namespace {

/// The machine phase of both protocols: the caller's coreset on the shard.
template <typename Coreset>
auto coreset_build(const Coreset& coreset) {
  return [&coreset](EdgeSpan piece, const PartitionContext& ctx,
                    Rng& machine_rng) {
    return coreset.build(piece, ctx, machine_rng);
  };
}

MessageSize matching_cost(const EdgeList& summary) {
  return MessageSize{summary.num_edges(), 0};
}

MessageSize vc_cost(const VcCoresetOutput& summary) {
  return MessageSize{summary.residual_edges.num_edges(),
                     summary.fixed_vertices.size()};
}

/// StreamingFold of the matching protocol: absorb unions the coreset
/// subgraphs as machines finish (canonical order reproduces
/// compose_matching_coresets' EdgeList::union_of byte for byte), finish
/// solves the union. Absorb touches only the coordinator's union, never
/// anything the machine phase reads.
struct MatchingStreamFold {
  ComposeSolver solver;
  VertexId left_size;
  EdgeList union_edges;

  void absorb(EdgeList& summary, std::size_t /*machine*/) {
    union_edges.append(summary);
  }
  Matching finish(std::vector<EdgeList>& /*summaries*/, Rng& rng) {
    if (solver == ComposeSolver::kMaximum) {
      return maximum_matching(union_edges, left_size);
    }
    return greedy_maximal_matching(union_edges, GreedyOrder::kRandom, rng);
  }
};

/// StreamingFold of the VC protocol: absorb accumulates fixed vertices and
/// the raw residual union; finish drops residual edges the complete fixed
/// set already covers and 2-approximates the rest — the exact
/// compose_vc_coresets pipeline with its first loop streamed.
struct VcStreamFold {
  VertexCover cover;
  EdgeList residual_union;

  explicit VcStreamFold(VertexId n) : cover(n), residual_union(n) {}

  void absorb(VcCoresetOutput& summary, std::size_t /*machine*/) {
    for (VertexId v : summary.fixed_vertices) cover.insert(v);
    residual_union.append(summary.residual_edges);
  }
  VertexCover finish(std::vector<VcCoresetOutput>& /*summaries*/, Rng& rng) {
    const EdgeList open = residual_union.filter([&](const Edge& e) {
      return !cover.contains(e.u) && !cover.contains(e.v);
    });
    cover.merge(vc_two_approximation(open, rng));
    return std::move(cover);
  }
};

}  // namespace

MatchingProtocolResult run_matching_protocol(
    EdgeSource graph, std::size_t k, const MatchingCoreset& coreset,
    ComposeSolver solver, VertexId left_size, Rng& rng, ThreadPool* pool,
    const StreamingOptions& streaming) {
  MatchingStreamFold fold{solver, left_size, EdgeList(graph.num_vertices())};
  return run_protocol<Edge>(
      std::span<const Edge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), k, left_size, rng, pool, coreset_build(coreset),
      matching_cost, fold, streaming);
}

MatchingProtocolResult run_matching_protocol_on_partition(
    const std::vector<EdgeList>& pieces, const MatchingCoreset& coreset,
    ComposeSolver solver, VertexId left_size, Rng& rng, ThreadPool* pool) {
  RCC_CHECK(!pieces.empty());
  const VertexId n = pieces.front().num_vertices();
  MatchingStreamFold fold{solver, left_size, EdgeList(n)};
  return run_protocol_on_pieces<Edge>(pieces_of(pieces), n, left_size, rng,
                                      pool, coreset_build(coreset),
                                      matching_cost, fold);
}

VcProtocolResult run_vc_protocol(EdgeSource graph, std::size_t k,
                                 const VertexCoverCoreset& coreset, Rng& rng,
                                 ThreadPool* pool,
                                 const StreamingOptions& streaming) {
  VcStreamFold fold(graph.num_vertices());
  return run_protocol<Edge>(
      std::span<const Edge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), k, /*left_size=*/0, rng, pool,
      coreset_build(coreset), vc_cost, fold, streaming);
}

VcProtocolResult run_vc_protocol_on_partition(
    const std::vector<EdgeList>& pieces, const VertexCoverCoreset& coreset,
    VertexId num_vertices, Rng& rng, ThreadPool* pool) {
  RCC_CHECK(!pieces.empty());
  VcStreamFold fold(num_vertices);
  return run_protocol_on_pieces<Edge>(pieces_of(pieces), num_vertices,
                                      /*left_size=*/0, rng, pool,
                                      coreset_build(coreset), vc_cost, fold);
}

}  // namespace rcc
