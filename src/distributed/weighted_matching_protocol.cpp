#include "distributed/weighted_matching_protocol.hpp"

#include <utility>

#include "matching/weighted.hpp"

namespace rcc {

namespace {

/// The machine phase and message cost of the weighted protocol.
struct WeightedMatchingPhases {
  double class_base;

  auto build() const {
    return [this](WeightedEdgeSpan piece, const PartitionContext& ctx,
                  Rng& /*machine_rng*/) {
      return crouch_stubbs_coreset(piece, ctx, class_base);
    };
  }
  // A weighted edge message: two vertex ids + one weight word.
  static MessageSize account(const WeightedCoresetOutput& s) {
    return MessageSize{s.edges.edges.size(), s.edges.edges.size()};
  }
};

WeightedMatchingProtocolResult to_weighted_result(
    ProtocolResult<Matching, WeightedCoresetOutput>&& engine_result,
    WeightedEdgeSource graph, double class_base) {
  WeightedMatchingProtocolResult result;
  static_cast<ProtocolResult<Matching, WeightedCoresetOutput>&>(result) =
      std::move(engine_result);
  result.matching_weight = matching_weight(result.solution, graph.edges());
  for (const WeightedCoresetOutput& s : result.summaries) {
    result.max_classes_per_machine =
        std::max(result.max_classes_per_machine,
                 split_weight_classes(s.edges, class_base).classes.size());
  }
  return result;
}

/// StreamingFold of the weighted protocol: absorb concatenates the coreset
/// edges (compose_weighted_coresets' union loop, streamed), finish runs the
/// Crouch-Stubbs merge on the union.
struct WeightedMatchingStreamFold {
  VertexId num_vertices;
  VertexId left_size;
  double class_base;
  WeightedEdgeList union_edges;

  WeightedMatchingStreamFold(VertexId n, VertexId left_size, double class_base)
      : num_vertices(n), left_size(left_size), class_base(class_base) {
    union_edges.num_vertices = n;
  }

  void absorb(WeightedCoresetOutput& summary, std::size_t /*machine*/) {
    RCC_CHECK(summary.edges.num_vertices == num_vertices);
    union_edges.edges.insert(union_edges.edges.end(),
                             summary.edges.edges.begin(),
                             summary.edges.edges.end());
  }
  Matching finish(std::vector<WeightedCoresetOutput>& /*summaries*/,
                  Rng& /*rng*/) {
    return crouch_stubbs_matching(union_edges, left_size, class_base);
  }
};

}  // namespace

WeightedMatchingProtocolResult weighted_matching_protocol(
    WeightedEdgeSource graph, std::size_t k, VertexId left_size, Rng& rng,
    ThreadPool* pool, double class_base, const StreamingOptions& streaming) {
  const WeightedMatchingPhases phases{class_base};
  WeightedMatchingStreamFold fold(graph.num_vertices(), left_size,
                                  class_base);
  auto engine_result = run_protocol<WeightedEdge>(
      std::span<const WeightedEdge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), k, left_size, rng, pool, phases.build(),
      &WeightedMatchingPhases::account, fold, streaming);
  return to_weighted_result(std::move(engine_result), graph, class_base);
}

}  // namespace rcc
