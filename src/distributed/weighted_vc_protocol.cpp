#include "distributed/weighted_vc_protocol.hpp"

#include <cmath>
#include <utility>

#include "coreset/vc_coreset.hpp"

namespace rcc {

namespace {

/// Weight-class geometry plus the machine phase of the weighted driver:
/// class(v) = floor(log2(w_v / w_min)), every machine builds one peeling
/// summary per class of its shard.
struct WeightedVcPhases {
  const VertexWeights& weights;
  VertexId n;
  std::vector<int> vclass;
  int num_classes = 1;
  PeelingVcCoreset coreset;

  WeightedVcPhases(EdgeSource graph, const VertexWeights& weights)
      : weights(weights), n(graph.num_vertices()), vclass(n, 0) {
    RCC_CHECK(weights.size() == n);
    double wmin = 0.0;
    for (double w : weights) {
      RCC_CHECK(w >= 0.0);
      if (w > 0.0 && (wmin == 0.0 || w < wmin)) wmin = w;
    }
    if (wmin == 0.0) wmin = 1.0;  // all-zero weights: a single class
    for (VertexId v = 0; v < n; ++v) {
      if (weights[v] > 0.0) {
        vclass[v] = static_cast<int>(std::floor(std::log2(weights[v] / wmin)));
        num_classes = std::max(num_classes, vclass[v] + 1);
      }
    }
  }

  int edge_class(const Edge& e) const {
    return std::min(vclass[e.u], vclass[e.v]);
  }

  // Machine phase: split the shard by the class of the cheaper endpoint and
  // build one peeling summary per class; all class summaries travel in one
  // message (the protocol stays simultaneous).
  auto build() const {
    return [this](EdgeSpan piece, const PartitionContext& ctx,
                  Rng& machine_rng) {
      std::vector<VcCoresetOutput> class_summaries;
      class_summaries.reserve(static_cast<std::size_t>(num_classes));
      for (int c = 0; c < num_classes; ++c) {
        const EdgeList class_piece =
            piece.filter([&](const Edge& e) { return edge_class(e) == c; });
        class_summaries.push_back(coreset.build(class_piece, ctx, machine_rng));
      }
      return class_summaries;
    };
  }

  static MessageSize account(const std::vector<VcCoresetOutput>& summaries) {
    MessageSize msg;
    for (const VcCoresetOutput& s : summaries) {
      msg.edges += s.residual_edges.num_edges();
      msg.vertices += s.fixed_vertices.size();
    }
    return msg;
  }
};

/// StreamingFold of the weighted VC coordinator: absorb unions the fixed
/// vertices and concatenates the residual edges of each machine's class
/// summaries as they land; finish drops residual edges the complete fixed
/// union covers and closes with the weighted local-ratio 2-approximation.
struct WeightedVcStreamFold {
  const WeightedVcPhases& phases;
  VertexCover cover;
  EdgeList residual_union;

  explicit WeightedVcStreamFold(const WeightedVcPhases& phases)
      : phases(phases), cover(phases.n), residual_union(phases.n) {}

  void absorb(std::vector<VcCoresetOutput>& machine_summaries,
              std::size_t /*machine*/) {
    for (const VcCoresetOutput& s : machine_summaries) {
      for (VertexId v : s.fixed_vertices) cover.insert(v);
      residual_union.append(s.residual_edges);
    }
  }
  VertexCover finish(std::vector<std::vector<VcCoresetOutput>>& /*summaries*/,
                     Rng& /*rng*/) {
    const EdgeList open = residual_union.filter([&](const Edge& e) {
      return !cover.contains(e.u) && !cover.contains(e.v);
    });
    const WeightedVcResult residual_cover =
        local_ratio_weighted_vc(open, phases.weights);
    cover.merge(residual_cover.cover);
    return std::move(cover);
  }
};

WeightedVcProtocolResult to_weighted_vc_result(
    ProtocolResult<VertexCover, std::vector<VcCoresetOutput>>&& engine_result,
    const WeightedVcPhases& phases) {
  WeightedVcProtocolResult result;
  static_cast<ProtocolResult<VertexCover, std::vector<VcCoresetOutput>>&>(
      result) = std::move(engine_result);
  result.cover_cost = cover_weight(result.solution, phases.weights);
  result.weight_classes = static_cast<std::size_t>(phases.num_classes);
  return result;
}

}  // namespace

WeightedVcProtocolResult weighted_vc_protocol(
    EdgeSource graph, const VertexWeights& weights, std::size_t k, Rng& rng,
    ThreadPool* pool, const StreamingOptions& streaming) {
  const WeightedVcPhases phases(graph, weights);
  WeightedVcStreamFold fold(phases);
  auto engine_result = run_protocol<Edge>(
      std::span<const Edge>(graph.edges().data(), graph.num_edges()),
      graph.num_vertices(), k, /*left_size=*/0, rng, pool, phases.build(),
      &WeightedVcPhases::account, fold, streaming);
  return to_weighted_vc_result(std::move(engine_result), phases);
}

}  // namespace rcc
