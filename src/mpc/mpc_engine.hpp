// Multi-round MPC executor: repeated ProtocolEngine rounds over a shrinking
// edge set.
//
// The paper's MapReduce application (Section 1.1) runs the coreset protocol
// as ONE round of an MPC computation; iterating that round on the edges the
// current solution leaves uncovered drives the approximation down (the
// round-iteration structure of Assadi et al., "Coresets Meet EDCS",
// arXiv:1711.03076). This executor is the generic driver for that loop:
//
//   per round:
//     partition — the surviving edges are scattered by the sharded
//                 single-arena partitioner (zero-copy shards),
//     machines  — one summary task per machine on the thread pool via
//                 run_protocol_on_pieces (forked RNG streams),
//     combine   — a pluggable ROUND-COMBINER folds the k summaries into the
//                 caller's cumulative solution and returns the edges that
//                 survive into the next round.
//
// Instantiating the executor is the engine's three-lambda pattern with the
// combine phase upgraded to a fold:
//
//   build(piece, ctx, rng)      -> Summary     (unchanged from the engine)
//   account(summary)            -> MessageSize (unchanged from the engine)
//   fold(summaries, round, rng) -> EdgeList    survivors for the next round;
//       `round` is an MpcRoundContext: the round's input edges, the round
//       index, and ledger access for protocols that model extra super-steps
//       (e.g. filtering's broadcast round).
//
// Resources are accounted like the single-round simulator: every super-step
// is declared on an MpcLedger, every machine's residency is charged against
// the configured per-machine budget (the paper's s = O~(n sqrt(n)) regime at
// k = sqrt(n) machines), and the run aborts if any machine overfills. The
// returned MpcExecutionStats carries per-round communication words, phase
// timings, and per-machine peak memory.
//
// coreset_mpc.cpp and filtering_mpc.cpp are the two in-tree instantiations;
// the legacy single-round entry points are thin wrappers over them.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "distributed/protocol_engine.hpp"
#include "graph/edge_list.hpp"
#include "graph/edge_source.hpp"
#include "mpc/mpc.hpp"
#include "partition/sharded_partition.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace rcc {

class Options;

/// Knobs of a multi-round execution.
struct MpcEngineConfig {
  MpcConfig mpc;  // cluster shape: k machines x per-machine word budget

  /// Executor iterations allowed (>= 1); each runs one ProtocolEngine round
  /// on the surviving edges.
  std::size_t max_rounds = 1;

  /// When false, an extra "re-partition" super-step is charged up front:
  /// adversarially placed input must be shuffled before the first coreset
  /// round (coreset_mpc.hpp, Round 1).
  bool input_already_random = true;

  /// Stop as soon as an iteration leaves the surviving edge set unchanged
  /// AND the fold reported no progress units (combiners whose survivors
  /// never shrink — the augmenting-path fold recirculates every edge —
  /// report real progress via MpcRoundContext::note_progress and are not
  /// stopped by this check). Runs always stop when no edges survive or the
  /// fold requests it.
  bool early_stop = true;

  /// Stream summaries into the round-combiner as machines finish instead of
  /// folding after the collect barrier. Requires an absorb/finish fold (see
  /// run_mpc_rounds); ignored for plain callable folds. Canonical order
  /// preserves seed-for-seed equality with the barrier fold.
  bool streaming_fold = false;

  /// Absorb order + completion-queue capacity when streaming_fold is set,
  /// plus the machine-phase transport: EngineTransport::kSocket forks one
  /// worker process per machine each round and streams framed summaries
  /// over loopback (requires a streaming-capable fold; takes the streaming
  /// combine path even when streaming_fold is false).
  StreamingOptions streaming;

  /// Charge every machine 2*|shard| words for holding its piece of the
  /// round's input (the coreset algorithms' accounting). Protocols that
  /// model map-side residency themselves (filtering) turn this off.
  bool charge_input_residency = true;

  /// The build callable is a pure function of (piece, ctx, machine rng): it
  /// reads no captured state the round-combiner mutates between rounds.
  /// Round-invariant builds let the shm transport serve every round from ONE
  /// persistent worker pool (fork k processes at round 0 — the first round's
  /// shards ride the fork copy-on-write, later rounds ship pieces down the
  /// rings — worker_forks == k however many rounds run). Builds
  /// that read coordinator-evolving state (filtering's rate schedule,
  /// augmenting's current matching) must leave this false: each shm round
  /// then spawns a pool for that round alone, whose copy-on-write snapshot
  /// sees the fresh state — the socket transport's correctness story, minus
  /// the socket. Drivers set this, not callers: it is a property of the
  /// build lambda, not of the run.
  bool round_invariant_build = false;

  /// Ledger label prefix for executor-declared super-steps.
  std::string round_label = "coreset-round";
};

/// What the round-combiner sees of one round: the input edge set it folds,
/// its position in the schedule, ledger access for extra super-steps, and
/// the run's round-persistent workspace (coordinator scratch + the reusable
/// survivor buffer).
class MpcRoundContext {
 public:
  MpcRoundContext(MpcLedger& ledger, EdgeSpan active, std::size_t round_index,
                  std::size_t max_rounds, ProtocolWorkspace* workspace = nullptr,
                  EdgeList* survivors_out = nullptr)
      : ledger_(ledger),
        active_(active),
        round_index_(round_index),
        max_rounds_(max_rounds),
        workspace_(workspace),
        survivors_out_(survivors_out) {}

  /// This round's input edges: a view of the partition arena (shards
  /// concatenated), valid only during the fold call.
  EdgeSpan active_edges() const { return active_; }

  std::size_t round_index() const { return round_index_; }  // 0-based
  bool last_round() const { return round_index_ + 1 == max_rounds_; }
  std::size_t num_machines() const { return ledger_.config().num_machines; }
  std::uint64_t memory_budget_words() const {
    return ledger_.config().memory_words;
  }

  /// Ledger passthroughs: a combiner that needs more than the collect step
  /// (e.g. filtering's broadcast-and-filter) declares its own super-steps
  /// and charges the residency they create.
  void begin_round(const std::string& label) { ledger_.begin_round(label); }
  void charge(std::size_t machine, std::uint64_t words) {
    ledger_.charge(machine, words);
  }
  void charge_all(std::uint64_t words) {
    for (std::size_t i = 0; i < num_machines(); ++i) ledger_.charge(i, words);
  }

  /// Ends the execution after this round even if survivors remain.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Progress accounting for folds whose survivors do not shrink (the
  /// augmenting-path combiner re-circulates every edge): the units land in
  /// this round's MpcRoundReport::augmentations, so per-round progress stays
  /// visible even though the surviving edge counts are flat.
  void note_progress(std::size_t units) { progress_units_ += units; }
  std::size_t progress_units() const { return progress_units_; }

  /// A fold that stops on a quality certificate (e.g. "no augmenting path of
  /// length <= 2k+1 anywhere" => a (1 + 1/(k+1))-approximation) records the
  /// certified worst-case ratio here; the executor copies it into
  /// MpcExecutionStats::certified_ratio.
  void certify_ratio(double ratio_bound) { certified_ratio_ = ratio_bound; }
  double certified_ratio() const { return certified_ratio_; }

  /// The run's round-persistent workspace (null only when a context is
  /// built stand-alone, e.g. in tests — the executor always provides one).
  ProtocolWorkspace* workspace() { return workspace_; }

  /// Coordinator-side scratch for the fold phase. Never shared with the
  /// machine scratches, so absorb/finish may use it while machines run.
  MachineScratch& coordinator_scratch() {
    RCC_CHECK(workspace_ != nullptr);
    return workspace_->coordinator();
  }

  /// The executor-owned survivor buffer for this round: cleared, capacity
  /// retained from two rounds ago (the buffers double-buffer through the
  /// executor). A fold fills it (assign_filtered / assign / add) and
  /// returns std::move(survivors_out()) from finish, making steady-state
  /// rounds allocation-free; folds may instead return any EdgeList they
  /// own — the executor accepts both shapes.
  EdgeList& survivors_out() {
    RCC_CHECK(survivors_out_ != nullptr);
    return *survivors_out_;
  }

 private:
  MpcLedger& ledger_;
  EdgeSpan active_;
  std::size_t round_index_;
  std::size_t max_rounds_;
  ProtocolWorkspace* workspace_ = nullptr;
  EdgeList* survivors_out_ = nullptr;
  bool stop_requested_ = false;
  std::size_t progress_units_ = 0;
  double certified_ratio_ = 0.0;
};

/// One executor iteration (one ProtocolEngine round; may span several ledger
/// super-steps when the fold declares more). Super-steps declared before the
/// first iteration — the re-partition round of adversarially placed input —
/// belong to no iteration: they appear only in MpcExecutionStats'
/// round_labels / round_peak_words ledger view, so the per-round peaks need
/// not reach max_memory_words on adversarial runs.
struct MpcRoundReport {
  std::size_t round_index = 0;
  std::size_t active_edges = 0;     // edges entering the iteration
  std::size_t surviving_edges = 0;  // edges carried into the next one
  std::uint64_t comm_words = 0;     // summary words collected by machine M
  std::uint64_t peak_machine_words = 0;  // peak residency across its steps
  /// Combiner-reported progress units (MpcRoundContext::note_progress); the
  /// augmenting combiner reports augmenting paths applied this round. Zero
  /// for folds that do not report.
  std::size_t augmentations = 0;
  /// Workspace buffer growths during this round (delta of the run
  /// workspace's WorkspaceStats). Rounds after the first are expected to
  /// report 0 — the allocation-discipline regression tested in
  /// tests/workspace_test.cpp.
  std::uint64_t workspace_allocations = 0;
  ProtocolTiming timing;
};

/// Cumulative resource story of one multi-round run.
struct MpcExecutionStats {
  std::size_t mpc_rounds = 0;     // ledger super-steps, incl. re-partition
  std::size_t engine_rounds = 0;  // executor iterations actually run
  std::uint64_t max_memory_words = 0;
  std::uint64_t total_comm_words = 0;
  /// Sum of the per-round combiner progress units (augmenting combiner:
  /// total augmenting paths applied across the run).
  std::size_t total_augmentations = 0;
  /// Worst-case approximation ratio the final round certified via
  /// MpcRoundContext::certify_ratio (augmenting combiner: 1 + 1/(k+1) when
  /// the no-augmenting-path early stop fired). 0.0 when no round certified.
  double certified_ratio = 0.0;
  /// Transport accounting of cross-process runs (zeros for inproc): worker
  /// processes forked over the whole run, uplink summary-frame bytes, and
  /// downlink piece-delivery bytes. The fork-amortization claim is read
  /// here: a persistent shm pool shows worker_forks == k no matter how many
  /// engine rounds ran, while the socket transport shows k per round.
  std::uint64_t worker_forks = 0;
  std::uint64_t transport_wire_bytes = 0;
  std::uint64_t transport_piece_bytes = 0;
  ProtocolTiming total_timing;
  std::vector<MpcRoundReport> per_round;
  std::vector<std::string> round_labels;        // one per ledger super-step
  std::vector<std::uint64_t> round_peak_words;  // parallel to round_labels
};

/// True for round-combiners written in the streaming shape: per-machine
/// absorb plus an end-of-round finish. Such a fold can run behind the
/// barrier (absorbed in index order after the collect — byte-identical to a
/// plain callable fold that loops the summaries in order) or streamed
/// through the engine's completion queue when config.streaming_fold is set.
template <typename Fold, typename Summary>
concept StreamingRoundFold =
    requires(Fold& f, Summary& s, std::vector<Summary>& all,
             MpcRoundContext& ctx, Rng& rng) {
      f.absorb(s, std::size_t{0}, ctx);
      { f.finish(all, ctx, rng) } -> std::convertible_to<EdgeList>;
    };

/// Drives up to config.max_rounds ProtocolEngine rounds. The caller's
/// cumulative solution lives in the fold's captures; the executor owns the
/// shrinking edge set, the ledger, and the per-round accounting. The input
/// is an EdgeSource (implicit from EdgeList or MappedGraph): round 0's
/// partition reads straight from the source — for a mapped pack the
/// counting and scatter passes stream the mapping — and survivors live in
/// the workspace double-buffers from round 1 on, so the source is never
/// materialized in RAM.
///
/// Two fold shapes are accepted:
///   fold(summaries, round, rng) -> EdgeList        the plain callable fold
///   fold.absorb(summary, machine, round)           streaming-capable fold;
///   fold.finish(summaries, round, rng) -> EdgeList absorbed per machine
/// Streaming-capable folds run through the engine's streaming combine path
/// when config.streaming_fold is set (machine M's collect words are then
/// charged per absorbed summary instead of all at once — same totals, same
/// peaks) and behind the barrier otherwise.
template <typename Build, typename Account, typename Fold>
MpcExecutionStats run_mpc_rounds(EdgeSource graph,
                                 const MpcEngineConfig& config,
                                 VertexId left_size, Rng& rng, ThreadPool* pool,
                                 const Build& build, const Account& account,
                                 Fold&& fold,
                                 ProtocolWorkspace* workspace = nullptr) {
  const std::size_t k = config.mpc.num_machines;
  RCC_CHECK(k >= 1);
  RCC_CHECK(config.max_rounds >= 1);
  const VertexId n = graph.num_vertices();

  MpcLedger ledger(config.mpc);
  MpcExecutionStats stats;

  // The run's round-persistent workspace: machine/coordinator scratches,
  // partition buffers, and the survivor double-buffer all reach their
  // high-water mark in round 0 and are reused afterwards. A caller-provided
  // workspace extends the reuse across runs (and exposes the counters).
  // One workspace serves one run at a time.
  ProtocolWorkspace local_workspace;
  ProtocolWorkspace& ws = workspace != nullptr ? *workspace : local_workspace;
  ws.ensure_machines(k);

  ShardedPartition<Edge> parts;  // persistent: the arena is grow-only
  // The survivor double-buffer rides the coordinator scratch so a warm
  // workspace carries its capacity across runs, not just across rounds.
  struct ExecutorEdgeBuffers {
    EdgeList survivors;  // owns the shrinking edge set after round 0
    EdgeList spare;      // next round's survivor buffer (double-buffered)
  };
  ExecutorEdgeBuffers& bufs =
      ws.coordinator().state<ExecutorEdgeBuffers>();
  EdgeList& survivors = bufs.survivors;
  EdgeList& spare = bufs.spare;
  survivors.reset(n);

  using Summary = std::decay_t<std::invoke_result_t<
      const Build&, EdgeSpan, const PartitionContext&, Rng&>>;
  constexpr bool streaming_capable =
      StreamingRoundFold<std::remove_reference_t<Fold>, Summary>;
  // The cross-process transports only exist behind the streaming combine
  // path (frames arrive one at a time — there is no barrier to fold
  // behind), so requesting one takes that path even without
  // --engine-streaming; a plain callable fold cannot ride them.
  const bool wants_socket =
      config.streaming.transport == EngineTransport::kSocket;
  const bool wants_shm = config.streaming.transport == EngineTransport::kShm;
  if constexpr (!streaming_capable) {
    RCC_CHECK(!(wants_socket || wants_shm) &&
              "cross-process engine transports require a streaming-capable "
              "round fold");
  }
  // Persistent ring workers: a round-invariant build hands the engine this
  // run's pool slot. The engine spawns the k machine processes into it
  // inside round 0 — after the first partition, so each worker's
  // copy-on-write snapshot holds its round-0 shard and rng stream and round
  // 0 ships nothing down — and serves every later round from the same
  // workers, pieces shipped down the rings. Fork amortization is the point:
  // the socket transport pays k forks per round, a pool pays k per run.
  // Only builds declared round-invariant may ride the pool: a persistent
  // worker's captures are frozen at fork time, so a build that reads state
  // the fold mutates between rounds (filtering's rate, augmenting's
  // matching) would silently compute against round-0 values. Those drivers
  // leave the slot null and the engine spawns a pool per call, which
  // re-forks each round like the socket transport does.
  StreamingOptions streaming_opts = config.streaming;
  std::unique_ptr<ShmWorkerPool> shm_pool;
  if (wants_shm && config.round_invariant_build) {
    streaming_opts.shm_pool = &shm_pool;
  }

  for (std::size_t r = 0; r < config.max_rounds; ++r) {
    // Round 0 reads the source (for a mapped pack: straight off the mmap);
    // later rounds read the executor-owned survivor buffer.
    const EdgeSpan input = (r == 0) ? graph.edges() : EdgeSpan(survivors);
    const std::uint64_t allocations_before = ws.counters().allocations;

    // Partition phase: the engine's sharded single-arena partitioner over
    // the surviving edges.
    WallTimer timer;
    parts.repartition(std::span<const Edge>(input.data(), input.num_edges()),
                      n, k, rng, pool, &ws.partition());
    const double partition_seconds = timer.seconds();

    if (r == 0 && !config.input_already_random) {
      // Adversarially placed input pays the shuffle super-step first; the
      // receiver side is charged with the shard sizes round 0 actually
      // processes (the realized random k-partitioning).
      std::vector<std::size_t> delivered(k);
      for (std::size_t i = 0; i < k; ++i) delivered[i] = parts.shard_size(i);
      mpc_reshuffle_round(input.num_edges(), delivered, ledger);
    }

    const std::size_t first_step = ledger.rounds();
    ledger.begin_round(config.round_label + "-" + std::to_string(r));
    if (config.charge_input_residency) {
      for (std::size_t i = 0; i < k; ++i) {
        ledger.charge(i, 2 * parts.shard_size(i));
      }
    }

    // Machine + combine phases on the ProtocolEngine. Machine M is charged
    // for the collected summaries before the fold's processing runs (and
    // before any super-step the fold opens), mirroring the coreset round's
    // "send everything to M" collect; the streaming path charges each
    // summary as it is absorbed — same totals, same per-round peaks.
    spare.reset(n);  // cleared, capacity retained from two rounds ago
    MpcRoundContext round_ctx(
        ledger, EdgeSpan(parts.arena().data(), parts.num_edges(), n), r,
        config.max_rounds, &ws, &spare);
    const auto run_round = [&] {
      if constexpr (streaming_capable) {
        if (config.streaming_fold || wants_socket || wants_shm) {
          struct RoundStreamAdapter {
            std::remove_reference_t<Fold>& fold;
            MpcRoundContext& ctx;
            MpcLedger& ledger;
            void absorb(Summary& s, std::size_t machine,
                        const MessageSize& cost) {
              ledger.charge(0, cost.words());
              fold.absorb(s, machine, ctx);
            }
            EdgeList finish(std::vector<Summary>& all, Rng& rng) {
              return fold.finish(all, ctx, rng);
            }
          } adapter{fold, round_ctx, ledger};
          return run_protocol_streaming_on_pieces<Edge>(
              pieces_of(parts), n, left_size, rng, pool, build, account,
              adapter, streaming_opts, &ws);
        }
      }
      return run_protocol_on_pieces<Edge>(
          pieces_of(parts), n, left_size, rng, pool, build, account,
          [&](auto& summaries, Rng& coordinator_rng) {
            // account is a pure cost function (the engine already evaluated
            // it into comm.per_machine); re-summing here keeps the barrier
            // fold's contract independent of the engine result's layout.
            std::uint64_t collected = 0;
            for (const auto& s : summaries) collected += account(s).words();
            ledger.charge(0, collected);
            if constexpr (streaming_capable) {
              for (std::size_t i = 0; i < summaries.size(); ++i) {
                fold.absorb(summaries[i], i, round_ctx);
              }
              return fold.finish(summaries, round_ctx, coordinator_rng);
            } else {
              return fold(summaries, round_ctx, coordinator_rng);
            }
          },
          &ws);
    };
    auto result = run_round();
    result.timing.partition_seconds = partition_seconds;

    const std::size_t active = input.num_edges();
    // Double-buffer: the round's input storage becomes the NEXT round's
    // survivor buffer (spare), and the fold's output — typically the moved-
    // out spare — becomes the input. After two rounds both buffers sit at
    // their high-water capacity and the handoff allocates nothing (`input`
    // is dead past this point, so recycling its storage is safe; at r == 0
    // the swap hands a warm workspace's prior-run capacity back to spare).
    EdgeList produced = std::move(result.solution);
    std::swap(spare, survivors);
    survivors = std::move(produced);
    ++stats.engine_rounds;
    stats.total_comm_words += result.comm.total_words();
    stats.worker_forks += result.transport.forks;
    stats.transport_wire_bytes += result.transport.wire_bytes;
    stats.transport_piece_bytes += result.transport.piece_bytes;
    stats.total_timing.partition_seconds += result.timing.partition_seconds;
    stats.total_timing.summaries_seconds += result.timing.summaries_seconds;
    stats.total_timing.combine_seconds += result.timing.combine_seconds;

    MpcRoundReport report;
    report.round_index = r;
    report.active_edges = active;
    report.surviving_edges = survivors.num_edges();
    report.comm_words = result.comm.total_words();
    for (std::size_t s = first_step; s < ledger.rounds(); ++s) {
      report.peak_machine_words =
          std::max(report.peak_machine_words, ledger.round_peak_words()[s]);
    }
    report.augmentations = round_ctx.progress_units();
    report.workspace_allocations =
        ws.counters().allocations - allocations_before;
    stats.total_augmentations += round_ctx.progress_units();
    // The certificate is a statement about the solution as of THIS round: an
    // uncertified later round that keeps mutating the solution clears any
    // stale ratio a previous round attached (a fold that certifies and keeps
    // running must re-certify every round the bound still holds).
    stats.certified_ratio = round_ctx.certified_ratio();
    report.timing = result.timing;
    stats.per_round.push_back(report);

    if (round_ctx.stop_requested() || survivors.empty()) break;
    // Stagnation: nothing shrank AND the fold reported no progress units.
    // Edge-recirculating combiners keep survivors == active on purpose;
    // their note_progress calls are what distinguishes a working round from
    // a stalled one.
    if (config.early_stop && survivors.num_edges() == active &&
        round_ctx.progress_units() == 0) {
      break;
    }
  }

  if (shm_pool != nullptr) {
    // Exit handshake: a shutdown frame per worker and a bounded reap.
    shm_pool->shutdown_and_reap();
  }

  stats.mpc_rounds = ledger.rounds();
  stats.max_memory_words = ledger.max_memory_words();
  stats.round_labels = ledger.round_labels();
  stats.round_peak_words = ledger.round_peak_words();
  return stats;
}

/// Registers the executor's command-line knobs on an Options parser:
///   --mpc-machines       cluster size k (0 = paper default, sqrt(n))
///   --mpc-memory-budget  per-machine budget in words (0 = paper default,
///                        the O~(n sqrt(n)) regime)
///   --mpc-rounds         executor iterations (multi-round MPC)
///   --mpc-random-input   input already randomly partitioned (skips the
///                        re-partition round)
///   --mpc-early-stop     stop when a round makes no progress
/// plus the engine streaming knobs (add_streaming_flags):
///   --engine-streaming / --engine-streaming-order / --engine-queue-capacity
void add_mpc_engine_flags(Options& options);

/// Reads the knobs registered by add_mpc_engine_flags back into a config for
/// an n-vertex instance (zeros fall back to MpcConfig::paper_default(n)).
MpcEngineConfig mpc_engine_config_from_options(const Options& options,
                                               VertexId n);

}  // namespace rcc
