// rccbench: the repository's benchmark.
//
//   rccbench run --workload W --seed S --seconds T --trace 0|1 --work DIR
//       generates W's input from S, certifies nu, runs the closed solve loop
//       for T seconds and prints the metrics; the last stdout line is JSON.
//   rccbench serve ...    the solver process (started by `run`)
//   rccbench selftest     the harness's own tests
//
// Exit codes: 0 reported; 2 usage or build-environment error; 3 refused (a
// guard failed: the workload does not measure what its name says); 4 nu
// could not be certified; 5 no solver came up.
#include <signal.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

int selftest_main(const std::string& self);

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  // splitmix64 over (seed, stream, index).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
                    i + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string self_exe() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) break;
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median_of(const std::vector<Record>& replies, const std::string& key) {
  std::vector<double> values;
  for (const Record& r : replies) values.push_back(r.get(key));
  return values.empty() ? 0.0 : median(values);
}

double max_of(const std::vector<Record>& replies, const std::string& key) {
  double m = 0.0;
  for (const Record& r : replies) m = std::max(m, r.get(key));
  return m;
}

int refuse(const std::string& why) {
  std::fprintf(stderr, "rccbench: refusing to report: %s\n", why.c_str());
  return 3;
}

int run_main(const std::map<std::string, std::string>& flags) {
  const auto flag = [&](const char* name) -> std::string {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };
  const WorkloadSpec* spec = find_workload(flag("workload"));
  if (spec == nullptr || spec->family == Family::kNone) {
    std::fprintf(stderr, "rccbench: unknown workload '%s'\n",
                 flag("workload").c_str());
    return 2;
  }
  const std::uint64_t seed = std::strtoull(flag("seed").c_str(), nullptr, 10);
  const double seconds = std::atof(flag("seconds").c_str());
  const bool traced = flag("trace") == "1";
  const std::string work = flag("work").empty() ? "." : flag("work");
  if (!(seconds >= 1.0 && seconds <= 60.0)) {
    std::fprintf(stderr, "rccbench: --seconds must be in [1, 60]\n");
    return 2;
  }
  std::filesystem::create_directories(work);

  // The benchmark's own generation and oracle: outside every measurement.
  const rcc::EdgeList graph = generate_graph(*spec, mix(seed, 0, 0));
  const std::string input = write_input(*spec, graph, work, seed);
  const Checker checker(graph);
  std::string why;
  const std::optional<std::uint64_t> nu = certify_nu(*spec, graph, checker, why);
  if (!nu || *nu == 0) {
    std::filesystem::remove(input);
    std::fprintf(stderr, "rccbench: cannot certify nu on %s: %s\n",
                 spec->name.c_str(), why.c_str());
    return 4;
  }

  const bool is_cover = spec->problem == Problem::kVertexCover;
  const auto solution_size = [&](const Record& r) {
    return r.get("solution_words") / (is_cover ? 1.0 : 2.0);
  };
  const ReplyChecker check = [&](const Record& reply, std::string& reason) {
    if (is_cover ? !checker.cover(reply.payload, reason)
                 : !checker.matching(reply.payload, reason)) {
      return false;
    }
    if (reply.has("twin_equal") && reply.get("twin_equal") != 1.0) {
      reason = "cross-process solve differs from its in-process twin";
      return false;
    }
    if (reply.has("probe_mismatch")) {
      reason = "layer probe rebuilt a different summary than the solve";
      return false;
    }
    return true;
  };

  LoopConfig config;
  config.solver_argv = {self_exe(), "serve",  "--workload", spec->name,
                        "--input",  input,    "--trace",    traced ? "1" : "0"};
  config.seconds = seconds;
  // p90 needs ten solves beyond it; a traced run reports medians only.
  config.min_solves = traced ? 0 : 100;
  config.cap_seconds = std::min(2.5 * seconds, 120.0);
  config.deadline_s = spec->deadline_s;
  config.traced_deadline_s = 4.0 * spec->deadline_s + 5.0;
  config.warmup_seconds = 2.0;
  config.setup_samples = traced ? 1 : 5;
  config.traced = traced;
  config.solve_seed = [&](std::size_t i) { return mix(seed, 1, i); };
  config.warmup_seed = [&](std::size_t i) { return mix(seed, 2, i); };
  const LoopResult r = run_solve_loop(config, check);
  std::filesystem::remove(input);

  if (r.setup_failed) {
    std::fprintf(stderr, "rccbench: %s: %s\n", spec->name.c_str(),
                 r.setup_error.c_str());
    return 5;
  }
  if (r.completed.empty()) return refuse("no solve completed");

  // Regime and name guards: a coreset workload whose summaries are not well
  // below its pieces, or whose solves ran another round count than the
  // workload declares, measures something else than its name says.
  std::vector<double> summary_to_piece;
  for (const Record& c : r.completed) {
    summary_to_piece.push_back(c.get("comm_words") / c.get("piece_words"));
    if (c.get("engine_rounds") != static_cast<double>(spec->rounds)) {
      return refuse(spec->name + " declares " + std::to_string(spec->rounds) +
                    " engine rounds but a solve ran " +
                    std::to_string(c.get("engine_rounds")));
    }
  }
  const double ratio = median(summary_to_piece);
  if (!(ratio < 0.5)) {
    return refuse("summary/piece = " + std::to_string(ratio) +
                  " is not well below 1: outside the coreset regime");
  }

  const bool correct = r.invalid == 0;
  if (!correct) {
    std::fprintf(stderr, "rccbench: invalid result: %s\n",
                 r.first_invalid_reason.c_str());
  }
  const double m = static_cast<double>(graph.num_edges());
  std::vector<Metric> metrics;
  if (!traced) {
    const std::size_t n = r.outcomes.size();
    if (samples_beyond(n, 0.9) < 10) {
      return refuse("only " + std::to_string(n) +
                    " solves: p90 needs ten beyond it");
    }
    double approx = 0.0;
    double words = 0.0;
    for (const Record& c : r.completed) {
      const double size = solution_size(c);
      approx += is_cover ? size / static_cast<double>(*nu)
                         : static_cast<double>(*nu) / size;
      words += c.get("comm_words");
    }
    const double done = static_cast<double>(r.completed.size());
    // Timings are medians over consecutive blocks of kBlock attempts, so a
    // stretch of host noise inside one run does not move them; each block
    // still has ten solves beyond its p90.
    constexpr std::size_t kBlock = 100;
    std::vector<double> block_rates;
    for (const auto& block : consecutive_blocks(r.outcomes, kBlock)) {
      LoopAccount a;
      for (const SolveOutcome& o : block) a.record(o);
      // Over the completed solves' time: charging each failure its wait
      // too would make this a second, noisier failure count (the hang rate
      // varies by input seed); failures show in completed_frac and p90.
      if (a.completed() > 0) {
        block_rates.push_back(m * static_cast<double>(a.completed()) /
                              a.completed_seconds);
      }
    }
    metrics = {
        {"solve_s.p50", blocked_percentile(r.outcomes, 0.5, kBlock), "s"},
        {"solve_s.p90", blocked_percentile(r.outcomes, 0.9, kBlock), "s"},
        {"edges_per_s", median(block_rates), "edges/s"},
        {"approx_ratio", approx / done, "ratio"},
        {"comm_words", words / done, "words"},
        {"peak_rss_mb", static_cast<double>(r.peak_rss_kib) / 1024.0, "MB"},
        {"setup_s", median(r.setup_seconds), "s"},
        {"completed_frac", r.account.completed_frac(), "frac"},
    };
  } else {
    if (r.traced.empty()) return refuse("no traced solve completed");
    const std::vector<Record>& t = r.traced;
    const bool cross = spec->cross_process();
    const double ingest_s = r.first_setup.get("ingest_s");
    std::vector<double> unexplained;
    std::vector<double> imbalance;
    std::vector<double> stp;
    std::vector<double> overhead;
    for (const Record& x : t) {
      const double spans =
          x.get("engine_partition_s") + x.get("engine_machines_s") +
          x.get("engine_combine_s") + x.get("pool_s");
      unexplained.push_back(1.0 - spans / x.get("solve_s"));
      imbalance.push_back(x.get("build_max_s") / x.get("build_mean_s"));
      stp.push_back(x.get("comm_words") / x.get("piece_words"));
      overhead.push_back(x.get("solve_s") - x.get("twin_s"));
    }
    const double partition_s = median_of(t, "partition_s");
    metrics = {
        {"graph.ingest_s", ingest_s, "s"},
        {"graph.ingest_mb_per_s",
         r.first_setup.get("ingest_bytes") / 1e6 / ingest_s, "MB/s"},
        {"partition.s", partition_s, "s"},
        {"partition.edges_per_s", m / partition_s, "edges/s"},
        {"engine.partition_s", median_of(t, "engine_partition_s"), "s"},
        {"engine.machines_s", median_of(t, "engine_machines_s"), "s"},
        {"engine.combine_s", median_of(t, "engine_combine_s"), "s"},
        {"coreset.build_s.max", median_of(t, "build_max_s"), "s"},
        {"coreset.build_s.mean", median_of(t, "build_mean_s"), "s"},
        {"coreset.build_imbalance", median(imbalance), "ratio"},
        {"matching.blossom_s",
         spec->problem == Problem::kMatching ? median_of(t, "solver_span_s")
                                             : 0.0,
         "s"},
        {"vertex_cover.peeling_s",
         spec->problem == Problem::kVertexCover ? median_of(t, "solver_span_s")
                                                : 0.0,
         "s"},
        {"coreset.summary_words", median_of(t, "comm_words"), "words"},
        {"coreset.summary_to_piece", median(stp), "ratio"},
        {"wire.encode_s", cross ? median_of(t, "encode_s") : 0.0, "s"},
        {"wire.decode_s", cross ? median_of(t, "decode_s") : 0.0, "s"},
        {"wire.bytes", median_of(t, "wire_bytes"), "bytes"},
        {"wire.frames",
         cross ? static_cast<double>(spec->k) * median_of(t, "engine_rounds")
               : 0.0,
         "count"},
        {"wire.piece_bytes", median_of(t, "piece_bytes"), "bytes"},
        {"transport.forks", median_of(t, "forks"), "count"},
        {"transport.overhead_s", cross ? median(overhead) : 0.0, "s"},
        {"transport.pool_s", median_of(t, "pool_s"), "s"},
        {"mpc.engine_rounds", median_of(t, "engine_rounds"), "count"},
        {"mpc.active_edges", median_of(t, "active_edges"), "edges"},
        {"mpc.augmentations", median_of(t, "augmentations"), "count"},
        {"mpc.workspace_allocs", max_of(t, "workspace_allocs"), "count"},
        {"mem.worker_hwm_mb", max_of(t, "worker_hwm_kib") / 1024.0, "MB"},
        {"trace.overhead_frac",
         median_of(t, "solve_s") / median_of(r.completed, "solve_s") - 1.0,
         "frac"},
        {"trace.unexplained_frac", median(unexplained), "frac"},
    };
  }

  std::printf("# %s seed=%llu trace=%d nu=%llu m=%zu attempted=%zu "
              "failed=%zu failed_frac=%.4f invalid=%zu restarts=%zu "
              "setups=%zu loop_s=%.3f edges_per_loop_s=%.6g\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              traced ? 1 : 0, static_cast<unsigned long long>(*nu),
              graph.num_edges(), r.account.attempted, r.account.failed,
              r.account.failed_frac(), r.invalid, r.restarts,
              r.setup_seconds.size(), r.account.loop_seconds,
              m * static_cast<double>(r.account.completed()) /
                  r.account.loop_seconds);
  for (const Metric& metric : metrics) {
    std::printf("#   %-26s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  print_result(correct, r.account.attempted, r.account.failed, metrics);
  return 0;
}

int serve(const std::map<std::string, std::string>& flags) {
  const auto flag = [&](const char* name) -> std::string {
    const auto it = flags.find(name);
    return it == flags.end() ? std::string() : it->second;
  };
  const WorkloadSpec* spec = find_workload(flag("workload"));
  if (spec == nullptr) return 2;
  return serve_main(*spec, flag("input"), flag("trace") == "1",
                    std::strtoull(flag("warmup-seed").c_str(), nullptr, 10),
                    std::atoi(flag("cmd-fd").c_str()),
                    std::atoi(flag("reply-fd").c_str()));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ::signal(SIGPIPE, SIG_IGN);
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "serve") return serve(parse_flags(argc, argv, 2));
  if (mode == "selftest") return selftest_main(self_exe());
  if (mode == "run") {
    become_subreaper();
    return run_main(parse_flags(argc, argv, 2));
  }
  std::fprintf(stderr,
               "usage: rccbench run --workload W --seed S --seconds T "
               "--trace 0|1 --work DIR | selftest\n");
  return 2;
}
