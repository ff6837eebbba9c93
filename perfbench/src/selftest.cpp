// The harness's own tests (`rccbench selftest`): the percentile maths with
// failed solves ranked last, the failure accounting, and the deadline path
// driven by stub solvers that never return.
#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentiles() {
  const std::vector<SolveOutcome> four = {
      {true, 0.3}, {false, 0.05}, {true, 0.1}, {true, 0.2}};
  expect(near(percentile_failures_last(four, 0.5), 0.2), "p50 of four");
  expect(near(percentile_failures_last(four, 0.75), 0.3), "p75 of four");
  // The fast failure (an invalid result) still ranks last and reads as at
  // least the slowest completed solve.
  expect(near(percentile_failures_last(four, 0.9), 0.3), "p90 is the failure");
  expect(samples_beyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  expect(samples_beyond(99, 0.9) == 9, "99 samples: 9 beyond p90");
  expect(samples_beyond(1000, 0.5) == 500, "1000 samples: 500 beyond p50");

  std::vector<SolveOutcome> tail(100, SolveOutcome{true, 0.01});
  tail[7] = {false, 1.0};
  expect(near(percentile_failures_last(tail, 0.9), 0.01),
         "one failure in 100 leaves p90 on a completed solve");
  for (int i = 0; i < 10; ++i) tail[20 + i] = {false, 1.0 + i};
  expect(percentile_failures_last(tail, 0.9) >= 1.0,
         "eleven failures in 100 put p90 on a failure");

  // Blocks: 250 attempts make two blocks of 100 and 150; a slow stretch in
  // one of three blocks leaves the median block's percentile alone.
  const std::vector<SolveOutcome> run(250, SolveOutcome{true, 0.01});
  const auto blocks = consecutive_blocks(run, 100);
  expect(blocks.size() == 2 && blocks[0].size() == 100 &&
             blocks[1].size() == 150,
         "consecutive blocks of at least 100");
  expect(consecutive_blocks(std::vector<SolveOutcome>(40), 100).size() == 1,
         "a short run is one block");
  std::vector<SolveOutcome> bursty(300, SolveOutcome{true, 0.01});
  for (std::size_t i = 100; i < 200; ++i) bursty[i] = {true, 0.05};
  expect(near(blocked_percentile(bursty, 0.9, 100), 0.01),
         "a burst in one block leaves the blocked p90 alone");
  std::vector<SolveOutcome> slower(300, SolveOutcome{true, 0.02});
  expect(near(blocked_percentile(slower, 0.9, 100), 0.02),
         "a uniformly slower run moves the blocked p90");

  // Turning a failure (which waited out the deadline) into a completion
  // (which beat it) never raises any percentile.
  std::mt19937_64 gen(7);
  const double deadline = 0.5;
  std::uniform_real_distribution<double> fast(0.0, deadline);
  std::uniform_real_distribution<double> wait(deadline, 2 * deadline);
  bool monotone = true;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<SolveOutcome> o(1 + gen() % 40);
    for (SolveOutcome& x : o) {
      x = gen() % 3 == 0 ? SolveOutcome{false, wait(gen)}
                         : SolveOutcome{true, fast(gen)};
    }
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (!o[i].completed) failed.push_back(i);
    }
    if (failed.empty()) continue;
    std::vector<SolveOutcome> fixed = o;
    fixed[failed[gen() % failed.size()]] = {true, fast(gen)};
    for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
      monotone &= percentile_failures_last(fixed, q) <=
                  percentile_failures_last(o, q);
    }
  }
  expect(monotone, "a failure turned into a success never raises a percentile");
}

void test_accounting() {
  LoopAccount a;
  for (const SolveOutcome& o : std::vector<SolveOutcome>{
           {true, 0.1}, {true, 0.2}, {false, 0.5}, {true, 0.3}}) {
    a.record(o);
  }
  expect(a.attempted == 4 && a.failed == 1 && a.completed() == 3,
         "attempted / failed / completed counts");
  expect(near(a.failed_frac(), 0.25), "failed_frac = failed / attempted");
  expect(near(a.completed_frac(), 0.75), "completed_frac = 1 - failed_frac");
  expect(near(a.loop_seconds, 1.1), "loop time counts failed waits");
  expect(near(a.completed_seconds, 0.6), "completed time omits them");
  expect(LoopAccount{}.failed_frac() == 0.0, "empty account");
}

bool no_children_left() {
  int status = 0;
  return ::waitpid(-1, &status, WNOHANG) < 0 && errno == ECHILD;
}

void test_deadline(const std::string& self) {
  // A solver whose every solve, the warm-up included, never returns.
  SolverProcess stuck({self, "serve", "--workload", "stub-hang", "--input", "",
                       "--trace", "0", "--warmup-seed", "0"});
  const pid_t pid = stuck.pid();
  std::uint32_t tag = 0;
  Record reply;
  expect(stuck.receive(5.0, tag, reply) == ReadStatus::kOk && tag == kReady,
         "stub solver comes up");
  const double start = now_seconds();
  const ReadStatus status = stuck.receive(0.2, tag, reply);
  const double waited = now_seconds() - start;
  expect(status == ReadStatus::kTimeout, "a hung solve times out");
  expect(waited >= 0.2 && waited < 2.0, "the deadline bounds the wait");
  stuck.kill_and_reap();
  expect(::kill(pid, 0) != 0 && errno == ESRCH, "the hung solver is gone");
  expect(no_children_left(), "nothing left to reap after a kill");

  // The loop carries on past hung solves: odd seeds never return, so half
  // the attempts fail, each costs one restart, and the tail reads failed.
  LoopConfig config;
  config.solver_argv = {self, "serve", "--workload", "stub-flaky", "--input",
                        "", "--trace", "0"};
  config.seconds = 0.5;
  config.min_solves = 8;
  config.cap_seconds = 10.0;
  config.deadline_s = 0.2;
  config.ingest_deadline_s = 5.0;
  config.setup_samples = 2;
  config.solve_seed = [](std::size_t i) { return std::uint64_t{i}; };
  // The first warm-up seed hangs: set-up must skip it, not fail.
  config.warmup_seed = [](std::size_t i) { return std::uint64_t{i} + 1; };
  const LoopResult r = run_solve_loop(
      config, [](const Record&, std::string&) { return true; });
  expect(!r.setup_failed, "set-up survives a hanging warm-up seed");
  expect(r.account.attempted >= 8, "the loop reaches its minimum solves");
  expect(r.account.failed == r.account.attempted / 2,
         "every odd seed fails, every even seed completes");
  expect(r.restarts == r.account.failed, "one restart per failed solve");
  expect(r.setup_seconds.size() == 2 + r.restarts,
         "every set-up, restarts included, is measured");
  bool waited_out = true;
  for (const SolveOutcome& o : r.outcomes) {
    if (!o.completed) waited_out &= o.seconds >= 0.2;
  }
  expect(waited_out, "failed solves are charged their wait");
  expect(percentile_failures_last(r.outcomes, 0.9) >= 0.2,
         "p90 lands on the failures");
  expect(no_children_left(), "the loop leaves no process behind");
}

}  // namespace

int selftest_main(const std::string& self) {
  become_subreaper();
  test_percentiles();
  test_accounting();
  test_deadline(self);
  if (failures == 0) std::fprintf(stderr, "rccbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
