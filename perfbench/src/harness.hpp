// The benchmark's harness: failure-aware statistics, the pipe protocol
// between the caller and its solver process, the deadline-guarded solver
// process itself, and the closed solve loop that ties them together.
//
// The caller (this process) never runs a solve. Each solve runs in a
// separate solver process (`rccbench serve ...`, exec'd fresh so its memory
// high-water mark belongs to it alone) that sets up once and then answers
// solve requests back to back. A request that misses its deadline, or a
// solver that dies, is a failed solve: the caller kills the solver's whole
// process group, reaps everything, starts a new solver (a new set-up,
// warmed on a seed already known to complete) and carries on with the next
// seed, so a stuck thread never stalls the run or perturbs later timings.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Failure-aware statistics.

/// One solve as the caller saw it.
struct SolveOutcome {
  bool completed = false;
  /// Completed: the solve's wall time. Failed: how long the caller waited
  /// before giving up on it.
  double seconds = 0.0;
};

/// Nearest-rank percentile (q in (0, 1]) over every attempted solve, with
/// each failed solve ranked above every completed one and read as at least
/// the slowest completed solve. Failures wait out a deadline no completed
/// solve reaches, so turning a failure into a success can never raise a
/// percentile. Requires a non-empty input.
double percentile_failures_last(std::vector<SolveOutcome> outcomes, double q);

/// How many of n ranked samples lie strictly beyond the nearest-rank q
/// percentile (a tail percentile is reportable with >= 10 of them).
std::size_t samples_beyond(std::size_t n, double q);

/// The run's outcomes cut into consecutive blocks of at least `block`
/// attempts (the last block takes the remainder; fewer than `block`
/// attempts make one block).
std::vector<std::vector<SolveOutcome>> consecutive_blocks(
    const std::vector<SolveOutcome>& outcomes, std::size_t block);

/// Median over consecutive blocks of percentile_failures_last(block, q). A
/// noise burst on a shared host slows a stretch of consecutive solves; it
/// moves the blocks it hits, not the median block, while a slower program
/// moves every block.
double blocked_percentile(const std::vector<SolveOutcome>& outcomes, double q,
                          std::size_t block);

/// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> values);

/// Attempt / failure accounting of one solve loop.
struct LoopAccount {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Wall time the caller spent waiting on solves: each completed solve's
  /// wall time plus each failed solve's wait. Restarts after a failure are
  /// set-up, not loop time.
  double loop_seconds = 0.0;
  /// The completed solves' share of loop_seconds.
  double completed_seconds = 0.0;

  void record(const SolveOutcome& outcome);
  std::size_t completed() const { return attempted - failed; }
  double failed_frac() const;
  double completed_frac() const;
};

// ---------------------------------------------------------------------------
// Pipe protocol: frames of [u32 tag][u32 byte count][payload]; the payload
// is a list of named doubles followed by a u32 array (a solution, a seed).

enum Tag : std::uint32_t {
  kReady = 1,   // solver -> caller: input ingested, pool up (values: ingest)
  kSetup = 2,   // solver -> caller: warm-up solve done (values: set-up)
  kResult = 3,  // solver -> caller: one solve's result
  kSolve = 4,   // caller -> solver: run one solve (payload: seed lo, hi)
  kQuit = 5,    // caller -> solver: exit
};

struct Record {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::uint32_t> payload;

  void set(const std::string& name, double value);
  /// The named value, or `fallback` when absent.
  double get(const std::string& name, double fallback = 0.0) const;
  bool has(const std::string& name) const;
};

/// Blocking write of one whole frame; false if the peer is gone.
bool write_frame(int fd, std::uint32_t tag, const Record& record);

enum class ReadStatus { kOk, kTimeout, kClosed };

/// Reads one frame, giving up after `timeout_s` seconds (negative: wait
/// forever). A malformed frame reads as kClosed.
ReadStatus read_frame(int fd, double timeout_s, std::uint32_t& tag,
                      Record& out);

/// 64-bit seed <-> two payload words.
void put_seed(Record& record, std::uint64_t seed);
std::uint64_t take_seed(const Record& record);

// ---------------------------------------------------------------------------
// The solver process.

/// Makes this process the reaper of its orphaned descendants, so workers a
/// killed solver leaves behind are re-parented here and can be waited for.
void become_subreaper();

/// A solver process in its own process group, spoken to over two pipes.
/// Owns the process: the destructor kills and reaps it if still running.
class SolverProcess {
 public:
  /// Forks and execs `argv` with `--cmd-fd A --reply-fd B` appended.
  explicit SolverProcess(std::vector<std::string> argv);
  ~SolverProcess();

  SolverProcess(const SolverProcess&) = delete;
  SolverProcess& operator=(const SolverProcess&) = delete;
  SolverProcess(SolverProcess&&) = delete;
  SolverProcess& operator=(SolverProcess&&) = delete;

  pid_t pid() const { return pid_; }
  bool send(std::uint32_t tag, const Record& record);
  ReadStatus receive(double timeout_s, std::uint32_t& tag, Record& out);

  /// The solver's resident high-water mark (VmHWM, KiB); 0 once it is gone.
  long vm_hwm_kib() const;

  /// SIGKILLs the whole process group and waits for the solver and every
  /// descendant to end.
  void kill_and_reap();

  /// Asks the solver to exit; kills the group if it has not within
  /// `timeout_s`. Either way, everything is reaped on return.
  void quit_and_reap(double timeout_s);

 private:
  void close_pipes();
  pid_t pid_ = -1;
  int cmd_fd_ = -1;    // caller writes commands here
  int reply_fd_ = -1;  // caller reads replies here
};

/// Waits (bounded) for every child of this process to end.
void reap_all_children(double timeout_s);

// ---------------------------------------------------------------------------
// The closed solve loop.

struct LoopConfig {
  std::vector<std::string> solver_argv;  // `rccbench serve ...`, no fds
  double seconds = 10.0;        // measure at least this long...
  std::size_t min_solves = 0;   // ...and attempt at least this many solves,
  double cap_seconds = 60.0;    // but never loop longer than this
  double deadline_s = 1.0;      // per untraced solve
  double traced_deadline_s = 4.0;  // per traced request (solve + probes)
  double ingest_deadline_s = 60.0;
  double warmup_seconds = 0.0;     // untimed solves before the loop
  std::size_t setup_samples = 3;   // set-ups measured before the loop
  bool traced = false;
  std::function<std::uint64_t(std::size_t)> solve_seed;
  std::function<std::uint64_t(std::size_t)> warmup_seed;
};

/// Judges a completed solve's reply; false (with a reason) marks it invalid.
/// The loop keeps a checked reply's values and its payload's length
/// (`solution_words`), not the payload.
using ReplyChecker = std::function<bool(const Record& reply, std::string& why)>;

struct LoopResult {
  LoopAccount account;
  std::vector<SolveOutcome> outcomes;  // every attempt, in order
  std::vector<Record> completed;       // replies of completed untraced solves
  std::vector<Record> traced;          // replies of completed traced requests
  std::vector<double> setup_seconds;   // one per set-up, restarts included
  Record first_setup;                  // the first solver's kReady values
  long peak_rss_kib = 0;               // max solver VmHWM over serving solvers
  std::size_t invalid = 0;             // completed solves the checker refused
  std::size_t restarts = 0;
  std::string first_invalid_reason;
  bool setup_failed = false;
  std::string setup_error;
};

/// Runs the loop: one set-up, `warmup_seconds` of untimed solves (seeds
/// from the warm-up stream), the remaining set-ups, then solves back to
/// back (each untraced solve, in traced mode followed by a traced request
/// on the same seed) until both `seconds` and `min_solves` are met or
/// `cap_seconds` runs out.
LoopResult run_solve_loop(const LoopConfig& config,
                          const ReplyChecker& check);

/// Wall-clock seconds since an arbitrary fixed point (steady clock).
double now_seconds();

}  // namespace perfbench
