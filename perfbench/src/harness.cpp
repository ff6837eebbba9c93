#include "harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Statistics.

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // ceil(q * n) with a nudge so that exact products (0.9 * 100) do not round
  // up a rank on floating-point noise.
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)),
                                 1, n);
}

}  // namespace

double percentile_failures_last(std::vector<SolveOutcome> outcomes, double q) {
  std::sort(outcomes.begin(), outcomes.end(),
            [](const SolveOutcome& a, const SolveOutcome& b) {
              if (a.completed != b.completed) return a.completed;
              return a.seconds < b.seconds;
            });
  const SolveOutcome& at = outcomes[nearest_rank(outcomes.size(), q) - 1];
  if (at.completed) return at.seconds;
  // A failure reads as at least the slowest completed solve, even when it
  // failed fast (an invalid result), so its rank and its value agree.
  double slowest = 0.0;
  for (const SolveOutcome& o : outcomes) {
    if (o.completed) slowest = std::max(slowest, o.seconds);
  }
  return std::max(at.seconds, slowest);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::vector<std::vector<SolveOutcome>> consecutive_blocks(
    const std::vector<SolveOutcome>& outcomes, std::size_t block) {
  const std::size_t count = std::max<std::size_t>(outcomes.size() / block, 1);
  std::vector<std::vector<SolveOutcome>> blocks(count);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    blocks[std::min(i / block, count - 1)].push_back(outcomes[i]);
  }
  return blocks;
}

double blocked_percentile(const std::vector<SolveOutcome>& outcomes, double q,
                          std::size_t block) {
  std::vector<double> per_block;
  for (const auto& b : consecutive_blocks(outcomes, block)) {
    per_block.push_back(percentile_failures_last(b, q));
  }
  return median(per_block);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void LoopAccount::record(const SolveOutcome& outcome) {
  ++attempted;
  if (!outcome.completed) ++failed;
  loop_seconds += outcome.seconds;
  if (outcome.completed) completed_seconds += outcome.seconds;
}

double LoopAccount::failed_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double LoopAccount::completed_frac() const {
  return attempted == 0 ? 0.0 : 1.0 - failed_frac();
}

// ---------------------------------------------------------------------------
// Pipe protocol.

void Record::set(const std::string& name, double value) {
  for (auto& [key, v] : values) {
    if (key == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

double Record::get(const std::string& name, double fallback) const {
  for (const auto& [key, v] : values) {
    if (key == name) return v;
  }
  return fallback;
}

bool Record::has(const std::string& name) const {
  return std::any_of(values.begin(), values.end(),
                     [&](const auto& kv) { return kv.first == name; });
}

void put_seed(Record& record, std::uint64_t seed) {
  record.payload = {static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32)};
}

std::uint64_t take_seed(const Record& record) {
  if (record.payload.size() != 2) return 0;
  return static_cast<std::uint64_t>(record.payload[0]) |
         (static_cast<std::uint64_t>(record.payload[1]) << 32);
}

namespace {

constexpr std::uint32_t kMaxFrameBytes = 1u << 28;

template <typename T>
void append(std::vector<std::uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

/// Bounds-checked little cursor over a received payload.
struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  template <typename T>
  bool take(T& value) {
    if (size - pos < sizeof(T)) return false;
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
};

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads exactly n bytes before the absolute steady-clock deadline
/// (negative: none).
ReadStatus read_exact(int fd, std::uint8_t* data, std::size_t n,
                      double deadline) {
  while (n > 0) {
    int wait_ms = -1;
    if (deadline >= 0.0) {
      const double left = deadline - now_seconds();
      if (left <= 0.0) return ReadStatus::kTimeout;
      wait_ms = static_cast<int>(std::ceil(left * 1e3));
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return ReadStatus::kClosed;
    if (ready == 0) continue;  // re-checks the deadline
    const ssize_t got = ::read(fd, data, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return ReadStatus::kClosed;
    data += got;
    n -= static_cast<std::size_t>(got);
  }
  return ReadStatus::kOk;
}

}  // namespace

bool write_frame(int fd, std::uint32_t tag, const Record& record) {
  std::vector<std::uint8_t> body;
  append(body, static_cast<std::uint32_t>(record.values.size()));
  for (const auto& [name, value] : record.values) {
    append(body, static_cast<std::uint16_t>(name.size()));
    body.insert(body.end(), name.begin(), name.end());
    append(body, value);
  }
  append(body, static_cast<std::uint32_t>(record.payload.size()));
  const auto* words =
      reinterpret_cast<const std::uint8_t*>(record.payload.data());
  body.insert(body.end(), words, words + 4 * record.payload.size());

  std::vector<std::uint8_t> frame;
  append(frame, tag);
  append(frame, static_cast<std::uint32_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  return write_all(fd, frame.data(), frame.size());
}

ReadStatus read_frame(int fd, double timeout_s, std::uint32_t& tag,
                      Record& out) {
  const double deadline = timeout_s < 0.0 ? -1.0 : now_seconds() + timeout_s;
  std::uint32_t header[2] = {0, 0};
  ReadStatus status = read_exact(fd, reinterpret_cast<std::uint8_t*>(header),
                                 sizeof(header), deadline);
  if (status != ReadStatus::kOk) return status;
  if (header[1] > kMaxFrameBytes) return ReadStatus::kClosed;
  std::vector<std::uint8_t> body(header[1]);
  status = read_exact(fd, body.data(), body.size(), deadline);
  if (status != ReadStatus::kOk) return status;

  tag = header[0];
  out = Record{};
  Cursor c{body.data(), body.size()};
  std::uint32_t count = 0;
  if (!c.take(count)) return ReadStatus::kClosed;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint16_t len = 0;
    if (!c.take(len) || c.size - c.pos < len) return ReadStatus::kClosed;
    std::string name(reinterpret_cast<const char*>(c.data + c.pos), len);
    c.pos += len;
    double value = 0.0;
    if (!c.take(value)) return ReadStatus::kClosed;
    out.values.emplace_back(std::move(name), value);
  }
  std::uint32_t words = 0;
  if (!c.take(words) || (c.size - c.pos) / 4 < words) {
    return ReadStatus::kClosed;
  }
  out.payload.resize(words);
  std::memcpy(out.payload.data(), c.data + c.pos, 4 * std::size_t{words});
  c.pos += 4 * std::size_t{words};
  return c.pos == c.size ? ReadStatus::kOk : ReadStatus::kClosed;
}

// ---------------------------------------------------------------------------
// Solver process.

void become_subreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0); }

void reap_all_children(double timeout_s) {
  const double deadline = now_seconds() + timeout_s;
  while (true) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) continue;
    if (pid < 0 && errno == EINTR) continue;
    if (pid < 0) return;  // ECHILD: nothing left
    if (now_seconds() > deadline) {
      std::fprintf(stderr, "perfbench: descendants still running after %.1fs\n",
                   timeout_s);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

SolverProcess::SolverProcess(std::vector<std::string> argv) {
  int cmd[2] = {-1, -1};
  int reply[2] = {-1, -1};
  if (::pipe2(cmd, O_CLOEXEC) != 0 || ::pipe2(reply, O_CLOEXEC) != 0) {
    std::perror("perfbench: pipe2");
    std::exit(2);
  }
  argv.insert(argv.end(), {"--cmd-fd", std::to_string(cmd[0]), "--reply-fd",
                           std::to_string(reply[1])});
  std::vector<char*> args;
  for (std::string& a : argv) args.push_back(a.data());
  args.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    std::perror("perfbench: fork");
    std::exit(2);
  }
  if (pid_ == 0) {
    ::setpgid(0, 0);
    // A caller that is killed outright takes its solver with it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
    // The solver keeps its two ends across exec; its stdout joins stderr so
    // nothing it prints can land on the caller's result stream.
    ::fcntl(cmd[0], F_SETFD, 0);
    ::fcntl(reply[1], F_SETFD, 0);
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(args[0], args.data());
    _exit(127);
  }
  ::setpgid(pid_, pid_);  // also from here, so the group exists before a kill
  ::close(cmd[0]);
  ::close(reply[1]);
  cmd_fd_ = cmd[1];
  reply_fd_ = reply[0];
}

SolverProcess::~SolverProcess() {
  if (pid_ > 0) kill_and_reap();
  close_pipes();
}

void SolverProcess::close_pipes() {
  if (cmd_fd_ >= 0) ::close(cmd_fd_);
  if (reply_fd_ >= 0) ::close(reply_fd_);
  cmd_fd_ = reply_fd_ = -1;
}

bool SolverProcess::send(std::uint32_t tag, const Record& record) {
  return pid_ > 0 && write_frame(cmd_fd_, tag, record);
}

ReadStatus SolverProcess::receive(double timeout_s, std::uint32_t& tag,
                                  Record& out) {
  if (pid_ <= 0) return ReadStatus::kClosed;
  return read_frame(reply_fd_, timeout_s, tag, out);
}

long SolverProcess::vm_hwm_kib() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

void SolverProcess::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(-pid_, SIGKILL);
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  close_pipes();
  // Descendants of the solver were re-parented here when it died; they got
  // the group SIGKILL too.
  reap_all_children(5.0);
}

void SolverProcess::quit_and_reap(double timeout_s) {
  if (pid_ <= 0) return;
  send(kQuit, Record{});
  const double deadline = now_seconds() + timeout_s;
  while (now_seconds() < deadline) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      close_pipes();
      reap_all_children(5.0);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill_and_reap();
}

// ---------------------------------------------------------------------------
// Solve loop.

namespace {

class LoopRunner {
 public:
  LoopRunner(const LoopConfig& config, const ReplyChecker& check)
      : config_(config), check_(check) {}

  LoopResult run() {
    if (!start_solver()) return std::move(result_);
    // Untimed solves until the box is warm: after an idle spell the first
    // seconds of solves run up to 2x slow, which would otherwise land in
    // the first measured solves and in the set-up samples.
    const double warm_start = now_seconds();
    for (std::size_t i = 0; now_seconds() - warm_start < config_.warmup_seconds;
         ++i) {
      Record reply;
      if (request(config_.warmup_seed(1000 + i), false, reply).completed) {
        last_good_ = config_.warmup_seed(1000 + i);
      }
      if (result_.setup_failed) return std::move(result_);
    }
    for (std::size_t s = 1; s < config_.setup_samples; ++s) {
      solver_->quit_and_reap(10.0);
      solver_.reset();
      if (!start_solver()) return std::move(result_);
    }

    const double start = now_seconds();
    for (std::size_t i = 0;; ++i) {
      const double elapsed = now_seconds() - start;
      const bool enough = elapsed >= config_.seconds &&
                          result_.account.attempted >= config_.min_solves;
      if (enough || elapsed >= config_.cap_seconds) break;
      const std::uint64_t seed = config_.solve_seed(i);
      Record reply;
      const SolveOutcome plain = request(seed, false, reply);
      result_.outcomes.push_back(plain);
      result_.account.record(plain);
      if (plain.completed) {
        result_.completed.push_back(std::move(reply));
        last_good_ = seed;
      }
      if (result_.setup_failed) break;
      if (config_.traced && plain.completed) {
        // A seed whose untraced solve failed would fail traced too (solves
        // are deterministic per seed), so only completed seeds are traced.
        Record traced;
        const SolveOutcome outcome = request(seed, true, traced);
        result_.account.record(outcome);
        if (outcome.completed) result_.traced.push_back(std::move(traced));
        if (result_.setup_failed) break;
      }
    }
    if (solver_ != nullptr) {
      note_peak_rss();
      solver_->quit_and_reap(10.0);
      solver_.reset();
    }
    return std::move(result_);
  }

 private:
  /// One request under its deadline; on a miss or a dead solver the solver
  /// is replaced before returning.
  SolveOutcome request(std::uint64_t seed, bool traced, Record& reply) {
    Record command;
    put_seed(command, seed);
    command.set("traced", traced ? 1.0 : 0.0);
    const double deadline =
        traced ? config_.traced_deadline_s : config_.deadline_s;
    const double sent = now_seconds();
    std::uint32_t tag = 0;
    ReadStatus status = ReadStatus::kClosed;
    if (solver_->send(kSolve, command)) {
      status = solver_->receive(deadline, tag, reply);
    }
    const double waited = now_seconds() - sent;
    if (status == ReadStatus::kOk && tag == kResult) {
      std::string why;
      if (check_(reply, why)) {
        // Checked: keep only the solution's size, not the solution.
        reply.set("solution_words", static_cast<double>(reply.payload.size()));
        reply.payload = {};
        return {true, reply.get("solve_s")};
      }
      if (result_.invalid++ == 0) result_.first_invalid_reason = why;
      return {false, waited};
    }
    note_peak_rss();
    solver_->kill_and_reap();
    solver_.reset();
    ++result_.restarts;
    start_solver();
    return {false, waited};
  }

  /// Brings up a solver and measures its set-up. The warm-up runs on the
  /// last seed known to complete; before any has, on the warm-up stream,
  /// skipping warm-up seeds that miss their deadline (a warm-up is not a
  /// measured solve).
  bool start_solver() {
    for (int attempt = 0; attempt < 20; ++attempt) {
      const std::uint64_t warm =
          last_good_ ? *last_good_ : config_.warmup_seed(warm_index_);
      std::vector<std::string> argv = config_.solver_argv;
      argv.insert(argv.end(), {"--warmup-seed", std::to_string(warm)});
      auto solver = std::make_unique<SolverProcess>(argv);
      std::uint32_t tag = 0;
      Record ready;
      if (solver->receive(config_.ingest_deadline_s, tag, ready) !=
              ReadStatus::kOk ||
          tag != kReady) {
        result_.setup_failed = true;
        result_.setup_error = "solver did not finish ingest";
        return false;
      }
      Record setup;
      const double deadline =
          config_.traced ? config_.traced_deadline_s : config_.deadline_s;
      if (solver->receive(deadline, tag, setup) != ReadStatus::kOk ||
          tag != kSetup) {
        solver->kill_and_reap();
        last_good_.reset();
        ++warm_index_;
        continue;
      }
      result_.setup_seconds.push_back(setup.get("setup_s"));
      if (result_.first_setup.values.empty()) {
        result_.first_setup = ready;
        for (const auto& [name, value] : setup.values) {
          result_.first_setup.set(name, value);
        }
      }
      solver_ = std::move(solver);
      return true;
    }
    result_.setup_failed = true;
    result_.setup_error = "no warm-up seed completed within its deadline";
    return false;
  }

  void note_peak_rss() {
    result_.peak_rss_kib = std::max(result_.peak_rss_kib, solver_->vm_hwm_kib());
  }

  const LoopConfig& config_;
  const ReplyChecker& check_;
  LoopResult result_;
  std::unique_ptr<SolverProcess> solver_;
  std::optional<std::uint64_t> last_good_;
  std::size_t warm_index_ = 0;
};

}  // namespace

LoopResult run_solve_loop(const LoopConfig& config, const ReplyChecker& check) {
  return LoopRunner(config, check).run();
}

}  // namespace perfbench
