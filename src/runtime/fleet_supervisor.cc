#include "src/runtime/fleet_supervisor.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#include "src/runtime/shard_runner.h"

namespace wdmlat::runtime {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::size_t CellsInWindow(std::size_t shard, std::size_t shards,
                          std::size_t lo, std::size_t hi) {
  if (shards == 0 || lo >= hi) {
    return 0;
  }
  const std::size_t first = lo + ((shard + shards - lo % shards) % shards);
  if (first >= hi) {
    return 0;
  }
  return (hi - 1 - first) / shards + 1;
}

std::size_t NthCellInWindow(std::size_t shard, std::size_t shards,
                            std::size_t lo, std::size_t n) {
  const std::size_t first = lo + ((shard + shards - lo % shards) % shards);
  return first + n * shards;
}

namespace {

// Give up on a shard after isolating this many poisoned cells.
constexpr int kMaxQuarantinePerShard = 8;

// Durable progress of a shard: the output file plus the rewrite tmp a
// resuming worker streams into before its final rename. Any change in the
// combined size is a heartbeat (the rename shrinks the sum — still a change).
std::uintmax_t ProgressMetric(const std::string& out_path) {
  std::error_code ec;
  std::uintmax_t total = 0;
  const std::uintmax_t a = fs::file_size(out_path, ec);
  if (!ec) {
    total += a;
  }
  ec.clear();
  const std::uintmax_t b = fs::file_size(out_path + ".tmp", ec);
  if (!ec) {
    total += 1 + b;  // +1 so tmp appearing/vanishing is itself progress
  }
  return total;
}

// Chaos sabotage: tear the shard file the way a crashing host would — a
// truncated tail or a flipped bit. Applied only after a FAILED attempt; the
// resume pass must detect and re-execute whatever this damages.
void ApplySabotage(const std::string& path, const FleetChaosPlan& plan) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec || size == 0) {
    return;
  }
  if (plan.sabotage == FleetChaosPlan::Sabotage::kTruncate) {
    const std::uintmax_t cut = 1 + plan.sabotage_param % 80;
    fs::resize_file(path, size - std::min(size, cut), ec);
  } else if (plan.sabotage == FleetChaosPlan::Sabotage::kBitFlip) {
    const std::uintmax_t offset = plan.sabotage_param % size;
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    if (!f.is_open()) {
      return;
    }
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    if (!f.get(byte)) {
      return;
    }
    byte = static_cast<char>(byte ^ (1 << (plan.sabotage_param % 8)));
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(byte);
  }
}

std::string DescribeExit(const ShardProcessResult& res) {
  if (!res.error.empty()) {
    return res.error;
  }
  std::ostringstream out;
  if (res.signaled) {
    out << "killed by signal " << res.exit_code;
  } else {
    out << "exited with status " << res.exit_code;
  }
  return out.str();
}

struct ShardState {
  std::size_t shard = 0;
  enum class Phase { kIdle, kRunning, kDone, kFailed } phase = Phase::kIdle;
  std::string out_path;
  std::string failure;

  // Window of the current/next run.
  std::size_t run_lo = 0;
  std::size_t run_hi = 0;
  bool run_probe = false;
  int window_attempt = 0;  // attempts of the current window (1-based once run)
  int total_spawns = 0;    // every launch of this shard, probes included
  int spawn_failures = 0;
  int quarantined_count = 0;
  int inconclusive_bisects = 0;
  double backoff_ms = 0.0;
  Clock::time_point eligible_at{};

  // Bisection bookkeeping: the suspect window and the taxonomy of the
  // repeated failure that started it.
  bool bisecting = false;
  std::size_t bisect_lo = 0;
  std::size_t bisect_hi = 0;
  FailureKind q_kind = FailureKind::kException;
  int q_attempts = 1;

  // Running main worker.
  bool running = false;
  pid_t pid = -1;
  bool killed_by_heartbeat = false;
  std::uintmax_t last_metric = 0;
  Clock::time_point last_progress{};
  FleetChaosPlan current_chaos;
  bool chaos_active = false;
};

class Driver {
 public:
  explicit Driver(const FleetSupervisorOptions& options) : options_(options) {}

  FleetSupervisorResult Run() {
    const auto wall_start = Clock::now();
    if (options_.shards == 0 || !options_.shard_path || !options_.spawn ||
        !options_.cell_seed) {
      result_.error = "fleet supervisor misconfigured: missing shards or callbacks";
      return result_;
    }
    quarantine_path_ = options_.quarantine_path;
    const auto now = Clock::now();
    states_.resize(options_.shards);
    for (std::size_t k = 0; k < options_.shards; ++k) {
      ShardState& s = states_[k];
      s.shard = k;
      s.out_path = options_.shard_path(k);
      s.run_lo = 0;
      s.run_hi = options_.cell_count;
      s.eligible_at = now;
    }

    while (true) {
      PollExits();
      CheckHeartbeats();
      SpawnEligible();
      if (AllSettled()) {
        break;  // settle without sleeping one more interval
      }
      const double ms = std::max(1.0, options_.poll_interval_ms);
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(ms * 1000.0)));
    }

    for (const ShardState& s : states_) {
      if (s.phase == ShardState::Phase::kFailed) {
        if (!result_.error.empty()) {
          result_.error += "; ";
        }
        result_.error += s.failure;
      }
    }
    std::sort(result_.quarantined.begin(), result_.quarantined.end(),
              [](const QuarantinedCell& a, const QuarantinedCell& b) {
                return a.cell < b.cell;
              });
    result_.wall_seconds =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    return result_;
  }

 private:
  bool AllSettled() const {
    for (const ShardState& s : states_) {
      if (s.phase != ShardState::Phase::kDone &&
          s.phase != ShardState::Phase::kFailed) {
        return false;
      }
    }
    return true;
  }

  int RunningCount() const {
    int n = 0;
    for (const ShardState& s : states_) {
      n += s.running ? 1 : 0;
    }
    return n;
  }

  void Log(const std::string& line) {
    if (options_.log) {
      options_.log(line);
    }
  }

  void Warn(const std::string& line) {
    result_.warnings.push_back(line);
    Log(line);
  }

  void SpawnEligible() {
    const int cap = std::max(1, options_.max_parallel);
    const auto now = Clock::now();
    for (ShardState& s : states_) {
      if (s.phase != ShardState::Phase::kIdle || now < s.eligible_at) {
        continue;
      }
      if (RunningCount() >= cap) {
        return;
      }
      LaunchMain(s);
    }
  }

  void LaunchMain(ShardState& s) {
    FleetWorkerRequest req;
    req.shard = s.shard;
    req.cell_lo = s.run_lo;
    req.cell_hi = s.run_hi;
    req.out_path = s.out_path;
    req.quarantine_path = quarantine_path_;
    req.probe = s.run_probe;
    ++s.total_spawns;
    req.attempt = s.total_spawns;
    s.chaos_active = false;
    s.current_chaos = FleetChaosPlan{};
    if (options_.chaos && !s.run_probe && s.quarantined_count == 0) {
      req.chaos = options_.chaos(s.shard, s.total_spawns);
      s.current_chaos = req.chaos;
      s.chaos_active = req.chaos.perturbs();
    }
    pid_t pid = -1;
    std::string error;
    if (!options_.spawn(req, &pid, &error)) {
      ++s.spawn_failures;
      if (s.spawn_failures > 8) {
        s.phase = ShardState::Phase::kFailed;
        std::ostringstream out;
        out << "shard " << s.shard << ": cannot spawn worker: " << error;
        s.failure = out.str();
        return;
      }
      std::ostringstream out;
      out << "shard " << s.shard << ": spawn failed (" << error << "); backing off";
      Warn(out.str());
      s.backoff_ms = s.backoff_ms > 0.0 ? s.backoff_ms * 2.0 : 50.0;
      s.eligible_at = Clock::now() + std::chrono::microseconds(
                          static_cast<long>(s.backoff_ms * 1000.0));
      return;
    }
    ++result_.spawns;
    if (req.probe) {
      ++result_.bisect_probes;
    }
    ++s.window_attempt;
    s.running = true;
    s.pid = pid;
    s.killed_by_heartbeat = false;
    s.last_progress = Clock::now();
    s.last_metric = ProgressMetric(s.out_path);
    s.phase = ShardState::Phase::kRunning;
  }

  void PollExits() {
    for (ShardState& s : states_) {
      if (s.running) {
        ShardProcessResult res;
        if (PollShardProcess(s.pid, &res)) {
          HandleMainExit(s, res);
        }
      }
    }
  }

  void CheckHeartbeats() {
    if (options_.shard_timeout_s <= 0.0) {
      return;
    }
    const auto now = Clock::now();
    for (ShardState& s : states_) {
      if (!s.running) {
        continue;
      }
      const std::uintmax_t metric = ProgressMetric(s.out_path);
      if (metric != s.last_metric) {
        s.last_metric = metric;
        s.last_progress = now;
        continue;
      }
      const double stalled_s =
          std::chrono::duration<double>(now - s.last_progress).count();
      if (stalled_s < options_.shard_timeout_s) {
        continue;
      }
      std::ostringstream out;
      out << "shard " << s.shard << ": no progress for " << stalled_s
          << " s — killing stalled worker (" << FailureKindName(FailureKind::kHostTransient)
          << ")";
      Warn(out.str());
      ShardProcessResult res;
      KillShardProcess(s.pid, &res);
      ++result_.heartbeat_kills;
      s.killed_by_heartbeat = true;
      HandleMainExit(s, res);
    }
  }

  void HandleMainExit(ShardState& s, const ShardProcessResult& res) {
    s.running = false;
    const bool probe = s.run_probe;
    if (res.ok()) {
      if (probe) {
        // Probe passed: the culprit is past the probed window.
        s.bisect_lo = s.run_hi;
        AdvanceBisect(s);
      } else {
        s.phase = ShardState::Phase::kDone;
      }
      return;
    }

    // Failed attempt. Apply any pending chaos sabotage now — real crashes
    // tear files mid-write; a worker that exited cleanly never does.
    if (s.chaos_active &&
        s.current_chaos.sabotage != FleetChaosPlan::Sabotage::kNone) {
      ApplySabotage(s.out_path, s.current_chaos);
    }
    const std::string what = DescribeExit(res);
    if (probe) {
      // One strike isolates: the culprit is inside the probed window. A
      // heartbeat kill here means the poison cell hangs instead of crashing
      // — same conclusion.
      s.bisect_hi = s.run_hi;
      AdvanceBisect(s);
      return;
    }
    std::ostringstream out;
    out << "shard " << s.shard << " attempt " << s.window_attempt << ": " << what;
    Warn(out.str());
    if (s.window_attempt < std::max(1, options_.max_attempts)) {
      ++result_.retries;
      s.backoff_ms = s.backoff_ms > 0.0 ? s.backoff_ms * 2.0
                                        : std::max(1.0, options_.retry_backoff_ms);
      s.eligible_at = Clock::now() + std::chrono::microseconds(
                          static_cast<long>(s.backoff_ms * 1000.0));
      s.phase = ShardState::Phase::kIdle;
      return;
    }
    // Retries exhausted: assume a poisoned cell and bisect to isolate it.
    s.q_kind = s.killed_by_heartbeat ? FailureKind::kTimeout : FailureKind::kException;
    s.q_attempts = s.window_attempt;
    EnterBisect(s);
  }

  void EnterBisect(ShardState& s) {
    s.bisecting = true;
    s.bisect_lo = 0;
    s.bisect_hi = options_.cell_count;
    std::ostringstream out;
    out << "shard " << s.shard << ": retries exhausted — bisecting "
        << CellsInWindow(s.shard, options_.shards, s.bisect_lo, s.bisect_hi)
        << " cells to isolate the culprit";
    Log(out.str());
    AdvanceBisect(s);
  }

  void AdvanceBisect(ShardState& s) {
    const std::size_t count =
        CellsInWindow(s.shard, options_.shards, s.bisect_lo, s.bisect_hi);
    if (count == 0) {
      // Every probe passed yet the full window failed: the failure was not
      // tied to one cell after all (a genuine transient). Re-run the full
      // window from scratch, but give up if this keeps happening.
      ++s.inconclusive_bisects;
      if (s.inconclusive_bisects > 2) {
        s.phase = ShardState::Phase::kFailed;
        std::ostringstream out;
        out << "shard " << s.shard
            << ": repeated failures could not be isolated to a cell";
        s.failure = out.str();
        return;
      }
      std::ostringstream out;
      out << "shard " << s.shard << ": bisection inconclusive — retrying full window";
      Warn(out.str());
      ExitBisectToFullRun(s);
      return;
    }
    if (count == 1) {
      Quarantine(s, NthCellInWindow(s.shard, options_.shards, s.bisect_lo, 0));
      return;
    }
    const std::size_t mid =
        NthCellInWindow(s.shard, options_.shards, s.bisect_lo, count / 2);
    s.run_lo = s.bisect_lo;
    s.run_hi = mid;
    s.run_probe = true;
    s.window_attempt = 0;
    s.backoff_ms = 0.0;
    s.phase = ShardState::Phase::kIdle;
    s.eligible_at = Clock::now();
  }

  void Quarantine(ShardState& s, std::size_t cell) {
    QuarantinedCell q;
    q.cell = cell;
    q.seed = options_.cell_seed(cell);
    q.kind = s.q_kind;
    q.attempts = s.q_attempts;
    ++s.quarantined_count;
    if (s.quarantined_count > kMaxQuarantinePerShard) {
      s.phase = ShardState::Phase::kFailed;
      std::ostringstream out;
      out << "shard " << s.shard << ": more than " << kMaxQuarantinePerShard
          << " poisoned cells — giving up on this shard";
      s.failure = out.str();
      return;
    }
    result_.quarantined.push_back(q);
    if (options_.on_quarantine) {
      quarantine_path_ = options_.on_quarantine(q);
    }
    std::ostringstream out;
    out << "shard " << s.shard << ": QUARANTINED cell " << q.cell << " (taxonomy "
        << FailureKindName(q.kind) << ", " << q.attempts << " attempts)";
    Log(out.str());
    ExitBisectToFullRun(s);
  }

  // Back to a normal full-window run (which skips quarantined cells via the
  // manifest); a further poisoned cell re-enters bisection from here.
  void ExitBisectToFullRun(ShardState& s) {
    s.bisecting = false;
    s.run_lo = 0;
    s.run_hi = options_.cell_count;
    s.run_probe = false;
    s.window_attempt = 0;
    s.backoff_ms = 0.0;
    s.phase = ShardState::Phase::kIdle;
    s.eligible_at = Clock::now();
  }

  const FleetSupervisorOptions& options_;
  FleetSupervisorResult result_;
  std::vector<ShardState> states_;
  std::string quarantine_path_;
};

}  // namespace

FleetSupervisorResult SuperviseFleet(const FleetSupervisorOptions& options) {
  return Driver(options).Run();
}

}  // namespace wdmlat::runtime
