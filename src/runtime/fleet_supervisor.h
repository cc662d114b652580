// runtime::FleetSupervisor — fault-tolerant orchestration of shard workers.
//
// Launching shard workers and waiting for them is not enough: a hung worker
// stalls the whole population run, and a crashing cell kills its shard with
// no way to make progress past it. The supervisor fixes both without
// touching the workers' determinism contract:
//
//   - Liveness deadlines from progress heartbeats. Workers flush records
//     every 32 lines, so shard-file growth IS the heartbeat — the supervisor
//     stats each shard's output file and SIGKILLs a worker whose file has
//     not grown within the deadline, reclassifying it host_transient.
//   - Bounded retry with doubling backoff, reusing the PR 5 failure
//     taxonomy. A re-spawned worker resumes from the flushed record prefix,
//     so a retry that succeeds is bit-identical to a first-attempt success.
//   - Poisoned-cell quarantine. When a shard dies repeatedly, the
//     supervisor bisects its cell window across re-spawns to isolate the
//     culprit cell, records it in a quarantine manifest ({"cell","seed",
//     "taxonomy","attempts"}), and continues — one pathological cell costs
//     O(log cells) re-spawns instead of the population.
//
// The supervisor is simulation-agnostic: it never parses shard records or
// fleet specs. Callbacks injected by the caller (the CLI, or a test) supply
// shard paths, worker spawning, per-cell seeds and chaos plans.

#ifndef SRC_RUNTIME_FLEET_SUPERVISOR_H_
#define SRC_RUNTIME_FLEET_SUPERVISOR_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runtime/supervisor.h"

namespace wdmlat::runtime {

// Deterministic host-chaos perturbation for one worker attempt (produced by
// lab::HostChaos; the supervisor only forwards it). All fields default to
// "no perturbation".
struct FleetChaosPlan {
  // Sleep this long before the worker starts executing cells.
  double delay_ms = 0.0;
  // raise(SIGKILL) after this many freshly executed cells (0 = never).
  std::uint64_t kill_after_cells = 0;
  // File sabotage applied by the supervisor to the shard file after a
  // FAILED attempt (a completed shard is never corrupted — real crashes
  // tear mid-write, they do not damage files whose writer exited cleanly).
  enum class Sabotage : std::uint8_t { kNone, kTruncate, kBitFlip };
  Sabotage sabotage = Sabotage::kNone;
  std::uint64_t sabotage_param = 0;

  bool perturbs() const {
    return delay_ms > 0.0 || kill_after_cells > 0 || sabotage != Sabotage::kNone;
  }
};

// What the supervisor asks a spawner to launch: one worker covering the
// shard's stride cells within [cell_lo, cell_hi), skipping quarantined
// cells (communicated via quarantine_path), perturbed by `chaos`.
struct FleetWorkerRequest {
  std::size_t shard = 0;
  std::size_t cell_lo = 0;           // window start (inclusive, global index)
  std::size_t cell_hi = 0;           // window end (exclusive, global index)
  int attempt = 1;                   // 1-based attempt for this window
  std::string out_path;              // where the worker writes its records
  std::string quarantine_path;       // manifest of cells to skip ("" = none)
  FleetChaosPlan chaos;              // perturbation for this attempt
  bool probe = false;                // bisection probe (narrowed window)
};

// One quarantined cell, as recorded in the manifest.
struct QuarantinedCell {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  FailureKind kind = FailureKind::kException;
  int attempts = 1;
};

struct FleetSupervisorOptions {
  std::size_t shards = 1;
  std::size_t cell_count = 0;
  int max_parallel = 1;
  // Heartbeat deadline: SIGKILL a worker whose shard file has not grown for
  // this long. 0 disables liveness watching.
  double shard_timeout_s = 0.0;
  // Total attempts per shard window before bisection starts (>= 1).
  int max_attempts = 3;
  // First retry backoff; doubles per subsequent retry of the same window.
  double retry_backoff_ms = 25.0;
  // Liveness/exit poll cadence.
  double poll_interval_ms = 20.0;
  // Pre-existing quarantine manifest ("" = none yet); updated via
  // on_quarantine as cells are isolated.
  std::string quarantine_path;

  // --- callbacks (all required unless noted) ---
  // Path of shard k's output file.
  std::function<std::string(std::size_t shard)> shard_path;
  // Launch a worker for the request; fill *pid. False + *error on failure.
  std::function<bool(const FleetWorkerRequest&, pid_t* pid, std::string* error)> spawn;
  // Seed of a global cell index (for the quarantine manifest).
  std::function<std::uint64_t(std::size_t cell)> cell_seed;
  // Chaos plan for (shard, attempt); unset = never perturb. `attempt`
  // counts every spawn of that shard (probes included) so each re-spawn
  // draws a fresh plan.
  std::function<FleetChaosPlan(std::size_t shard, int attempt)> chaos;
  // A cell was isolated: persist it, return the manifest path workers
  // should skip from now on. Unset = keep options.quarantine_path.
  std::function<std::string(const QuarantinedCell&)> on_quarantine;
  // Progress/diagnostic lines ("" = silent). Optional.
  std::function<void(const std::string&)> log;
};

struct FleetSupervisorResult {
  std::string error;                      // non-empty when a shard failed for good
  std::vector<QuarantinedCell> quarantined;  // isolated this run, cell-ascending
  std::vector<std::string> warnings;
  std::uint64_t spawns = 0;               // every worker launch (probes included)
  std::uint64_t retries = 0;              // re-spawns after a failed attempt
  std::uint64_t heartbeat_kills = 0;      // workers SIGKILLed for stalling
  std::uint64_t bisect_probes = 0;        // narrowed-window isolation spawns
  double wall_seconds = 0.0;

  bool ok() const { return error.empty(); }
};

// Number of cells shard `shard` of `shards` owns inside [lo, hi): the
// stride-cell window arithmetic used by bisection. Exposed for tests.
std::size_t CellsInWindow(std::size_t shard, std::size_t shards,
                          std::size_t lo, std::size_t hi);

// The n-th (0-based) stride cell of `shard` at or after `lo`.
std::size_t NthCellInWindow(std::size_t shard, std::size_t shards,
                            std::size_t lo, std::size_t n);

// Drive every shard to completion (or quarantine-capped failure). Blocking;
// single-threaded; child processes provide the parallelism.
FleetSupervisorResult SuperviseFleet(const FleetSupervisorOptions& options);

}  // namespace wdmlat::runtime

#endif  // SRC_RUNTIME_FLEET_SUPERVISOR_H_
