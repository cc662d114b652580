// lab::Fleet — population-scale simulation (ROADMAP item 2).
//
// A FleetSpec describes cohorts of simulated machines drawn from priors:
// hardware speeds (log-uniform MHz, applied by scaling the kernel profile's
// cost distributions — the simulated cycle rate stays pinned at 300 MHz),
// workload mixes (weighted sample), an OS personality, and a fault-plan
// prior. The spec expands into `count` cells per cohort; every per-member
// draw derives from a SplitMix64 hash chain over (master seed, cohort,
// member), so a cell's bits depend only on its coordinates — never on shard
// count, job count, or execution order.
//
// Execution is sharded: cell i belongs to shard i % shards, and
// RunFleetShard runs one shard's cells (optionally in parallel) through the
// shared record-log executor (src/lab/record_log.h), writing one compact
// record per cell — thread + DPC histograms, optional sketch, anatomy stage
// totals, counters — in global cell-index order. Workers resume for free:
// records that verify against this spec are kept and only missing cells
// re-run; a shard file written under another spec is refused.
//
// MergeFleetShards then folds the shard files with a streaming grid-order
// merge: records are consumed strictly in global index order (round-robin
// across the per-shard streams) and folded into per-cohort accumulators,
// then discarded — peak RSS is O(cohorts + open shard streams + hardware
// threads), not O(cells), and the fold order is the same whatever
// `--shards`/`--jobs` produced the files, so the merged report is
// bit-identical (fleet determinism tests).

#ifndef SRC_LAB_FLEET_H_
#define SRC_LAB_FLEET_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fault/fault.h"
#include "src/lab/lab.h"
#include "src/lab/record_log.h"
#include "src/obs/anatomy.h"
#include "src/runtime/supervisor.h"
#include "src/stats/histogram.h"
#include "src/stats/quantile_sketch.h"
#include "src/stats/usage_model.h"

namespace wdmlat::lab {

// One population cohort: `count` members drawn from shared priors.
struct FleetCohort {
  std::string name;
  // OS personality: "nt4", "win98", "w2kbeta", or an SMP variant —
  // "nt_smp2"/"nt_smp4" (DPC-pinned) / "nt_smp2_migrate"/"nt_smp4_migrate"
  // (DPC-migrating, round-robin IRQs, work stealing).
  std::string os = "win98";
  // Workload mix: each member samples one entry ("office", "workstation",
  // "games", "web", "idle"), weighted by workload_weights when non-empty
  // (same length, positive), uniformly otherwise.
  std::vector<std::string> workloads = {"office"};
  std::vector<double> workload_weights;
  int priority = 28;
  std::uint64_t count = 1;
  double stress_minutes = 0.05;
  double warmup_seconds = 1.0;
  // Sampling-timer rate the latency driver reprograms the PIT to (the
  // paper uses 1 kHz). Screening populations crank this up: a 4 kHz PIT
  // takes 4x the samples per virtual second — same mechanism, shorter
  // cells, better pooled tails. The driver's ARBITRARY_DELAY scales with
  // the tick so it stays one tick long.
  double pit_hz = 1000.0;
  // Hardware-speed prior: each member's CPU clock is sampled log-uniformly
  // in [speed_mhz_lo, speed_mhz_hi]; kernel cost distributions scale by
  // 300/speed (sim::DurationDist::Scaled).
  double speed_mhz_lo = 300.0;
  double speed_mhz_hi = 300.0;
  // Fault prior: each member runs this built-in fault plan
  // (fault::FindBuiltinPlan name; empty = never) with probability
  // fault_prob.
  std::string fault_plan;
  double fault_prob = 0.0;
  // Stream every member's thread-latency samples into a per-cell
  // QuantileSketch (exact deep tails, but the dominant record-size term).
  bool sketch = false;
  // >0: arm the flight recorder + anatomy sink at this threshold; exact
  // per-stage cycle totals pool into the cohort report.
  double episode_threshold_us = 0.0;
  TestSystemOptions options;
};

struct FleetSpec {
  std::string name = "fleet";
  std::uint64_t master_seed = 1999;
  std::vector<FleetCohort> cohorts;

  std::uint64_t cell_count() const {
    std::uint64_t total = 0;
    for (const FleetCohort& cohort : cohorts) {
      total += cohort.count;
    }
    return total;
  }
};

// Parse a population-spec JSON document (schema in EXPERIMENTS.md "fleet
// recipe"). Unknown OS/workload/fault-plan names, bad weights and empty
// cohorts fail here, not mid-run.
bool FleetSpecFromJson(std::string_view text, FleetSpec* spec, std::string* error);
// Read and parse a spec file.
bool LoadFleetSpec(const std::string& path, FleetSpec* spec, std::string* error);

// Stable FNV-1a fingerprint over everything that determines cell bits:
// master seed, cohort order, names, counts, priors, durations. Written into
// every shard record ("spec") and into fleet.json; resume and merge refuse
// records whose spec differs.
std::uint64_t FleetFingerprint(const FleetSpec& spec);

// Name -> profile lookups shared by spec parsing and the CLI. kOsNames and
// kWorkloadNames list every accepted name, '|'-separated, for diagnostics.
inline constexpr const char* kOsNames =
    "nt4|win98|w2kbeta|nt_smp2|nt_smp4|nt_smp2_migrate|nt_smp4_migrate";
inline constexpr const char* kWorkloadNames = "office|workstation|games|web|idle";
bool OsProfileByName(std::string_view name, kernel::KernelProfile* out);
bool WorkloadByName(std::string_view name, workload::StressProfile* out);

// Per-member seed: SplitMix64 hash chain over (master seed, cohort index,
// member index). Shard- and jobs-independent by construction.
std::uint64_t FleetCellSeed(std::uint64_t master_seed, std::size_t cohort,
                            std::uint64_t member);

// One materialized member: coordinates, seed, and the per-member draws
// (speed, workload, fault activation) sampled from a side stream derived
// from the seed — never from the simulation's own RNG.
struct FleetCell {
  std::uint64_t index = 0;  // global cell index (cohort-major)
  std::size_t cohort = 0;
  std::uint64_t member = 0;
  std::uint64_t seed = 0;
  double speed_mhz = 300.0;
  std::size_t workload_index = 0;
  bool fault_active = false;
};

class Fleet {
 public:
  // Validates the spec the same way FleetSpecFromJson does; `error()` is
  // non-empty (and the fleet unusable) on a bad spec.
  explicit Fleet(FleetSpec spec);

  const FleetSpec& spec() const { return spec_; }
  const std::string& error() const { return error_; }
  std::uint64_t cell_count() const { return cell_count_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Materialize cell `index` (coordinates + per-member draws).
  FleetCell CellAt(std::uint64_t index) const;
  // Expand a cell into its LabConfig: OS profile scaled for the sampled
  // speed, sampled workload, cohort knobs, fault plan when active.
  LabConfig CellConfig(const FleetCell& cell) const;

 private:
  FleetSpec spec_;
  std::string error_;
  std::uint64_t cell_count_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<std::uint64_t> cohort_begin_;  // prefix sums over cohort counts
  std::vector<fault::FaultPlan> plans_;      // resolved built-in plan per cohort
};

// Compact per-cell result: exactly the accumulator inputs, a fraction of a
// full ReportToJson artifact.
struct FleetCellRecord {
  std::uint64_t index = 0;
  std::size_t cohort = 0;
  std::uint64_t seed = 0;
  std::uint64_t spec = 0;  // FleetFingerprint of the spec that produced it
  std::uint64_t samples = 0;
  double stress_hours = 0.0;
  double speed_mhz = 300.0;
  std::uint64_t fault_activations = 0;
  std::uint64_t anatomy_episodes = 0;
  std::array<sim::Cycles, obs::kAnatomyStageCount> anatomy_stage_cycles{};
  stats::LatencyHistogram thread;
  stats::LatencyHistogram dpc_interrupt;
  stats::QuantileSketch thread_sketch;
};

// A finished cell's record, less its coordinates (index, cohort, seed, spec,
// speed): the one conversion from a LabReport. Its stress hours are the
// driver's measured ones (samples over the measured rate), so a pooled rate
// is total samples over total hours; a sample-free cell counts its nominal
// config.stress_minutes.
FleetCellRecord MakeCellRecord(const LabReport& report, const LabConfig& config);

// What a matrix group pools from its trials and a fleet cohort from its
// members. Add is the one fold; each runner calls it once per completed
// cell in grid order, so floating-point sums and sketch states are the same
// whatever the job or shard count.
struct CellPool {
  std::uint64_t cells = 0;  // cells folded
  stats::SampleCounters counters;
  stats::LatencyHistogram thread;
  stats::LatencyHistogram dpc_interrupt;
  stats::QuantileSketch thread_sketch;
  std::uint64_t fault_activations = 0;
  std::uint64_t anatomy_episodes = 0;
  std::array<sim::Cycles, obs::kAnatomyStageCount> anatomy_stage_cycles{};

  void Add(const FleetCellRecord& record);
  std::uint64_t samples() const { return counters.samples; }
  double samples_per_hour() const { return counters.SamplesPerHour(); }
};

// One record-log line (src/lab/record_log.h): {"cell", "seed", "spec",
// "checksum", "payload"} where payload is the record body (report_io
// dialect: hexfloats + decimal u64s, the sketch in cycle counts when it
// can be; payload version 2), so a torn or bit-rotted line fails loudly on
// resume and on merge. A payload of another version is rejected: resume
// re-runs its cell, a strict merge stops on it.
std::string FleetRecordToLine(const FleetCellRecord& record);
bool FleetRecordFromLine(std::string_view line, FleetCellRecord* record, std::string* error,
                         RecordDamage* damage = nullptr);

// Reuses one warmed TestSystem across cells: the first Run constructs it,
// later Runs TestSystem::Reset() it (keeping the engine's bucket/slab
// capacity). Results are bit-identical to RunLatencyExperiment(config)
// (golden-checksum test in tests/fleet_test.cc).
class WarmCellRunner {
 public:
  WarmCellRunner();
  ~WarmCellRunner();

  LabReport Run(const LabConfig& config);

  std::uint64_t constructions() const { return constructions_; }
  std::uint64_t resets() const { return resets_; }

 private:
  std::unique_ptr<TestSystem> system_;
  std::uint64_t constructions_ = 0;
  std::uint64_t resets_ = 0;
};

// Canonical shard-file path: <dir>/shard_<k>_of_<n>.jsonl.
std::string FleetShardPath(const std::string& dir, std::size_t shard, std::size_t shards);

struct FleetShardOptions {
  std::size_t shard = 0;
  std::size_t shards = 1;
  int jobs = 1;
  // Shard record file (required). An existing file resumes: records that
  // verify (checksum + seed + spec) are kept, only missing cells run; a file
  // holding another spec's records is refused untouched.
  std::string out_path;
  // Cell window [cell_lo, cell_hi): only stride cells inside it run
  // (cell_hi == 0 means cell_count). The supervisor's quarantine bisection
  // narrows this to isolate a poisoned cell; records outside the window
  // that already verify are preserved, so probe work accumulates.
  std::uint64_t cell_lo = 0;
  std::uint64_t cell_hi = 0;
  // Quarantined cells (sorted ascending): never executed, excluded from
  // cells_total. A verified record for one is still preserved.
  std::vector<std::uint64_t> skip_cells;
  // Test/CI fixture: abort() the worker when this cell executes (simulates
  // a poisoned cell that takes the process down). < 0 disables.
  std::int64_t poison_cell = -1;
  // Host-chaos hooks (lab::HostChaos): raise(SIGKILL) after this many
  // freshly executed cells (0 = never), and/or sleep before starting.
  std::uint64_t chaos_kill_after_cells = 0;
  double chaos_delay_ms = 0.0;
  // Host-clock budget of each cell's watchdog; 0 leaves it disarmed.
  double cell_timeout_ms = 0.0;
  // Progress hook, serialized under the writer lock (completion order).
  std::function<void(const FleetCell&, bool ok)> on_cell_done;
};

// A shard run reports what the record-log executor does: cells in scope,
// executed and restored, failures, resume warnings and any fatal error.
using FleetShardResult = CellLogResult;

// Run shard `shard` of `shards` (cells with index % shards == shard) via
// RunCellLog, which owns the write, flush, rewrite and resume contract.
FleetShardResult RunFleetShard(const Fleet& fleet, const FleetShardOptions& options);

// One quarantined cell, as persisted in the manifest and reported in the
// merged fleet.json coverage section. `taxonomy` is a runtime::FailureKind
// name when the supervisor isolated the cell (exception/timeout), or a
// merge-detected reason ("missing_record", "corrupt_record",
// "checksum_mismatch", "seed_mismatch", "spec_mismatch") when degradation
// quarantined it.
struct FleetQuarantineEntry {
  std::uint64_t cell = 0;
  std::uint64_t seed = 0;
  std::size_t cohort = 0;  // filled by the merge; not persisted
  std::string taxonomy;
  int attempts = 1;
};

// Quarantine manifest: one JSONL line per cell —
// {"cell": "N", "seed": "N", "taxonomy": "...", "attempts": N}.
bool LoadFleetQuarantine(const std::string& path,
                         std::vector<FleetQuarantineEntry>* entries,
                         std::string* error);
bool SaveFleetQuarantine(const std::string& path,
                         const std::vector<FleetQuarantineEntry>& entries,
                         std::string* error);

// Per-cohort accumulators — the O(cohorts) working set of the merge. The
// pool's `cells` are the cells actually folded (completed).
struct FleetCohortReport : CellPool {
  std::string name;
  std::string os;
  int priority = 0;
  std::uint64_t planned = 0;      // cells the spec promised this cohort
  std::uint64_t quarantined = 0;  // planned - cells, by taxonomy in the report
  std::uint64_t fault_cells = 0;  // cells whose fault plan activated >= once
  double speed_mhz_sum = 0.0;
  double speed_mhz_min = 0.0;
  double speed_mhz_max = 0.0;
};

struct FleetReport {
  std::string name;
  std::uint64_t fingerprint = 0;
  std::uint64_t cells = 0;             // planned population size
  std::uint64_t cells_completed = 0;   // records folded
  std::uint64_t cells_quarantined = 0; // explicit coverage gap, never silent
  std::vector<FleetQuarantineEntry> quarantine;  // cell-ascending
  // Degradation diagnostics (dropped lines, stale records). Printed by the
  // CLI, deliberately NOT serialized into fleet.json.
  std::vector<std::string> merge_warnings;
  std::vector<FleetCohortReport> cohorts;
};

struct FleetMergeOptions {
  // Cells known-missing before the merge starts (the supervisor's quarantine
  // manifest): expected gaps, skipped without complaint in either mode.
  std::vector<FleetQuarantineEntry> quarantined;
  // Degraded mode: a corrupt / duplicate / missing record quarantines its
  // cell (recorded in the report's coverage manifest) instead of failing the
  // merge. Strict mode (default) fails on the first unexpected anomaly.
  bool allow_degraded = false;
};

// Streaming grid-order merge: consume the shard record streams strictly in
// global cell-index order, folding each record into its cohort accumulator
// and discarding it. `shard_paths[k]` must be shard k of shard_paths.size().
// Records are decoded on one worker per hardware thread, at most two per
// worker ahead of the fold, and folded serially in grid order, so the
// result is the same as a line-by-line merge. Fails (false + error) on a
// missing/torn/mismatched record — including one written under another
// spec — since an incomplete shard must be re-run, never silently skipped.
bool MergeFleetShards(const Fleet& fleet, const std::vector<std::string>& shard_paths,
                      FleetReport* report, std::string* error);

// Same merge with an expected-quarantine list and optional graceful
// degradation; the report's coverage manifest (cells planned / completed /
// quarantined, per cohort) makes any gap loud.
bool MergeFleetShards(const Fleet& fleet, const std::vector<std::string>& shard_paths,
                      const FleetMergeOptions& merge_options, FleetReport* report,
                      std::string* error);

// Serialize the merged report: exact histogram/sketch states in the
// report_io dialect plus human-readable per-cohort quantiles. Deterministic
// bytes — the smoke test checksums this.
std::string FleetReportToJson(const FleetReport& report);

}  // namespace wdmlat::lab

#endif  // SRC_LAB_FLEET_H_
