// ExperimentMatrix: the paper's measurement grid, run in parallel.
//
// The paper's exhibits are built from a matrix of experiment cells —
// {NT, 98} × {office, workstation, games, web} × {priority 24, 28} × seeds —
// and each cell is an independent single-threaded simulation. This runner
// expands an {os × workload × priority × trials} grid into LabConfigs with
// SplitMix64-derived per-cell seeds, fans the cells across a
// runtime::ThreadPool, and merges the per-trial LabReports of each
// (os, workload, priority) group into pooled distributions.
//
// Determinism contract (enforced by tests/matrix_determinism_test.cc): for a
// fixed master seed, the merged histograms are bit-identical for jobs=1 and
// jobs=N. Two mechanisms guarantee it:
//   1. A cell's seed depends only on its grid coordinates and the master
//      seed — never on enumeration or completion order.
//   2. Every cell writes its report into a pre-sized slot, and slots are
//      merged sequentially in grid order after all cells finish, so even the
//      floating-point sums accumulate in a jobs-independent order.

#ifndef SRC_LAB_MATRIX_H_
#define SRC_LAB_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/lab/fleet.h"
#include "src/lab/lab.h"
#include "src/lab/record_log.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"
#include "src/runtime/supervisor.h"

namespace wdmlat::lab {

class ExperimentMatrix;

struct MatrixSpec {
  std::vector<kernel::KernelProfile> oses;
  std::vector<workload::StressProfile> workloads;
  // Measured RT thread priorities (the paper uses 28 "High" and 24 "Med.").
  std::vector<int> priorities;
  // Independent trials per (os, workload, priority) group, each with its own
  // derived seed; trial histograms merge into the group's pooled result.
  int trials = 1;
  std::uint64_t master_seed = 1999;
  // Every cell's LabConfig: durations, machine options, driver, the fault
  // plan (borrowed; each cell's injector derives its streams from the plan
  // seed and the cell seed) and the obs knobs (episode threshold, anatomy,
  // sketch; queue sampling only with collect_metrics). A cell takes its os,
  // stress, thread_priority and seed from the axes. obs.metrics,
  // obs.trace_sink and supervision must stay unset, since collect_metrics,
  // trace_sink and MatrixRunOptions set them: Run refuses such a template.
  LabConfig cell;
  // Collect per-cell MetricsRegistries and merge them — grid order, so the
  // merged registry is jobs-independent — into MatrixResult::metrics.
  // Records do not hold registries, so a resume re-runs every cell.
  bool collect_metrics = false;
  // Receives the dispatcher trace of the lowest-index cell that runs: a sink
  // shared by concurrently-running cells would interleave their tracks
  // meaninglessly, so the sim-side tracks show one representative cell
  // while the host-side tracks (lab::AppendHostTrace) cover the whole run.
  kernel::TraceSink* trace_sink = nullptr;

  std::size_t cell_count() const {
    return oses.size() * workloads.size() * priorities.size() *
           static_cast<std::size_t>(trials < 1 ? 1 : trials);
  }
  std::size_t group_count() const {
    return oses.size() * workloads.size() * priorities.size();
  }
};

// The paper's full Figure-4 grid: {NT 4.0, Windows 98} × the four stress
// loads × priorities {28, 24}, one trial per cell.
MatrixSpec PaperMatrix();

// Stable hash of everything that determines a matrix's cells and their
// bits: master seed, grid axes (profile/workload names, priorities),
// trials, durations, machine options, every field of every fault-plan spec
// and the episode, anatomy and sketch knobs. The `spec` of every matrix
// record.
std::uint64_t MatrixFingerprint(const MatrixSpec& spec);

// One expanded cell, in grid-enumeration order (os-major, then workload,
// then priority, then trial).
struct MatrixCell {
  std::size_t index = 0;  // linear index in enumeration order
  std::size_t os_index = 0;
  std::size_t workload_index = 0;
  std::size_t priority_index = 0;
  int trial = 0;
  std::uint64_t seed = 0;  // = CellSeed(master, coordinates)
  LabConfig config;
};

// A merged (os, workload, priority) group: the per-trial LabReports combined
// bucket-for-bucket via LatencyHistogram::Merge, sampling counters pooled.
// The pool's `cells` are the trials merged; its sketch and anatomy and fault
// tallies are zero unless the cell template asked for them.
struct MergedCell : CellPool {
  std::string os_name;
  std::string workload_name;
  int thread_priority = 0;

  stats::LatencyHistogram thread_interrupt;
  stats::LatencyHistogram interrupt;
  stats::LatencyHistogram isr_to_dpc;
  stats::LatencyHistogram true_pit_interrupt_latency;
  bool has_interrupt_latency = false;

  stats::UsageModel usage;

  // Flight-recorder tallies pooled across trials (zero unless the cell
  // template set obs.episode_threshold_us).
  std::uint64_t episodes = 0;
  std::uint64_t episodes_attributed = 0;
  std::uint64_t episode_module_matches = 0;
};

// Final disposition of one cell after a (possibly supervised, possibly
// resumed) run.
enum class CellStatus : std::uint8_t {
  kPending,   // never reached (only seen mid-run or after an aborted run)
  kOk,        // executed this run and completed
  kRestored,  // restored bit-exactly from a verified record
  kFailed,    // executed and failed; see MatrixResult::failures
  kSkipped,   // outside this run's MatrixRunOptions::max_cells window
};
const char* CellStatusName(CellStatus status);

// Knobs for ExperimentMatrix::Run. Default-constructed options run every
// cell once, without a watchdog, audits or a checkpoint file.
struct MatrixRunOptions {
  int jobs = 1;
  // Host-clock budget of each cell's watchdog; 0 leaves it disarmed. Every
  // cell runs behind the exception barrier (runtime::RunSupervised): a
  // throwing cell becomes a structured CellFailure and the other cells
  // continue.
  double cell_timeout_ms = 0.0;
  // >0: run an invariant-audit pass inside every cell at this virtual-second
  // cadence (plus once at the end of the measurement phase).
  double audit_every_s = 0.0;
  // Fixtures for tests and ci/resume_smoke.sh (negative = disabled):
  // inject one audit violation into this cell / throw from this cell.
  std::ptrdiff_t audit_fail_cell = -1;
  std::ptrdiff_t throw_cell = -1;
  // >0: this run's cell window is [0, max_cells); cells beyond it are
  // kSkipped unless restored — the controlled "interrupt" used by the
  // resume-determinism tests and `wdmlat_run --max-cells`.
  std::size_t max_cells = 0;
  // Non-empty: checkpoint every finished cell to this record log
  // (src/lab/record_log.h; payload = ReportToJson). An existing log resumes:
  // cells whose records verify are restored bit-exactly, the rest run, and a
  // log written under a different MatrixFingerprint is refused (error).
  std::string journal_path;
  // Progress hooks, serialized under the runner's lock (completion order).
  std::function<void(const MatrixCell&, CellStatus)> on_cell_done;
  std::function<void(const runtime::CellFailure&)> on_cell_failed;
};

struct MatrixResult {
  // Per-cell reports, parallel to ExperimentMatrix::cells().
  std::vector<LabReport> reports;
  // One merged group per (os, workload, priority), in grid order.
  std::vector<MergedCell> merged;

  // Wall-clock accounting for the speedup report: elapsed time of the whole
  // run versus the summed per-cell times (≈ what a serial run would cost).
  double wall_seconds = 0.0;
  double total_cell_seconds = 0.0;
  double Speedup() const {
    return wall_seconds > 0.0 ? total_cell_seconds / wall_seconds : 1.0;
  }

  // Merged per-cell registries (grid order) plus host-side "matrix.*"
  // metrics; empty unless MatrixSpec::collect_metrics was set.
  obs::MetricsRegistry metrics;

  // Host-side schedule of each cell, parallel to ExperimentMatrix::cells():
  // which pool worker ran it and when (seconds since the run started).
  struct CellTiming {
    int worker = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  std::vector<CellTiming> timings;
  int workers_observed = 0;

  // Pool utilization: summed cell time over (wall time × workers).
  double Utilization() const {
    const double capacity = wall_seconds * static_cast<double>(workers_observed);
    return capacity > 0.0 ? total_cell_seconds / capacity : 0.0;
  }

  // --- Supervision outcome (populated by Run(MatrixRunOptions)) -------------
  // Per-cell dispositions, parallel to ExperimentMatrix::cells().
  std::vector<CellStatus> statuses;
  // The record-log executor's account: cells executed (kOk + kFailed) and
  // restored, the structured failures of every kFailed cell (completion
  // order), resume warnings (each names a cell re-run instead of restored)
  // and the error that aborted the run, if any: a cell template Run
  // refuses, a record log written under another spec (before any cell
  // runs), or a record-log I/O failure.
  CellLogResult run;
  std::size_t cells_skipped = 0;  // unlaunched due to max_cells
  // Post-merge conservation audit: any group whose merged histogram counts
  // differ from the sum of its merged trials' counts. Always empty unless
  // the merge arithmetic itself is broken.
  std::vector<std::string> merge_violations;

  // Every cell is kOk or kRestored (the merged exhibits cover the full grid).
  bool complete() const;
};

// Append the host-side view of a finished matrix run to `writer`: one track
// per pool worker under ChromeTraceWriter::kHostPid, one complete slice per
// cell that ran in this run (restored and skipped cells have no wall time)
// named "os/workload/prio" with its seed and wall time as args.
void AppendHostTrace(obs::ChromeTraceWriter& writer, const ExperimentMatrix& matrix,
                     const MatrixResult& result);

class ExperimentMatrix {
 public:
  explicit ExperimentMatrix(MatrixSpec spec);

  const MatrixSpec& spec() const { return spec_; }
  const std::vector<MatrixCell>& cells() const { return cells_; }

  // Deterministic per-cell seed: a SplitMix64 hash chain over (master seed,
  // grid coordinates). Depends only on the coordinates, so adding a trial or
  // reordering the run never reseeds existing cells.
  static std::uint64_t CellSeed(std::uint64_t master_seed, std::size_t os_index,
                                std::size_t workload_index, int priority, int trial);

  // Run the grid on `options.jobs` worker threads (jobs <= 1 runs inline)
  // through the shared record-log executor (lab::RunCellLog): per-cell
  // exception barrier and watchdog, optional invariant audits, optional
  // checkpoint and resume. Failed cells are recorded in
  // MatrixResult::failures and excluded from the merge; everything that
  // merges is bit-identical at any job count and across resume (same grid
  // order, same per-cell bits — supervision hooks are pure observers).
  MatrixResult Run(const MatrixRunOptions& options) const;

  // Index of a group in MatrixResult::merged by grid coordinates.
  std::size_t GroupIndex(std::size_t os_index, std::size_t workload_index,
                         std::size_t priority_index) const;

 private:
  MatrixSpec spec_;
  std::vector<MatrixCell> cells_;
};

}  // namespace wdmlat::lab

#endif  // SRC_LAB_MATRIX_H_
