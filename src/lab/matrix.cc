#include "src/lab/matrix.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "src/kernel/profile.h"
#include "src/lab/record_log.h"
#include "src/lab/report_io.h"
#include "src/sim/rng.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::lab {

namespace {

// Supervision black box of the cell running on this thread. It outlives the
// cell body (the escaping exception tears down the TestSystem), so the diagnose
// hook, which runs next on the same thread, can still read it.
thread_local std::optional<kernel::TraceRing> t_black_box;

// A failed cell's diagnostic: the black box's top raised-IRQL labels by the
// flight recorder's blame rule, then its newest events.
void DescribeBlackBox(const kernel::TraceRing& ring, std::vector<std::string>* lines) {
  constexpr std::size_t kTopLabels = 10;
  constexpr std::size_t kRecentEvents = 12;
  std::ostringstream line;
  auto flush = [&] {
    lines->push_back(line.str());
    line.str("");
  };
  line << "Black box: the last " << ring.size() << " trace events";
  flush();
  const std::vector<kernel::LabelTime> top = kernel::TopBlame(ring, 0, kTopLabels);
  if (!top.empty()) {
    lines->push_back("Top raised-IRQL time consumers:");
    for (const kernel::LabelTime& entry : top) {
      line << "  " << kernel::ToString(entry.label) << ": " << sim::CyclesToMs(entry.total)
           << " ms over " << entry.occurrences << " occurrences";
      flush();
    }
  }
  if (ring.size() == 0) {
    return;
  }
  lines->push_back("Most recent events:");
  std::size_t skip = ring.size() > kRecentEvents ? ring.size() - kRecentEvents : 0;
  ring.ForEach([&](const kernel::TraceEvent& event) {
    if (skip > 0) {
      --skip;
      return;
    }
    line << "  [" << sim::CyclesToMs(event.tsc) << " ms] " << kernel::TraceEventName(event.type)
         << " " << kernel::ToString(event.label);
    if (event.duration > 0) {
      line << " (" << sim::CyclesToUs(event.duration) << " us)";
    }
    flush();
  });
}

}  // namespace

const char* CellStatusName(CellStatus status) {
  switch (status) {
    case CellStatus::kPending:
      return "pending";
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kRestored:
      return "restored";
    case CellStatus::kFailed:
      return "failed";
    case CellStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

bool MatrixResult::complete() const {
  if (!run.error.empty() || statuses.empty()) {
    return false;
  }
  for (const CellStatus status : statuses) {
    if (status != CellStatus::kOk && status != CellStatus::kRestored) {
      return false;
    }
  }
  return true;
}

MatrixSpec PaperMatrix() {
  MatrixSpec spec;
  spec.oses = {kernel::MakeNt4Profile(), kernel::MakeWin98Profile()};
  spec.workloads = {workload::OfficeStress(), workload::WorkstationStress(),
                    workload::GamesStress(), workload::WebStress()};
  spec.priorities = {28, 24};
  return spec;
}

std::uint64_t MatrixFingerprint(const MatrixSpec& spec) {
  // Fingerprint input: a canonical textual description of the spec. Text is
  // deliberate — it keeps the hash independent of struct layout, and a
  // mismatch can be debugged by printing the two descriptions side by side.
  const LabConfig& cell = spec.cell;
  std::ostringstream out;
  out << "master_seed=" << spec.master_seed << ";trials=" << spec.trials
      << ";stress_minutes=" << HexDouble(cell.stress_minutes)
      << ";warmup_seconds=" << HexDouble(cell.warmup_seconds) << ";oses=";
  for (const auto& os : spec.oses) {
    out << os.name << ",";
  }
  out << ";workloads=";
  for (const auto& workload : spec.workloads) {
    out << workload.name << ",";
  }
  out << ";priorities=";
  for (const int priority : spec.priorities) {
    out << priority << ",";
  }
  // The lab caps episodes at 64; the field stays so that existing record
  // logs still resume.
  out << ";episode_threshold_us=" << HexDouble(cell.obs.episode_threshold_us)
      << ";max_episodes=64;anatomy=" << cell.obs.anatomy
      << ";sketch=" << cell.obs.sketch << ";scanner=" << cell.options.virus_scanner
      << ";sounds=" << static_cast<int>(cell.options.sound_scheme);
  if (cell.faults != nullptr && !cell.faults->empty()) {
    out << ";faults=" << cell.faults->name << ":" << cell.faults->seed << ":"
        << cell.faults->specs.size();
    for (const fault::FaultSpec& fault : cell.faults->specs) {
      const std::array<double, 3> duration = fault.duration_us.params();
      out << ";fault=" << fault::FaultKindName(fault.kind) << ","
          << fault::TriggerKindName(fault.trigger) << "," << HexDouble(fault.at_ms) << ","
          << HexDouble(fault.period_ms) << "," << HexDouble(fault.rate_per_s) << ","
          << fault.max_activations << "," << static_cast<int>(fault.duration_us.kind())
          << ":" << HexDouble(duration[0]) << ":" << HexDouble(duration[1]) << ":"
          << HexDouble(duration[2]) << "," << fault.burst << "," << HexDouble(fault.spacing_us)
          << "," << fault.disk_bytes << "," << fault.lock << "," << fault.function;
    }
  }
  return Fnv1a64(out.str());
}

std::uint64_t ExperimentMatrix::CellSeed(std::uint64_t master_seed, std::size_t os_index,
                                         std::size_t workload_index, int priority,
                                         int trial) {
  return sim::HashCoordinates(master_seed, {static_cast<std::uint64_t>(os_index),
                                            static_cast<std::uint64_t>(workload_index),
                                            static_cast<std::uint64_t>(priority),
                                            static_cast<std::uint64_t>(trial)});
}

ExperimentMatrix::ExperimentMatrix(MatrixSpec spec) : spec_(std::move(spec)) {
  if (spec_.trials < 1) {
    spec_.trials = 1;
  }
  cells_.reserve(spec_.cell_count());
  for (std::size_t os_i = 0; os_i < spec_.oses.size(); ++os_i) {
    for (std::size_t wl_i = 0; wl_i < spec_.workloads.size(); ++wl_i) {
      for (std::size_t pr_i = 0; pr_i < spec_.priorities.size(); ++pr_i) {
        for (int trial = 0; trial < spec_.trials; ++trial) {
          MatrixCell cell;
          cell.index = cells_.size();
          cell.os_index = os_i;
          cell.workload_index = wl_i;
          cell.priority_index = pr_i;
          cell.trial = trial;
          cell.seed = CellSeed(spec_.master_seed, os_i, wl_i, spec_.priorities[pr_i], trial);
          cell.config = spec_.cell;
          cell.config.os = spec_.oses[os_i];
          cell.config.stress = spec_.workloads[wl_i];
          cell.config.thread_priority = spec_.priorities[pr_i];
          cell.config.seed = cell.seed;
          cells_.push_back(std::move(cell));
        }
      }
    }
  }
}

std::size_t ExperimentMatrix::GroupIndex(std::size_t os_index, std::size_t workload_index,
                                         std::size_t priority_index) const {
  return (os_index * spec_.workloads.size() + workload_index) * spec_.priorities.size() +
         priority_index;
}

MatrixResult ExperimentMatrix::Run(const MatrixRunOptions& options) const {
  using Clock = std::chrono::steady_clock;
  MatrixResult result;
  if (spec_.cell.obs.metrics != nullptr || spec_.cell.obs.trace_sink != nullptr ||
      spec_.cell.supervision.enabled()) {
    result.run.error =
        "matrix cell template sets obs.metrics, obs.trace_sink or supervision; "
        "collect_metrics, trace_sink and the run options set those";
    return result;
  }
  result.reports.resize(cells_.size());
  result.timings.resize(cells_.size());
  result.statuses.assign(cells_.size(), CellStatus::kPending);
  std::vector<double> cell_seconds(cells_.size(), 0.0);
  std::vector<Clock::time_point> cell_start(cells_.size());
  // Per-cell registry slots: each cell writes only its own, and slots merge
  // in grid order afterwards — the same slot discipline the reports use, so
  // collecting metrics cannot perturb the determinism contract.
  std::vector<obs::MetricsRegistry> cell_metrics(spec_.collect_metrics ? cells_.size() : 0);
  std::mutex worker_mutex;
  std::map<std::thread::id, int> worker_ids;
  // The cell that gets the trace sink: the lowest-index one that runs. It is
  // fixed by the first cell to start, after the resume pass and before any
  // cell finishes, so it is the lowest cell still pending.
  std::optional<std::size_t> traced_cell;
  const bool audits_on = options.audit_every_s > 0.0 || options.audit_fail_cell >= 0;
  // Supervision black box: a ring of the cell's recent dispatcher events,
  // read only if the cell fails. It is a trace sink on every event, so it is
  // armed only for runs that asked to be supervised or checkpointed.
  const bool black_box_on = audits_on || options.throw_cell >= 0 ||
                            options.cell_timeout_ms > 0.0 ||
                            !options.journal_path.empty();
  const Clock::time_point run_start = Clock::now();

  CellLogOptions log;
  log.path = options.journal_path;
  log.spec = MatrixFingerprint(spec_);
  log.cell_count = cells_.size();
  log.cell_hi = options.max_cells;
  log.jobs = options.jobs;
  log.cell_timeout_ms = options.cell_timeout_ms;
  log.cell_seed = [this](std::uint64_t i) { return cells_[i].seed; };
  log.restore = [this, &result](std::uint64_t i, std::string_view payload, std::string* error) {
    // A record holds the report, not the cell's metrics registry: restoring
    // it would leave the cell out of the merged metrics export.
    if (spec_.collect_metrics) {
      *error = "per-cell metrics are not checkpointed";
      return false;
    }
    if (!ReportFromJson(payload, &result.reports[i], error)) {
      return false;
    }
    result.statuses[i] = CellStatus::kRestored;
    return true;
  };
  log.run = [&](std::uint64_t i, runtime::Watchdog& watchdog) {
    {
      std::lock_guard<std::mutex> lock(worker_mutex);
      const int worker = static_cast<int>(
          worker_ids.emplace(std::this_thread::get_id(), worker_ids.size()).first->second);
      result.timings[i].worker = worker;
      if (!traced_cell) {
        traced_cell = static_cast<std::size_t>(
            std::find(result.statuses.begin(), result.statuses.end(), CellStatus::kPending) -
            result.statuses.begin());
      }
    }
    cell_start[i] = Clock::now();
    kernel::TraceRing* black_box = black_box_on ? &t_black_box.emplace() : nullptr;
    LabConfig config = cells_[i].config;
    if (spec_.collect_metrics) {
      config.obs.metrics = &cell_metrics[i];
    }
    if (i == *traced_cell) {
      config.obs.trace_sink = spec_.trace_sink;
    }
    if (watchdog.armed()) {
      config.supervision.watchdog = &watchdog;
    }
    config.supervision.audit_every_s = options.audit_every_s;
    if (static_cast<std::ptrdiff_t>(i) == options.audit_fail_cell) {
      config.supervision.fixture = RunSupervision::Fixture::kAuditViolation;
    } else if (static_cast<std::ptrdiff_t>(i) == options.throw_cell) {
      config.supervision.fixture = RunSupervision::Fixture::kThrow;
    }
    config.supervision.audit_at_end = audits_on;
    config.supervision.black_box = black_box;
    result.reports[i] = RunLatencyExperiment(config);
    return log.path.empty() ? std::string() : ReportToJson(result.reports[i]);
  };
  if (black_box_on) {
    log.diagnose = [](std::uint64_t, runtime::CellFailure& failure) {
      DescribeBlackBox(*t_black_box, &failure.diagnostics);
    };
  }
  log.on_cell_done = [&](std::uint64_t i, const runtime::CellFailure* failure) {
    const Clock::time_point cell_end = Clock::now();
    cell_seconds[i] = std::chrono::duration<double>(cell_end - cell_start[i]).count();
    result.timings[i].start_s = std::chrono::duration<double>(cell_start[i] - run_start).count();
    result.timings[i].end_s = std::chrono::duration<double>(cell_end - run_start).count();
    result.statuses[i] = failure != nullptr ? CellStatus::kFailed : CellStatus::kOk;
    if (failure != nullptr && options.on_cell_failed) {
      options.on_cell_failed(*failure);
    }
    if (options.on_cell_done) {
      options.on_cell_done(cells_[i], result.statuses[i]);
    }
  };

  result.run = RunCellLog(log);
  if (!result.run.error.empty()) {
    return result;
  }
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - run_start).count();
  result.workers_observed = static_cast<int>(worker_ids.size());
  for (CellStatus& status : result.statuses) {
    if (status == CellStatus::kPending) {
      status = CellStatus::kSkipped;
      ++result.cells_skipped;
    }
  }
  for (double seconds : cell_seconds) {
    result.total_cell_seconds += seconds;
  }

  // Merge trials into groups strictly in grid order: histogram bucket adds
  // and floating-point sums see the same sequence whatever `jobs` was.
  // Only completed cells (kOk / kRestored) merge; failed or skipped cells
  // contribute nothing rather than skewing the pooled distributions.
  result.merged.resize(spec_.group_count());
  // Conservation ledger for the post-merge audit: the merged histogram of a
  // group must hold exactly the sum of its trials' sample counts.
  std::vector<std::uint64_t> expected_thread_counts(spec_.group_count(), 0);
  std::vector<std::uint64_t> expected_dpc_counts(spec_.group_count(), 0);
  for (const MatrixCell& cell : cells_) {
    const CellStatus status = result.statuses[cell.index];
    if (status != CellStatus::kOk && status != CellStatus::kRestored) {
      continue;
    }
    const LabReport& report = result.reports[cell.index];
    const std::size_t group_index =
        GroupIndex(cell.os_index, cell.workload_index, cell.priority_index);
    MergedCell& group = result.merged[group_index];
    if (group.cells == 0) {
      group.os_name = report.os_name;
      group.workload_name = report.workload_name;
      group.thread_priority = report.thread_priority;
      group.has_interrupt_latency = report.has_interrupt_latency;
      group.usage = report.usage;
    } else {
      assert(stats::MergeableUsage(group.usage, report.usage));
    }
    group.Add(MakeCellRecord(report, cell.config));
    group.thread_interrupt.Merge(report.thread_interrupt);
    group.interrupt.Merge(report.interrupt);
    group.isr_to_dpc.Merge(report.isr_to_dpc);
    group.true_pit_interrupt_latency.Merge(report.true_pit_interrupt_latency);
    expected_thread_counts[group_index] += report.thread.count();
    expected_dpc_counts[group_index] += report.dpc_interrupt.count();
    group.episodes += report.episodes.size();
    for (const obs::EpisodeSummary& episode : report.episodes) {
      group.episodes_attributed += episode.attributed ? 1 : 0;
      group.episode_module_matches += episode.module_match ? 1 : 0;
    }
  }
  for (std::size_t g = 0; g < result.merged.size(); ++g) {
    const MergedCell& group = result.merged[g];
    if (group.thread.count() != expected_thread_counts[g] ||
        group.dpc_interrupt.count() != expected_dpc_counts[g]) {
      std::ostringstream violation;
      violation << "group " << g << " (" << group.os_name << "/" << group.workload_name
                << "/prio " << group.thread_priority
                << "): merged counts != sum of trial counts (thread "
                << group.thread.count() << " vs " << expected_thread_counts[g] << ", dpc "
                << group.dpc_interrupt.count() << " vs " << expected_dpc_counts[g] << ")";
      result.merge_violations.push_back(violation.str());
    }
  }

  if (spec_.collect_metrics) {
    // Grid order again, so counter sums and histogram buckets accumulate in
    // a jobs-independent sequence. Like the reports, only completed cells
    // merge: a failed cell's registry holds a partial run.
    for (const MatrixCell& cell : cells_) {
      const CellStatus status = result.statuses[cell.index];
      if (status == CellStatus::kOk || status == CellStatus::kRestored) {
        result.metrics.Merge(cell_metrics[cell.index]);
      }
    }
    // Host-side view of the run itself (wall clock, so not part of the
    // determinism contract — these describe the runner, not the simulation).
    result.metrics.Add("matrix.cells", static_cast<double>(cells_.size()));
    for (const MatrixCell& cell : cells_) {
      result.metrics.Observe("matrix.cell_wall_ms", cell_seconds[cell.index] * 1e3);
    }
    result.metrics.Set("matrix.wall_seconds", result.wall_seconds);
    result.metrics.Set("matrix.total_cell_seconds", result.total_cell_seconds);
    result.metrics.Set("matrix.speedup", result.Speedup());
    result.metrics.Set("matrix.workers", static_cast<double>(result.workers_observed));
    result.metrics.Set("matrix.utilization", result.Utilization());
  }
  return result;
}

void AppendHostTrace(obs::ChromeTraceWriter& writer, const ExperimentMatrix& matrix,
                     const MatrixResult& result) {
  writer.SetProcessName(obs::ChromeTraceWriter::kHostPid, "matrix runner (host)");
  const std::size_t n = std::min(matrix.cells().size(), result.timings.size());
  std::vector<bool> worker_named;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.statuses[i] != CellStatus::kOk && result.statuses[i] != CellStatus::kFailed) {
      continue;
    }
    const MatrixCell& cell = matrix.cells()[i];
    const MatrixResult::CellTiming& timing = result.timings[i];
    // Host worker tracks are numbered from 1; tid 0 reads as "unknown".
    const int tid = timing.worker + 1;
    if (static_cast<std::size_t>(timing.worker) >= worker_named.size()) {
      worker_named.resize(timing.worker + 1, false);
    }
    if (!worker_named[timing.worker]) {
      char track[32];
      std::snprintf(track, sizeof(track), "worker %d", timing.worker);
      writer.SetThreadName(obs::ChromeTraceWriter::kHostPid, tid, track);
      worker_named[timing.worker] = true;
    }
    const LabConfig& config = cell.config;
    const std::string name = config.os.name + " / " + config.stress.name + " / prio " +
                             std::to_string(config.thread_priority);
    writer.CompleteSlice(
        obs::ChromeTraceWriter::kHostPid, tid, timing.start_s * 1e6,
        (timing.end_s - timing.start_s) * 1e6, name,
        {{"seed", std::to_string(cell.seed)}},
        {{"trial", static_cast<double>(cell.trial)},
         {"samples", static_cast<double>(result.reports[i].samples)}});
  }
}

}  // namespace wdmlat::lab
