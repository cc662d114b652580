// The checkpoint/resume guarantee for matrix runs: an interrupted run,
// resumed from its record log (src/lab/record_log.h), merges bit-identically
// to an uninterrupted fresh run — at any job count — a record log written
// under another spec is refused untouched, and a failing cell degrades to a
// structured failure while the rest of the grid completes.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/kernel/profile.h"
#include "src/lab/matrix.h"
#include "src/lab/record_log.h"
#include "src/lab/report_io.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_path.h"

namespace wdmlat::lab {
namespace {

using testutil::TempFileFor;

// Same small grid as matrix_determinism_test.cc: 1 OS x 2 workloads x 1
// priority x 2 trials = 4 cells, short enough for suite time.
MatrixSpec SmallSpec() {
  MatrixSpec spec;
  spec.oses = {kernel::MakeWin98Profile()};
  spec.workloads = {workload::GamesStress(), workload::WebStress()};
  spec.priorities = {28};
  spec.trials = 2;
  spec.cell.stress_minutes = 0.2;
  spec.cell.warmup_seconds = 1.0;
  spec.master_seed = 42;
  return spec;
}

MatrixResult RunPlain(const ExperimentMatrix& matrix, int jobs) {
  MatrixRunOptions options;
  options.jobs = jobs;
  return matrix.Run(options);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

void ExpectMergedIdentical(const MatrixResult& a, const MatrixResult& b) {
  ASSERT_EQ(a.merged.size(), b.merged.size());
  for (std::size_t i = 0; i < a.merged.size(); ++i) {
    const MergedCell& x = a.merged[i];
    const MergedCell& y = b.merged[i];
    SCOPED_TRACE(x.workload_name);
    EXPECT_EQ(x.cells, y.cells);
    EXPECT_EQ(x.samples(), y.samples());
    EXPECT_EQ(x.counters.stress_hours, y.counters.stress_hours);
    EXPECT_EQ(x.thread.ToCsv(), y.thread.ToCsv());
    EXPECT_EQ(x.dpc_interrupt.ToCsv(), y.dpc_interrupt.ToCsv());
    EXPECT_EQ(x.thread_interrupt.ToCsv(), y.thread_interrupt.ToCsv());
    EXPECT_EQ(x.true_pit_interrupt_latency.ToCsv(), y.true_pit_interrupt_latency.ToCsv());
    EXPECT_EQ(x.thread.mean_ms(), y.thread.mean_ms());
    EXPECT_EQ(x.thread.max_ms(), y.thread.max_ms());
  }
}

TEST(ResumeDeterminismTest, SupervisedJournaledRunMatchesLegacyRun) {
  const ExperimentMatrix matrix(SmallSpec());
  const MatrixResult plain = RunPlain(matrix, 1);

  MatrixRunOptions options;
  options.jobs = 1;
  options.audit_every_s = 1.0;
  options.journal_path = TempFileFor("supervised_run.jsonl");
  const MatrixResult supervised = matrix.Run(options);

  EXPECT_TRUE(supervised.complete());
  EXPECT_TRUE(supervised.run.failures.empty());
  EXPECT_TRUE(supervised.merge_violations.empty());
  ExpectMergedIdentical(plain, supervised);
}

TEST(ResumeDeterminismTest, InterruptThenResumeIsBitIdenticalAtAnyJobCount) {
  const ExperimentMatrix matrix(SmallSpec());
  const MatrixResult fresh = RunPlain(matrix, 1);

  for (int resume_jobs : {1, 4}) {
    SCOPED_TRACE(resume_jobs);
    const std::string log = TempFileFor("interrupted_run.jsonl");

    // Interrupt: the cell window stops the run after cells 0 and 1.
    MatrixRunOptions first;
    first.jobs = 1;
    first.journal_path = log;
    first.max_cells = 2;
    const MatrixResult interrupted = matrix.Run(first);
    EXPECT_FALSE(interrupted.complete());
    EXPECT_EQ(interrupted.run.cells_executed, 2u);
    EXPECT_EQ(interrupted.cells_skipped, 2u);
    EXPECT_EQ(ReadLines(log).size(), 2u);

    // Resume: the same run on the same log restores the recorded cells
    // bit-exactly, runs the rest, and merges in grid order as always.
    MatrixRunOptions second;
    second.jobs = resume_jobs;
    second.journal_path = log;
    const MatrixResult resumed = matrix.Run(second);
    EXPECT_TRUE(resumed.complete()) << resumed.run.error;
    EXPECT_EQ(resumed.run.cells_restored, 2u);
    EXPECT_EQ(resumed.run.cells_executed, 2u);
    EXPECT_TRUE(resumed.run.warnings.empty());
    ExpectMergedIdentical(fresh, resumed);
    EXPECT_EQ(ReadLines(log).size(), 4u);

    // Per-cell reports agree bit-for-bit too, restored or re-run.
    for (std::size_t i = 0; i < fresh.reports.size(); ++i) {
      EXPECT_EQ(ReportToJson(fresh.reports[i]), ReportToJson(resumed.reports[i]))
          << "cell " << i;
    }
  }
}

// The merged metrics export without the host-side matrix.* series (wall
// clock, so outside the determinism contract): one "kind,name,field,value"
// row per line.
std::string SimulatedMetricsCsv(const obs::MetricsRegistry& metrics) {
  std::istringstream csv(metrics.ToCsv());
  std::string kept;
  std::string row;
  while (std::getline(csv, row)) {
    const std::size_t name = row.find(',') + 1;
    if (row.compare(name, 7, "matrix.") != 0) {
      kept += row + '\n';
    }
  }
  return kept;
}

// A record holds a cell's report, not its metrics registry. With metrics
// collected, a resume rejects every record and re-runs its cell, so the
// merged export matches an uninterrupted run's.
TEST(ResumeDeterminismTest, MetricsRunReRunsRecordedCellsAndExportsEveryCell) {
  MatrixSpec spec = SmallSpec();
  spec.collect_metrics = true;
  const ExperimentMatrix matrix(spec);
  const std::string fresh = SimulatedMetricsCsv(RunPlain(matrix, 1).metrics);
  ASSERT_NE(fresh.find("driver.samples"), std::string::npos);

  for (int resume_jobs : {1, 4}) {
    SCOPED_TRACE(resume_jobs);
    MatrixRunOptions options;
    options.jobs = resume_jobs;
    options.journal_path = TempFileFor("metrics_run_" + std::to_string(resume_jobs) + ".jsonl");
    options.max_cells = 2;
    ASSERT_EQ(matrix.Run(options).run.cells_executed, 2u);
    ASSERT_EQ(ReadLines(options.journal_path).size(), 2u);

    options.max_cells = 0;
    const MatrixResult resumed = matrix.Run(options);
    EXPECT_TRUE(resumed.complete()) << resumed.run.error;
    EXPECT_EQ(resumed.run.cells_restored, 0u);
    EXPECT_EQ(resumed.run.cells_executed, 4u);
    ASSERT_EQ(resumed.run.warnings.size(), 2u);
    for (const std::string& warning : resumed.run.warnings) {
      EXPECT_NE(warning.find("per-cell metrics are not checkpointed"), std::string::npos)
          << warning;
    }
    EXPECT_EQ(SimulatedMetricsCsv(resumed.metrics), fresh);
    EXPECT_EQ(ReadLines(options.journal_path).size(), 4u);
  }
}

TEST(ResumeDeterminismTest, CorruptArtifactIsReRunNotTrusted) {
  const ExperimentMatrix matrix(SmallSpec());
  const MatrixResult fresh = RunPlain(matrix, 1);

  const std::string log = TempFileFor("corrupt_record.jsonl");
  MatrixRunOptions options;
  options.jobs = 1;
  options.journal_path = log;
  ASSERT_TRUE(matrix.Run(options).complete());

  // Flip one payload digit of cell 1's record: the line stays valid JSON,
  // but its checksum no longer matches.
  std::vector<std::string> lines = ReadLines(log);
  ASSERT_EQ(lines.size(), 4u);
  std::string& line = lines[1];
  const std::size_t digit = line.find_first_of("12345678", line.find("\"payload\""));
  ASSERT_NE(digit, std::string::npos);
  ++line[digit];
  {
    std::ofstream out(log, std::ios::trunc | std::ios::binary);
    for (const std::string& l : lines) {
      out << l << "\n";
    }
  }

  const MatrixResult resumed = matrix.Run(options);
  EXPECT_TRUE(resumed.complete()) << resumed.run.error;
  EXPECT_EQ(resumed.run.cells_restored, 3u);
  EXPECT_EQ(resumed.run.cells_executed, 1u);  // the tampered cell re-ran
  ASSERT_EQ(resumed.run.warnings.size(), 1u);
  EXPECT_NE(resumed.run.warnings[0].find("checksum mismatch"), std::string::npos);
  ExpectMergedIdentical(fresh, resumed);
  // The rewritten log holds a verified record for every cell again.
  for (const std::string& l : ReadLines(log)) {
    RecordLine record;
    std::string error;
    EXPECT_TRUE(ParseRecordLine(l, &record, &error)) << error;
  }
}

TEST(ResumeDeterminismTest, MismatchedSpecRefusesToResume) {
  const std::string log = TempFileFor("fingerprint_mismatch.jsonl");
  {
    const ExperimentMatrix matrix(SmallSpec());
    MatrixRunOptions options;
    options.jobs = 1;
    options.journal_path = log;
    options.max_cells = 1;
    matrix.Run(options);
  }
  const std::string before = ReadBytes(log);
  ASSERT_FALSE(before.empty());

  // An edited spec derives the same coordinates but different cell bits:
  // its run must neither restore the old record nor touch the log.
  MatrixSpec other = SmallSpec();
  other.cell.stress_minutes = 2.0;
  const ExperimentMatrix matrix(other);
  MatrixRunOptions options;
  options.jobs = 1;
  options.journal_path = log;
  const MatrixResult result = matrix.Run(options);
  EXPECT_NE(result.run.error.find("spec"), std::string::npos) << result.run.error;
  EXPECT_EQ(result.run.cells_executed, 0u);
  EXPECT_EQ(result.run.cells_restored, 0u);
  EXPECT_EQ(ReadBytes(log), before);
}

// A plan-free fingerprint is pinned: it hashes the same text as it did
// before the spec took its cell as one LabConfig template, so plan-free
// logs written by earlier builds still resume.
TEST(ResumeDeterminismTest, PlanFreeFingerprintIsPinned) {
  MatrixSpec spec = SmallSpec();
  EXPECT_EQ(MatrixFingerprint(spec), 13047475491553896665ull);
  spec.cell.obs.sketch = true;
  spec.cell.obs.episode_threshold_us = 4000.0;
  spec.cell.obs.anatomy = true;
  spec.cell.options.virus_scanner = true;
  EXPECT_EQ(MatrixFingerprint(spec), 62485387075878339ull);
  EXPECT_EQ(MatrixFingerprint(PaperMatrix()), 9220270406623839465ull);
}

// A fault plan binds the spec down to its last field: a log written under
// one plan must not resume under a plan whose one spec holds the lockout
// 100x longer, though both share a name, a seed and a spec count.
TEST(ResumeDeterminismTest, EditedFaultPlanRefusesToResume) {
  fault::FaultPlan plan;
  plan.name = "agg";
  plan.seed = 7;
  fault::FaultSpec hold;
  hold.kind = fault::FaultKind::kLockoutHold;
  hold.trigger = fault::TriggerKind::kPoisson;
  hold.rate_per_s = 5.0;
  hold.duration_us = sim::DurationDist::Constant(200.0);
  plan.specs = {hold};
  fault::FaultPlan edited = plan;
  edited.specs[0].duration_us = sim::DurationDist::Constant(20000.0);
  MatrixSpec spec = SmallSpec();
  spec.cell.faults = &plan;
  MatrixSpec other = SmallSpec();
  other.cell.faults = &edited;
  EXPECT_NE(MatrixFingerprint(spec), MatrixFingerprint(other));

  MatrixRunOptions options;
  options.jobs = 1;
  options.journal_path = TempFileFor("edited_plan.jsonl");
  options.max_cells = 1;
  ExperimentMatrix(spec).Run(options);
  const std::string before = ReadBytes(options.journal_path);
  ASSERT_FALSE(before.empty());
  options.max_cells = 0;
  const MatrixResult result = ExperimentMatrix(other).Run(options);
  EXPECT_NE(result.run.error.find("refusing to resume"), std::string::npos) << result.run.error;
  EXPECT_EQ(result.run.cells_restored, 0u);
  EXPECT_EQ(result.run.cells_executed, 0u);
  EXPECT_EQ(ReadBytes(options.journal_path), before);
}

// A resumed run traces only what it ran: one host slice per executed cell
// (restored cells have no wall time to draw), and the simulated tracks of
// the lowest-index cell that ran, since the restored cell 0 never runs.
TEST(ResumeDeterminismTest, ResumedTraceDrawsOnlyCellsThatRan) {
  MatrixRunOptions options;
  options.jobs = 2;
  options.journal_path = TempFileFor("traced_resume.jsonl");
  options.max_cells = 2;
  ExperimentMatrix(SmallSpec()).Run(options);

  obs::ChromeTraceWriter writer;
  MatrixSpec spec = SmallSpec();
  spec.trace_sink = &writer;
  const ExperimentMatrix matrix(spec);
  options.max_cells = 0;
  const MatrixResult result = matrix.Run(options);
  ASSERT_TRUE(result.complete()) << result.run.error;
  ASSERT_EQ(result.run.cells_restored, 2u);
  // The trace's records before its closing E events.
  const auto records = [&writer] {
    const obs::JsonParseResult parsed = obs::ParseJson(writer.ToJson());
    EXPECT_TRUE(parsed.valid) << parsed.error;
    const obs::JsonValue* events = parsed.value.Find("traceEvents");
    std::vector<obs::JsonValue> items;
    if (events != nullptr) {
      items = events->items();
    }
    items.resize(std::min(items.size(), writer.event_count()));
    return items;
  };
  std::size_t sim_events = 0;
  for (const obs::JsonValue& record : records()) {
    sim_events += record.NumberOr("pid", 0) == obs::ChromeTraceWriter::kSimPid &&
                          record.StringOr("ph", "") != "M"
                      ? 1
                      : 0;
  }
  EXPECT_GT(sim_events, 0u);

  AppendHostTrace(writer, matrix, result);
  std::size_t host_slices = 0;
  for (const obs::JsonValue& record : records()) {
    host_slices += record.NumberOr("pid", 0) == obs::ChromeTraceWriter::kHostPid &&
                           record.StringOr("ph", "") == "X"
                       ? 1
                       : 0;
  }
  EXPECT_EQ(host_slices, 2u);
}

TEST(ResumeDeterminismTest, ThrowingCellFailsStructuredWhileOthersComplete) {
  const ExperimentMatrix matrix(SmallSpec());
  MatrixRunOptions options;
  options.jobs = 2;
  options.throw_cell = 1;
  const MatrixResult result = matrix.Run(options);

  EXPECT_FALSE(result.complete());
  ASSERT_EQ(result.run.failures.size(), 1u);
  EXPECT_EQ(result.run.failures[0].cell, 1u);
  EXPECT_EQ(result.run.failures[0].seed, matrix.cells()[1].seed);
  EXPECT_EQ(result.run.failures[0].kind, runtime::FailureKind::kException);
  EXPECT_NE(result.run.failures[0].message.find("injected cell failure"), std::string::npos);
  // The fixture throws inside the cell's run, after its first virtual
  // second, so the diagnostic shows the black box's most recent events.
  const std::vector<std::string>& lines = result.run.failures[0].diagnostics;
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), "Black box: the last 4096 trace events");
  const auto recent = std::find(lines.begin(), lines.end(), "Most recent events:");
  ASSERT_NE(recent, lines.end());
  EXPECT_EQ(lines.end() - recent, 13);  // the header and the 12 newest events
  ASSERT_EQ(result.statuses.size(), 4u);
  EXPECT_EQ(result.statuses[1], CellStatus::kFailed);
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_EQ(result.statuses[i], CellStatus::kOk) << "cell " << i;
    EXPECT_GT(result.reports[i].samples, 0u) << "cell " << i;
  }
  // The failed trial is excluded from its group's merge, not zero-filled:
  // games (group 0) pooled one trial, web (group 1) pooled both.
  ASSERT_EQ(result.merged.size(), 2u);
  EXPECT_EQ(result.merged[0].cells, 1u);
  EXPECT_EQ(result.merged[1].cells, 2u);
  EXPECT_TRUE(result.merge_violations.empty());
}

// A failed cell contributes nothing to the metrics export, as it contributes
// nothing to the merged reports. Cell seeds depend only on coordinates, so a
// two-trial matrix whose second trial fails exports exactly the simulated
// series of the one-trial matrix.
TEST(ResumeDeterminismTest, FailedCellLeavesNoMetricsInTheExport) {
  MatrixSpec spec = SmallSpec();
  spec.workloads = {workload::GamesStress()};
  spec.collect_metrics = true;
  spec.trials = 1;
  const std::string one_trial = SimulatedMetricsCsv(RunPlain(ExperimentMatrix(spec), 1).metrics);
  ASSERT_NE(one_trial.find("kernel.context_switch.count"), std::string::npos);

  spec.trials = 2;
  MatrixRunOptions options;
  options.jobs = 2;
  options.audit_fail_cell = 1;
  const MatrixResult failed = ExperimentMatrix(spec).Run(options);
  ASSERT_EQ(failed.run.failures.size(), 1u);
  EXPECT_EQ(failed.statuses[1], CellStatus::kFailed);
  EXPECT_EQ(SimulatedMetricsCsv(failed.metrics), one_trial);
}

TEST(ResumeDeterminismTest, ExpiredWatchdogFailsEveryCellAsTimeoutWithoutRecords) {
  const ExperimentMatrix matrix(SmallSpec());
  MatrixRunOptions options;
  options.jobs = 2;
  options.cell_timeout_ms = 1e-6;  // expires before the first slice boundary
  options.journal_path = TempFileFor("timeout_run.jsonl");
  const MatrixResult result = matrix.Run(options);

  ASSERT_TRUE(result.run.error.empty()) << result.run.error;
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.run.cells_executed, 4u);
  ASSERT_EQ(result.run.failures.size(), 4u);
  for (const runtime::CellFailure& failure : result.run.failures) {
    EXPECT_EQ(failure.kind, runtime::FailureKind::kTimeout) << failure.Render();
    EXPECT_EQ(failure.seed, matrix.cells()[failure.cell].seed);
    EXPECT_NE(failure.message.find("host deadline budget"), std::string::npos)
        << failure.message;
    EXPECT_FALSE(failure.diagnostics.empty()) << "no black-box tail attached";
  }
  for (CellStatus status : result.statuses) {
    EXPECT_EQ(status, CellStatus::kFailed);
  }
  EXPECT_TRUE(ReadLines(options.journal_path).empty());
}

TEST(ResumeDeterminismTest, RecordLogHoldsOneVerifiedRecordPerCompletedCell) {
  const MatrixSpec spec = SmallSpec();
  const ExperimentMatrix matrix(spec);
  MatrixRunOptions options;
  options.jobs = 1;
  options.journal_path = TempFileFor("record_log.jsonl");
  options.throw_cell = 3;
  const MatrixResult result = matrix.Run(options);
  ASSERT_EQ(result.run.failures.size(), 1u);

  // Cells 0-2 each left one record, in cell order, bound to this spec; the
  // failed cell 3 left none (it re-runs on resume).
  const std::vector<std::string> lines = ReadLines(options.journal_path);
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    RecordLine record;
    std::string error;
    ASSERT_TRUE(ParseRecordLine(lines[i], &record, &error)) << error;
    EXPECT_EQ(record.cell, i);
    EXPECT_EQ(record.seed, matrix.cells()[i].seed);
    EXPECT_EQ(record.spec, MatrixFingerprint(spec));
    EXPECT_EQ(record.payload, ReportToJson(result.reports[i]));
    LabReport restored;
    EXPECT_TRUE(ReportFromJson(record.payload, &restored, &error)) << error;
  }
}

}  // namespace
}  // namespace wdmlat::lab
