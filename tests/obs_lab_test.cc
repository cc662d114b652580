// Observability passivity: attaching every sink — Chrome trace writer,
// metrics collector, queue-depth sampler, cause tool and episode flight
// recorder — must leave the measured distributions bit-identical to a bare
// run. The sinks only read state; they consume no simulation RNG and reorder
// no events, so PR 1's matrix determinism contract survives PR 2 intact.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/lab/lab.h"
#include "src/lab/matrix.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/json.h"
#include "src/obs/kernel_metrics.h"
#include "src/obs/metrics.h"
#include "src/runtime/supervisor.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_path.h"

namespace wdmlat::lab {
namespace {

LabConfig BaseConfig() {
  LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::GamesStress();
  config.stress_minutes = 0.2;
  config.seed = 7;
  config.options.sound_scheme = vmm98::SchemeKind::kDefault;
  return config;
}

void ExpectReportsIdentical(const LabReport& a, const LabReport& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.thread.ToCsv(), b.thread.ToCsv());
  EXPECT_EQ(a.dpc_interrupt.ToCsv(), b.dpc_interrupt.ToCsv());
  EXPECT_EQ(a.thread_interrupt.ToCsv(), b.thread_interrupt.ToCsv());
  EXPECT_EQ(a.interrupt.ToCsv(), b.interrupt.ToCsv());
  EXPECT_EQ(a.isr_to_dpc.ToCsv(), b.isr_to_dpc.ToCsv());
  EXPECT_EQ(a.true_pit_interrupt_latency.ToCsv(), b.true_pit_interrupt_latency.ToCsv());
  EXPECT_EQ(a.thread.max_ms(), b.thread.max_ms());
  EXPECT_EQ(a.samples_per_hour, b.samples_per_hour);
}

TEST(ObsLabTest, SinksLeaveResultsBitIdentical) {
  const LabReport bare = RunLatencyExperiment(BaseConfig());

  LabConfig observed = BaseConfig();
  obs::ChromeTraceWriter trace;
  obs::MetricsRegistry metrics;
  observed.obs.trace_sink = &trace;
  observed.obs.metrics = &metrics;
  observed.obs.queue_sample_ms = 1.0;
  observed.obs.episode_threshold_us = 4000.0;
  const LabReport instrumented = RunLatencyExperiment(observed);

  ExpectReportsIdentical(bare, instrumented);

  // And the sinks actually observed the run.
  EXPECT_GT(trace.event_count(), 0u);
  EXPECT_FALSE(metrics.empty());
  EXPECT_GT(metrics.counter("kernel.isr.count"), 0.0);
  EXPECT_GT(metrics.counter("dispatcher.context_switches"), 0.0);
  EXPECT_NE(metrics.histogram("kernel.dpc_queue_depth"), nullptr);
  EXPECT_GT(metrics.counter("driver.samples"), 0.0);
}

TEST(ObsLabTest, InstrumentedRunsAreReproducible) {
  // Same seed, sinks attached both times: the exports themselves must be
  // deterministic too (metrics byte-identical; trace event streams equal).
  auto run = [](obs::ChromeTraceWriter& trace, obs::MetricsRegistry& metrics) {
    LabConfig config = BaseConfig();
    config.obs.trace_sink = &trace;
    config.obs.metrics = &metrics;
    config.obs.queue_sample_ms = 1.0;
    return RunLatencyExperiment(config);
  };
  obs::ChromeTraceWriter trace1;
  obs::MetricsRegistry metrics1;
  const LabReport r1 = run(trace1, metrics1);
  obs::ChromeTraceWriter trace2;
  obs::MetricsRegistry metrics2;
  const LabReport r2 = run(trace2, metrics2);

  ExpectReportsIdentical(r1, r2);
  EXPECT_EQ(metrics1.ToJson(), metrics2.ToJson());
  EXPECT_EQ(metrics1.ToCsv(), metrics2.ToCsv());
  EXPECT_EQ(trace1.event_count(), trace2.event_count());
  EXPECT_EQ(trace1.ToJson(), trace2.ToJson());

  // The exports must also be valid JSON end to end.
  const obs::JsonLintResult trace_lint = obs::LintJson(trace1.ToJson());
  EXPECT_TRUE(trace_lint.valid) << trace_lint.error;
  const obs::JsonLintResult metrics_lint = obs::LintJson(metrics1.ToJson());
  EXPECT_TRUE(metrics_lint.valid) << metrics_lint.error;
}

TEST(ObsLabTest, EpisodeThresholdDoesNotPerturbEither) {
  // The cause tool's PIT hook and the recorder's trace ring are the most
  // invasive observers; verify they are still passive on their own.
  LabConfig with_episodes = BaseConfig();
  with_episodes.obs.episode_threshold_us = 4000.0;
  const LabReport a = RunLatencyExperiment(BaseConfig());
  const LabReport b = RunLatencyExperiment(with_episodes);
  ExpectReportsIdentical(a, b);
}

// A run keeps one trace ring. Lent the supervision black box, the flight
// recorder summarizes exactly the episodes it finds in a ring of its own;
// and when a journaled matrix cell with episodes fails, the failure's
// diagnostic prints that ring's top labels and newest events.
TEST(ObsLabTest, BlackBoxRingServesTheRecorderAndTheFailureDiagnostic) {
  LabConfig config = BaseConfig();
  config.obs.episode_threshold_us = 4000.0;
  const LabReport plain = RunLatencyExperiment(config);
  ASSERT_FALSE(plain.episodes.empty());

  kernel::TraceRing black_box;
  config.supervision.black_box = &black_box;
  config.supervision.audit_at_end = true;
  const LabReport supervised = RunLatencyExperiment(config);
  EXPECT_EQ(black_box.size(), 4096u);
  ExpectReportsIdentical(plain, supervised);
  ASSERT_EQ(supervised.episodes.size(), plain.episodes.size());
  for (std::size_t i = 0; i < plain.episodes.size(); ++i) {
    SCOPED_TRACE(i);
    const obs::EpisodeSummary& a = plain.episodes[i];
    const obs::EpisodeSummary& b = supervised.episodes[i];
    EXPECT_EQ(a.latency_ms, b.latency_ms);
    EXPECT_EQ(a.reported_at_ms, b.reported_at_ms);
    EXPECT_EQ(a.true_module, b.true_module);
    EXPECT_EQ(a.true_function, b.true_function);
    EXPECT_EQ(a.true_ms, b.true_ms);
    EXPECT_EQ(a.cause_module, b.cause_module);
    EXPECT_EQ(a.cause_function, b.cause_function);
    EXPECT_EQ(a.cause_samples, b.cause_samples);
    EXPECT_EQ(a.attributed, b.attributed);
    EXPECT_EQ(a.module_match, b.module_match);
  }

  MatrixSpec spec;
  spec.oses = {kernel::MakeWin98Profile()};
  spec.workloads = {workload::GamesStress()};
  spec.priorities = {28};
  spec.trials = 2;
  spec.cell.stress_minutes = 0.05;
  spec.cell.warmup_seconds = 1.0;
  spec.cell.obs.episode_threshold_us = 4000.0;
  MatrixRunOptions options;
  options.journal_path = testutil::TempFileFor("black_box.jsonl");
  options.audit_fail_cell = 1;
  const MatrixResult result = ExperimentMatrix(spec).Run(options);
  ASSERT_EQ(result.run.failures.size(), 1u);
  const runtime::CellFailure& failure = result.run.failures[0];
  EXPECT_EQ(failure.kind, runtime::FailureKind::kInvariantViolation);
  const std::vector<std::string>& lines = failure.diagnostics;
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), "Black box: the last 4096 trace events");
  EXPECT_NE(std::find(lines.begin(), lines.end(), "Top raised-IRQL time consumers:"),
            lines.end());
  const auto recent = std::find(lines.begin(), lines.end(), "Most recent events:");
  ASSERT_NE(recent, lines.end());
  EXPECT_EQ(lines.end() - recent, 13);  // the header and the 12 newest events
}

// A measurement run leaves callbacks into its own, by then dead, locals
// registered on the machine: the driver's PIT pre-hook and threads, among
// others. The run marks the system spent, so running it again without a
// Reset throws instead of calling into a dead frame; the ISR-entry observer,
// which captures the run's report, is cleared. After Reset the system runs
// the next cell exactly as a fresh one would.
TEST(ObsLabTest, RunLeavesSystemSpentUntilReset) {
  LabConfig config = BaseConfig();
  config.stress_minutes = 0.02;
  obs::MetricsRegistry metrics;
  config.obs.metrics = &metrics;
  config.obs.queue_sample_ms = 1.0;
  TestSystem system(config.os, config.seed, config.options);
  EXPECT_FALSE(system.spent());
  const LabReport first = RunLatencyExperimentOn(system, config);
  EXPECT_TRUE(system.spent());
  EXPECT_FALSE(system.kernel().dispatcher().on_isr_entry);
  EXPECT_THROW(system.RunFor(0.01), std::logic_error);
  EXPECT_THROW(system.RunForMinutes(0.001), std::logic_error);

  system.Reset(config.os, config.seed, config.options);
  EXPECT_FALSE(system.spent());
  obs::MetricsRegistry again_metrics;
  config.obs.metrics = &again_metrics;
  const LabReport again = RunLatencyExperimentOn(system, config);
  ExpectReportsIdentical(first, again);
  EXPECT_EQ(metrics.ToJson(), again_metrics.ToJson());
}

TEST(ObsLabTest, FailedRunLeavesSystemSpent) {
  LabConfig config = BaseConfig();
  config.stress_minutes = 0.02;
  config.supervision.fixture = RunSupervision::Fixture::kAuditViolation;
  TestSystem system(config.os, config.seed, config.options);
  EXPECT_THROW(RunLatencyExperimentOn(system, config), runtime::InvariantViolation);
  EXPECT_TRUE(system.spent());
  EXPECT_FALSE(system.kernel().dispatcher().on_isr_entry);
  EXPECT_THROW(system.RunFor(0.01), std::logic_error);
}

// The sampler's pending sample captures the sampler: destroying it cancels
// the sample, so the engine never calls into a dead sampler.
TEST(ObsLabTest, DestroyedSamplerCancelsItsPendingSample) {
  TestSystem system(kernel::MakeNt4Profile(), 3);
  obs::MetricsRegistry metrics;
  {
    obs::QueueDepthSampler sampler(system.kernel(), &metrics, nullptr, 1.0);
    sampler.Start();
    system.RunFor(0.0105);
  }
  EXPECT_EQ(metrics.counter("kernel.queue_samples"), 10.0);
  system.RunFor(0.01);
  EXPECT_EQ(metrics.counter("kernel.queue_samples"), 10.0);
}

}  // namespace
}  // namespace wdmlat::lab
