// Golden-checksum guard for the simulation hot path.
//
// A seeded, short Figure-4-style run (games stress + latency driver) must
// emit byte-identical histogram CSVs across refactors of the event calendar,
// the timer queue, and the histogram bucketing. The checksums below were
// recorded from the pre-pool engine (shared_ptr records, std::function
// callbacks, std::log2 bucketing); any ordering drift in event dispatch or
// any bucket-selection change shows up as a checksum mismatch long before it
// would be visible in the full benches.
//
// If a PR *intends* to change dispatch order or bucket edges, re-record the
// constants and say so in the PR description — never update them to paper
// over an accidental drift.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string_view>

#include "src/drivers/latency_driver.h"
#include "src/fault/fault.h"
#include "src/kernel/profile.h"
#include "src/lab/lab.h"
#include "src/lab/matrix.h"
#include "src/lab/test_system.h"
#include "src/obs/anatomy.h"
#include "src/workload/stress_load.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_path.h"

namespace wdmlat {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv1a(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

// 3 virtual seconds of the games workload against the measurement driver,
// master seed 1999 — the same construction figure4 uses for one cell. When
// `with_anatomy` is set the causal anatomy sink is attached to the
// dispatcher and actively decomposing episodes the whole run: the checksum
// must not move, proving the observer is passive (consumes no RNG, never
// calls back into the kernel) even while exercised.
std::uint64_t GamesRunChecksum(kernel::KernelProfile profile, bool with_anatomy = false) {
  lab::TestSystem system(std::move(profile), 1999);
  workload::StressLoad load(system.deps(), workload::GamesStress(), system.ForkRng());
  drivers::LatencyDriver driver(system.kernel(), drivers::LatencyDriver::Config{});
  obs::LatencyAnatomy anatomy;
  if (with_anatomy) {
    system.kernel().dispatcher().set_trace_sink(&anatomy);
    driver.AddLongLatencyCallback(0.05, [&anatomy, &driver](double ms) {
      const drivers::LatencyDriver::SampleStamps& stamps = driver.last_stamps();
      anatomy.OnEpisode(ms, stamps.dpc_tsc, stamps.thread_tsc);
    });
  }
  load.Start();
  driver.Start();
  system.RunForMinutes(0.05);
  if (with_anatomy) {
    system.kernel().dispatcher().set_trace_sink(nullptr);
    // The sink must have worked for the passivity claim to mean anything.
    EXPECT_FALSE(anatomy.episodes().empty());
  }

  std::uint64_t hash = kFnvOffset;
  hash = Fnv1a(driver.dpc_interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.thread_latency().ToCsv(), hash);
  hash = Fnv1a(driver.thread_interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.isr_to_dpc_latency().ToCsv(), hash);
  return hash;
}

TEST(GoldenRunTest, Nt4GamesShortRunCsvChecksumIsStable) {
  EXPECT_EQ(GamesRunChecksum(kernel::MakeNt4Profile()), 12791926721688464228ull);
}

TEST(GoldenRunTest, Win98GamesShortRunCsvChecksumIsStable) {
  EXPECT_EQ(GamesRunChecksum(kernel::MakeWin98Profile()), 3888655912689493493ull);
}

// Anatomy attached + export disabled: the seed checksums above, unchanged.
TEST(GoldenRunTest, Nt4GamesChecksumUnchangedWithAnatomyAttached) {
  EXPECT_EQ(GamesRunChecksum(kernel::MakeNt4Profile(), /*with_anatomy=*/true),
            12791926721688464228ull);
}

TEST(GoldenRunTest, Win98GamesChecksumUnchangedWithAnatomyAttached) {
  EXPECT_EQ(GamesRunChecksum(kernel::MakeWin98Profile(), /*with_anatomy=*/true),
            3888655912689493493ull);
}

// A faulted run: the built-in virus_scan plan drives disk-seek storms through
// the same engine, so its checksum additionally pins the injector's event
// ordering (activation timers, per-spec RNG stream draws) across calendar
// refactors — the quiet cells above cannot see a drift that only manifests
// when fault activities interleave with the workload.
std::uint64_t FaultedVirusScanChecksum(kernel::KernelProfile profile) {
  fault::FaultPlan plan;
  EXPECT_TRUE(fault::FindBuiltinPlan("virus_scan", &plan));
  lab::LabConfig config;
  config.os = std::move(profile);
  config.stress = workload::GamesStress();
  config.stress_minutes = 0.05;
  config.warmup_seconds = 1.0;
  config.seed = 1999;
  config.faults = &plan;
  const lab::LabReport report = lab::RunLatencyExperiment(config);
  EXPECT_GT(report.fault_activations, 0u);

  std::uint64_t hash = kFnvOffset;
  hash = Fnv1a(report.dpc_interrupt.ToCsv(), hash);
  hash = Fnv1a(report.thread.ToCsv(), hash);
  hash = Fnv1a(report.thread_interrupt.ToCsv(), hash);
  hash = Fnv1a(report.interrupt.ToCsv(), hash);
  hash = Fnv1a(report.isr_to_dpc.ToCsv(), hash);
  hash = Fnv1a(report.true_pit_interrupt_latency.ToCsv(), hash);
  hash = Fnv1a(std::to_string(report.fault_activations), hash);
  return hash;
}

TEST(GoldenRunTest, FaultedVirusScanNt4ChecksumIsStable) {
  EXPECT_EQ(FaultedVirusScanChecksum(kernel::MakeNt4Profile()), 10498460608915817667ull);
}

TEST(GoldenRunTest, FaultedVirusScanWin98ChecksumIsStable) {
  EXPECT_EQ(FaultedVirusScanChecksum(kernel::MakeWin98Profile()), 11425406327170328350ull);
}

// A supervised, interrupted, resumed --jobs 4 matrix: the record-log restore
// path re-imports per-cell reports and merges them in grid order, so this
// checksum pins byte-exact report serialization *and* merge order through
// the engine — the full production path of a fleet run, not just one cell.
std::uint64_t SupervisedResumedMatrixChecksum() {
  lab::MatrixSpec spec;
  spec.oses = {kernel::MakeNt4Profile(), kernel::MakeWin98Profile()};
  spec.workloads = {workload::GamesStress()};
  spec.priorities = {28};
  spec.trials = 2;
  spec.cell.stress_minutes = 0.05;
  spec.cell.warmup_seconds = 1.0;
  spec.master_seed = 1999;
  const lab::ExperimentMatrix matrix(spec);

  // First leg: run 2 of the 4 cells, then "crash".
  lab::MatrixRunOptions first;
  first.jobs = 4;
  first.audit_every_s = 1.0;
  first.journal_path = testutil::TempFileFor("golden_resume.jsonl");
  first.max_cells = 2;
  (void)matrix.Run(first);

  // Second leg: the same run on the same record log finishes the grid.
  lab::MatrixRunOptions second = first;
  second.max_cells = 0;
  const lab::MatrixResult resumed = matrix.Run(second);
  EXPECT_TRUE(resumed.complete()) << resumed.run.error;
  EXPECT_EQ(resumed.run.cells_restored, 2u);

  std::uint64_t hash = kFnvOffset;
  for (const lab::MergedCell& cell : resumed.merged) {
    hash = Fnv1a(cell.os_name, hash);
    hash = Fnv1a(cell.dpc_interrupt.ToCsv(), hash);
    hash = Fnv1a(cell.thread.ToCsv(), hash);
    hash = Fnv1a(cell.thread_interrupt.ToCsv(), hash);
    hash = Fnv1a(cell.true_pit_interrupt_latency.ToCsv(), hash);
  }
  return hash;
}

TEST(GoldenRunTest, SupervisedResumedMatrixChecksumIsStable) {
  EXPECT_EQ(SupervisedResumedMatrixChecksum(), 12578414506684958345ull);
}

}  // namespace
}  // namespace wdmlat
