// The fault subsystem's passivity and determinism contracts.
//
// Passivity: an *empty* fault plan must change nothing. The injector's RNG
// streams are derived from (plan seed, cell seed, spec index) — never from
// the workload's RNG — and an empty plan creates no kernel objects at all,
// so the golden-run construction with an empty-plan injector attached must
// reproduce the exact pre-fault-subsystem checksums from golden_run_test.cc
// bit for bit. If these fail, the injector has a hidden side effect (an RNG
// draw, an interrupt line, a stray event) and the differential methodology
// (baseline vs. perturbed from one seed) is broken.
//
// Determinism: the same non-empty plan on the same seeded matrix must merge
// bit-identically whether the cells ran on one worker or four.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "src/drivers/latency_driver.h"
#include "src/fault/fault.h"
#include "src/fault/injector.h"
#include "src/kernel/profile.h"
#include "src/lab/matrix.h"
#include "src/lab/test_system.h"
#include "src/workload/stress_load.h"
#include "src/workload/stress_profile.h"

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

// The golden_run_test.cc construction, with an empty-plan injector attached
// the way lab.cc would attach a real one.
std::uint64_t GamesRunChecksumWithEmptyPlan(kernel::KernelProfile profile) {
  lab::TestSystem system(std::move(profile), 1999);
  workload::StressLoad load(system.deps(), workload::GamesStress(), system.ForkRng());
  drivers::LatencyDriver driver(system.kernel(), drivers::LatencyDriver::Config{});

  fault::InjectorTargets targets;
  targets.kernel = &system.kernel();
  targets.disk = &system.disk_driver();
  fault::Injector injector(targets, fault::FaultPlan{}, 1999);
  injector.Start();

  load.Start();
  driver.Start();
  system.RunForMinutes(0.05);
  injector.Stop();

  std::uint64_t hash = kFnvOffset;
  hash = Fnv1a(driver.dpc_interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.thread_latency().ToCsv(), hash);
  hash = Fnv1a(driver.thread_interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.isr_to_dpc_latency().ToCsv(), hash);
  return hash;
}

// The constants are golden_run_test.cc's — the empty-plan run must be
// byte-identical to a run with no injector at all.
TEST(FaultPassivityTest, EmptyPlanReproducesNt4GoldenChecksum) {
  EXPECT_EQ(GamesRunChecksumWithEmptyPlan(kernel::MakeNt4Profile()),
            12791926721688464228ull);
}

TEST(FaultPassivityTest, EmptyPlanReproducesWin98GoldenChecksum) {
  EXPECT_EQ(GamesRunChecksumWithEmptyPlan(kernel::MakeWin98Profile()),
            3888655912689493493ull);
}

// lab::RunLatencyExperiment must treat a null plan and an empty plan
// identically (no injector constructed in either case).
TEST(FaultPassivityTest, LabEmptyPlanMatchesNullPlan) {
  lab::LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::GamesStress();
  config.thread_priority = 28;
  config.stress_minutes = 0.05;
  config.seed = 1999;

  const lab::LabReport null_plan = lab::RunLatencyExperiment(config);

  const fault::FaultPlan empty;
  config.faults = &empty;
  const lab::LabReport empty_plan = lab::RunLatencyExperiment(config);

  EXPECT_EQ(null_plan.samples, empty_plan.samples);
  EXPECT_EQ(null_plan.thread.ToCsv(), empty_plan.thread.ToCsv());
  EXPECT_EQ(null_plan.dpc_interrupt.ToCsv(), empty_plan.dpc_interrupt.ToCsv());
  EXPECT_EQ(empty_plan.fault_activations, 0u);
}

TEST(FaultPassivityTest, MatrixWithPlanIsJobCountInvariant) {
  const fault::FaultPlan plan = fault::MaskedWindowPlan();
  lab::MatrixSpec spec;
  spec.oses = {kernel::MakeWin98Profile()};
  spec.workloads = {workload::GamesStress(), workload::OfficeStress()};
  spec.priorities = {28};
  spec.trials = 2;
  spec.cell.stress_minutes = 0.1;
  spec.cell.warmup_seconds = 1.0;
  spec.master_seed = 1999;
  spec.cell.faults = &plan;
  const lab::ExperimentMatrix matrix(spec);

  lab::MatrixRunOptions options;
  options.jobs = 1;
  const lab::MatrixResult serial = matrix.Run(options);
  options.jobs = 4;
  const lab::MatrixResult parallel = matrix.Run(options);

  ASSERT_EQ(serial.merged.size(), parallel.merged.size());
  for (std::size_t i = 0; i < serial.merged.size(); ++i) {
    const lab::MergedCell& a = serial.merged[i];
    const lab::MergedCell& b = parallel.merged[i];
    SCOPED_TRACE(a.workload_name);
    EXPECT_GT(a.fault_activations, 0u);
    EXPECT_EQ(a.fault_activations, b.fault_activations);
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.thread.ToCsv(), b.thread.ToCsv());
    EXPECT_EQ(a.thread_interrupt.ToCsv(), b.thread_interrupt.ToCsv());
    EXPECT_EQ(a.thread.max_ms(), b.thread.max_ms());
  }
}

}  // namespace
}  // namespace wdmlat
