// SMP determinism suite (DESIGN.md §9).
//
// The SMP kernel's headline contract has three legs:
//   1. Uniprocessor is the exact cores == 1 special case — an SMP-shaped
//      profile with one core reproduces the uniprocessor golden checksum
//      byte for byte (the Smp object is simply never constructed).
//   2. SMP cells are bit-reproducible: the same seed gives the same
//      histograms run-over-run, across --jobs counts, and across a
//      crash/resume — with the extended invariant auditor (per-core IRQL
//      discipline + spinlock/runqueue/IPI conservation) armed throughout.
//   3. A cross-core operation storm — wakes, affinity churn, priority
//      flips, injected spinlock contention, device interrupts — keeps every
//      per-core invariant and quiesces cleanly.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/drivers/latency_driver.h"
#include "src/kernel/kernel.h"
#include "src/kernel/profile.h"
#include "src/kernel/smp.h"
#include "src/lab/lab.h"
#include "src/lab/matrix.h"
#include "src/lab/test_system.h"
#include "src/sim/rng.h"
#include "src/workload/stress_load.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_path.h"
#include "tests/test_util.h"

namespace wdmlat {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv1a(std::string_view text, std::uint64_t hash = kFnvOffset) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

// Same construction as golden_run_test.cc's GamesRunChecksum: one short
// Figure-4 games cell against the measurement driver, master seed 1999.
std::uint64_t GamesRunChecksum(kernel::KernelProfile profile) {
  lab::TestSystem system(std::move(profile), 1999);
  workload::StressLoad load(system.deps(), workload::GamesStress(), system.ForkRng());
  drivers::LatencyDriver driver(system.kernel(), drivers::LatencyDriver::Config{});
  load.Start();
  driver.Start();
  system.RunForMinutes(0.05);

  std::uint64_t hash = kFnvOffset;
  hash = Fnv1a(driver.dpc_interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.thread_latency().ToCsv(), hash);
  hash = Fnv1a(driver.thread_interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.interrupt_latency().ToCsv(), hash);
  hash = Fnv1a(driver.isr_to_dpc_latency().ToCsv(), hash);
  return hash;
}

// Leg 1: the SMP profile plumbing (cores, ipi_cost, DPC affinity, IRQ
// routing, work stealing) must be inert at cores == 1 — the checksum is the
// uniprocessor NT4 golden constant from golden_run_test.cc. If this moves,
// the Smp construction (or its RNG forks) leaked into the UP path.
TEST(SmpDeterminismTest, OneCoreSmpProfileReproducesUniprocessorGolden) {
  kernel::KernelProfile one_core = kernel::MakeNt4SmpProfile(2, true);
  one_core.cores = 1;
  EXPECT_EQ(GamesRunChecksum(std::move(one_core)), 12791926721688464228ull);
}

// Leg 2a: run-over-run bit identity for real SMP cells (2 pinned, 4
// migrating — both router policies).
TEST(SmpDeterminismTest, SmpCellRunsAreBitIdentical) {
  for (const bool migrating : {false, true}) {
    SCOPED_TRACE(migrating ? "migrating" : "pinned");
    lab::LabConfig config;
    config.os = kernel::MakeNt4SmpProfile(migrating ? 4 : 2, migrating);
    config.stress = workload::GamesStress();
    config.stress_minutes = 0.05;
    config.warmup_seconds = 1.0;
    config.seed = 1999;
    const lab::LabReport a = lab::RunLatencyExperiment(config);
    const lab::LabReport b = lab::RunLatencyExperiment(config);
    EXPECT_GT(a.samples, 0u);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.thread.ToCsv(), b.thread.ToCsv());
    EXPECT_EQ(a.dpc_interrupt.ToCsv(), b.dpc_interrupt.ToCsv());
    EXPECT_EQ(a.thread_interrupt.ToCsv(), b.thread_interrupt.ToCsv());
    EXPECT_EQ(a.interrupt.ToCsv(), b.interrupt.ToCsv());
  }
}

// Leg 2b: a supervised SMP matrix (auditor armed every virtual second) is
// bit-identical at --jobs 1 and --jobs 4. Any cross-worker state leak — or
// an auditor that perturbs the run — shows up as a CSV mismatch.
TEST(SmpDeterminismTest, SmpMatrixBitReproducibleAcrossJobCounts) {
  lab::MatrixSpec spec;
  spec.oses = {kernel::MakeNt4SmpProfile(2, false),
               kernel::MakeNt4SmpProfile(4, true)};
  spec.workloads = {workload::GamesStress()};
  spec.priorities = {28};
  spec.trials = 2;
  spec.cell.stress_minutes = 0.05;
  spec.cell.warmup_seconds = 1.0;
  spec.master_seed = 1999;
  const lab::ExperimentMatrix matrix(spec);

  auto run = [&matrix](int jobs) {
    lab::MatrixRunOptions options;
    options.jobs = jobs;
    options.audit_every_s = 1.0;
    return matrix.Run(options);
  };
  const lab::MatrixResult serial = run(1);
  const lab::MatrixResult parallel = run(4);
  ASSERT_TRUE(serial.complete()) << serial.run.error;
  ASSERT_TRUE(parallel.complete()) << parallel.run.error;
  ASSERT_EQ(serial.merged.size(), 2u);
  for (std::size_t i = 0; i < serial.merged.size(); ++i) {
    SCOPED_TRACE(serial.merged[i].os_name);
    EXPECT_GT(serial.merged[i].samples(), 0u);
    EXPECT_EQ(serial.merged[i].samples(), parallel.merged[i].samples());
    EXPECT_EQ(serial.merged[i].thread.ToCsv(), parallel.merged[i].thread.ToCsv());
    EXPECT_EQ(serial.merged[i].dpc_interrupt.ToCsv(),
              parallel.merged[i].dpc_interrupt.ToCsv());
    EXPECT_EQ(serial.merged[i].thread_interrupt.ToCsv(),
              parallel.merged[i].thread_interrupt.ToCsv());
  }
}

// Leg 2c: interrupt an SMP matrix after 2 of 4 cells, resume from the
// record log at --jobs 4, and compare against an uninterrupted run — the
// merged artifact bytes must match exactly (the restore re-imports per-cell
// reports; any serialization loss for SMP cells would surface here).
TEST(SmpDeterminismTest, SmpMatrixBitIdenticalAcrossResume) {
  lab::MatrixSpec spec;
  spec.oses = {kernel::MakeNt4SmpProfile(2, true)};
  spec.workloads = {workload::GamesStress()};
  spec.priorities = {28};
  spec.trials = 4;
  spec.cell.stress_minutes = 0.05;
  spec.cell.warmup_seconds = 1.0;
  spec.master_seed = 1999;
  const lab::ExperimentMatrix matrix(spec);

  auto digest = [](const lab::MatrixResult& result) {
    std::uint64_t hash = kFnvOffset;
    for (const lab::MergedCell& cell : result.merged) {
      hash = Fnv1a(cell.os_name, hash);
      hash = Fnv1a(cell.thread.ToCsv(), hash);
      hash = Fnv1a(cell.dpc_interrupt.ToCsv(), hash);
      hash = Fnv1a(cell.thread_interrupt.ToCsv(), hash);
      hash = Fnv1a(cell.true_pit_interrupt_latency.ToCsv(), hash);
    }
    return hash;
  };

  lab::MatrixRunOptions straight;
  straight.jobs = 4;
  straight.audit_every_s = 1.0;
  const std::uint64_t want = digest(matrix.Run(straight));

  lab::MatrixRunOptions first = straight;
  first.journal_path = testutil::TempFileFor("smp_resume.jsonl");
  first.max_cells = 2;
  (void)matrix.Run(first);

  lab::MatrixRunOptions second = first;
  second.max_cells = 0;
  const lab::MatrixResult resumed = matrix.Run(second);
  EXPECT_TRUE(resumed.complete()) << resumed.run.error;
  EXPECT_EQ(resumed.run.cells_restored, 2u);
  EXPECT_EQ(digest(resumed), want);
}

// --- Leg 3: cross-core fuzz -------------------------------------------------

kernel::KernelProfile SmpQuietProfile(int cores, bool migrating) {
  kernel::KernelProfile p = testutil::QuietProfile();
  p.name = "QuietSMP" + std::to_string(cores);
  p.cores = cores;
  p.ipi_cost = sim::DurationDist::Constant(0.8);
  if (migrating) {
    p.dpc_affinity = kernel::KernelProfile::DpcAffinity::kMigrating;
    p.irq_routing = kernel::KernelProfile::IrqRouting::kRoundRobin;
    p.work_stealing = true;
  }
  return p;
}

struct FuzzOutcome {
  std::uint64_t dpc_runs = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t device_isrs = 0;
  std::uint64_t ipis = 0;
  std::uint64_t cross_core_wakes = 0;
  std::uint64_t contentions = 0;

  bool operator==(const FuzzOutcome&) const = default;
};

// One storm: 3000 random operations over 3 virtual seconds on a 4-core
// machine — wakes, DPC inserts, DISPATCH/HIGH sections, dispatch lockouts,
// timer set/cancel, priority flips, affinity churn, injected spinlock
// contention on the dispatcher and per-core DPC locks, device interrupts.
// Ends with every invariant audited and the machine quiescent.
FuzzOutcome RunSmpStorm(std::uint64_t seed, bool migrating) {
  testutil::MiniSystem sys(SmpQuietProfile(4, migrating), seed);
  kernel::Kernel& k = sys.kernel();
  kernel::Smp* smp = k.smp();
  EXPECT_NE(smp, nullptr);
  sim::Rng rng(seed * 2654435761u + 1);

  FuzzOutcome out;
  constexpr int kEvents = 4;
  std::vector<kernel::KEvent> events(kEvents);
  std::vector<std::unique_ptr<kernel::KDpc>> dpcs;
  for (int i = 0; i < 4; ++i) {
    dpcs.push_back(std::make_unique<kernel::KDpc>(
        [&out] { ++out.dpc_runs; }, sim::DurationDist::Uniform(1.0, 60.0),
        kernel::Label{"FUZZ", "_dpc"}));
  }
  std::vector<kernel::KTimer> timers(4);

  std::vector<kernel::KThread*> threads;
  for (int t = 0; t < 8; ++t) {
    const int event_index = t % kEvents;
    // The loop holds itself weakly and the continuations it hands the
    // kernel hold it strongly, so it is freed with the kernel, not leaked.
    auto loop = std::make_shared<std::function<void()>>();
    *loop = [&, event_index, self = std::weak_ptr(loop)] {
      k.Wait(&events[event_index], [&, loop = self.lock()] {
        ++out.wakeups;
        k.Compute(rng.Uniform(5.0, 500.0), [loop] { (*loop)(); });
      });
    };
    threads.push_back(k.PsCreateSystemThread("fuzz" + std::to_string(t),
                                             1 + (t * 5) % 28, [loop] { (*loop)(); }));
  }

  for (int i = 0; i < 3000; ++i) {
    const sim::Cycles when = sim::MsToCycles(rng.Uniform(0.0, 3000.0));
    switch (rng.UniformInt(0, 9)) {
      case 0:
        sys.engine().ScheduleAt(when, [&, i] { k.KeSetEvent(&events[i % kEvents]); });
        break;
      case 1:
        sys.engine().ScheduleAt(when,
                                [&, i] { k.KeInsertQueueDpc(dpcs[i % dpcs.size()].get()); });
        break;
      case 2: {
        const double us = rng.BoundedPareto(1.5, 10.0, 5000.0);
        sys.engine().ScheduleAt(when, [&, us] {
          k.InjectKernelSection(kernel::Irql::kDispatch, us, kernel::Label{"FUZZ", "_disp"});
        });
        break;
      }
      case 3: {
        const double us = rng.BoundedPareto(1.4, 20.0, 20000.0);
        sys.engine().ScheduleAt(when, [&, us] { k.LockDispatch(us); });
        break;
      }
      case 4: {
        const double ms = rng.Uniform(0.5, 30.0);
        sys.engine().ScheduleAt(when, [&, i, ms] {
          k.KeSetTimerMs(&timers[i % timers.size()], ms, dpcs[i % dpcs.size()].get());
        });
        break;
      }
      case 5:
        sys.engine().ScheduleAt(when,
                                [&, i] { k.KeCancelTimer(&timers[i % timers.size()]); });
        break;
      case 6: {
        const int prio = static_cast<int>(rng.UniformInt(1, 30));
        sys.engine().ScheduleAt(when, [&, i, prio] {
          k.KeSetPriorityThread(threads[i % threads.size()], prio);
        });
        break;
      }
      case 7: {
        // Affinity churn: any non-empty subset of the 4 cores.
        const std::uint32_t mask = static_cast<std::uint32_t>(rng.UniformInt(1, 15));
        sys.engine().ScheduleAt(when, [&, i, mask] {
          k.KeSetAffinityThread(threads[i % threads.size()], mask);
        });
        break;
      }
      case 8: {
        // Spinlock contention on a random named lock. InjectLockHold
        // returns false when the lock is already held — fine, skip.
        const int pick = static_cast<int>(rng.UniformInt(0, 4));
        const std::string lock =
            pick == 0 ? "dispatcher" : "dpc" + std::to_string(pick - 1);
        const double us = rng.BoundedPareto(1.5, 20.0, 2000.0);
        sys.engine().ScheduleAt(when, [&k, lock, us] {
          (void)k.smp()->InjectLockHold(lock, sim::UsToCycles(us),
                                        kernel::Label{"FUZZ", "_lockhog"});
        });
        break;
      }
      default:
        sys.engine().ScheduleAt(when, [&, i] {
          k.ExQueueWorkItem(rng.Uniform(5.0, 2000.0), kernel::Label{"FUZZ", "_work"});
        });
        break;
    }
    if (i % 5 == 0) {
      sys.engine().ScheduleAt(when, [&] { sys.pic().Assert(sys.line_a()); });
    }
  }
  k.IoConnectInterrupt(sys.line_a(), static_cast<kernel::Irql>(12),
                       kernel::Label{"FUZZ", "_isr"}, [&out]() -> sim::Cycles {
                         ++out.device_isrs;
                         return sim::UsToCycles(3.0);
                       });

  sys.RunForMs(5000.3);  // past the last op plus drain time (off-tick)

  // Quiescence: every core back at PASSIVE, all DPC queues drained, the
  // work queue empty, no IPI still in flight.
  for (int core = 0; core < k.core_count(); ++core) {
    SCOPED_TRACE("core " + std::to_string(core));
    EXPECT_EQ(k.dispatcher(core).EffectiveIrql(), kernel::Irql::kPassive);
    std::vector<std::string> violations;
    k.dispatcher(core).AuditDiscipline(&violations);
    EXPECT_TRUE(violations.empty()) << violations.front();
  }
  EXPECT_EQ(k.DpcQueueDepth(), 0u);
  EXPECT_EQ(k.WorkQueueDepth(), 0u);
  std::vector<std::string> smp_violations;
  smp->Audit(&smp_violations);
  EXPECT_TRUE(smp_violations.empty()) << smp_violations.front();
  EXPECT_EQ(smp->ipis_in_flight(), 0u);
  EXPECT_EQ(smp->ipis_sent(), smp->ipis_delivered());

  out.ipis = smp->ipis_delivered();
  out.cross_core_wakes = smp->cross_core_wakes();
  out.contentions = smp->dispatcher_lock().contentions();
  for (int core = 0; core < k.core_count(); ++core) {
    out.contentions += smp->dpc_lock(core).contentions();
  }
  return out;
}

class SmpFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmpFuzzTest, CrossCoreStormKeepsInvariantsAndIsDeterministic) {
  const FuzzOutcome pinned = RunSmpStorm(GetParam(), /*migrating=*/false);
  EXPECT_GT(pinned.dpc_runs, 100u);
  EXPECT_GT(pinned.wakeups, 50u);
  EXPECT_GT(pinned.device_isrs, 100u);
  // Cross-core traffic actually happened — the invariants were load-bearing.
  EXPECT_GT(pinned.ipis, 0u);

  const FuzzOutcome migrating = RunSmpStorm(GetParam(), /*migrating=*/true);
  EXPECT_GT(migrating.ipis, 0u);

  // Bit-level determinism: the identical storm replayed gives the identical
  // outcome counters, both router policies.
  EXPECT_EQ(RunSmpStorm(GetParam(), false), pinned);
  EXPECT_EQ(RunSmpStorm(GetParam(), true), migrating);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmpFuzzTest, ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace wdmlat
