// sim::InvariantAuditor and the per-layer audit hooks it aggregates: the
// engine calendar, the event pool, and the kernel dispatcher's IRQL/lock
// discipline — plus the tentpole passivity claim that a supervised run with
// auditing armed is bit-identical to an unsupervised run.

#include "src/sim/invariant_auditor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/lab.h"
#include "src/lab/test_system.h"
#include "src/sim/engine.h"
#include "src/sim/event_pool.h"
#include "src/workload/stress_profile.h"

namespace wdmlat {
namespace {

TEST(InvariantAuditorTest, FreshEngineAuditsClean) {
  sim::Engine engine;
  // Some live calendar state: scheduled, fired, and cancelled events.
  int fired = 0;
  engine.ScheduleAt(sim::MsToCycles(1.0), [&] { ++fired; });
  engine.ScheduleAt(sim::MsToCycles(50.0), [&] { ++fired; });
  sim::EventHandle cancelled = engine.ScheduleAt(sim::MsToCycles(60.0), [&] { ++fired; });
  cancelled.Cancel();
  engine.RunUntil(sim::MsToCycles(10.0));
  EXPECT_EQ(fired, 1);

  sim::InvariantAuditor auditor(engine);
  const sim::AuditReport report = auditor.Audit();
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(auditor.passes(), 1u);
  EXPECT_EQ(auditor.violations_seen(), 0u);
}

TEST(InvariantAuditorTest, BusySystemAuditsCleanMidRun) {
  lab::TestSystem system(kernel::MakeWin98Profile(), 1999);
  sim::InvariantAuditor auditor(system.engine());
  kernel::Dispatcher* dispatcher = &system.kernel().dispatcher();
  auditor.AddCheck("dispatcher",
                   [dispatcher](std::vector<std::string>* v) { dispatcher->AuditDiscipline(v); });

  // Audit repeatedly between slices of a live run: the calendar is full of
  // clock ticks and timers, the pool is churning, and the dispatcher is at
  // rest between events — every pass must be clean.
  for (int slice = 0; slice < 5; ++slice) {
    system.RunFor(0.2);
    const sim::AuditReport report = auditor.Audit();
    EXPECT_TRUE(report.ok()) << report.Render();
  }
  EXPECT_EQ(auditor.passes(), 5u);
}

TEST(InvariantAuditorTest, ExternalCheckViolationIsNamedAndCounted) {
  sim::Engine engine;
  sim::InvariantAuditor auditor(engine);
  auditor.AddCheck("fixture", [](std::vector<std::string>* v) {
    v->push_back("injected violation");
  });
  const sim::AuditReport report = auditor.Audit();
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0], "fixture: injected violation");
  EXPECT_EQ(auditor.violations_seen(), 1u);

  const std::string rendered = report.Render();
  EXPECT_NE(rendered.find("audit pass 1"), std::string::npos);
  EXPECT_NE(rendered.find("fixture: injected violation"), std::string::npos);
}

TEST(InvariantAuditorTest, DispatcherDisciplineCleanAtIdle) {
  lab::TestSystem system(kernel::MakeNt4Profile(), 7);
  system.RunFor(0.5);
  std::vector<std::string> violations;
  system.kernel().dispatcher().AuditDiscipline(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(InvariantAuditorTest, EngineAuditCalendarDirectly) {
  sim::Engine engine;
  std::vector<sim::EventHandle> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(engine.ScheduleAt(sim::UsToCycles(10.0 * (i + 1)), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ids[i].Cancel();  // lazy-dead entries stay in the calendar
  }
  engine.RunUntil(sim::UsToCycles(500.0));
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

// The calendar under audit with every kind of entry at once — far-future
// events, nearer events with lazy-dead entries among them, and (via
// callbacks) a same-instant burst audited mid-dispatch while its unfired
// peers die.
TEST(InvariantAuditorTest, CalendarAuditCleanIncludingMidDispatch) {
  constexpr sim::Cycles kStep = sim::Cycles{1} << 16;  // ~218 us at 300 MHz
  sim::Engine engine;
  sim::InvariantAuditor auditor(engine);

  // Far future: events about 112 ms out.
  for (int i = 0; i < 16; ++i) {
    engine.ScheduleAfter((512 + static_cast<sim::Cycles>(i)) * kStep, [] {});
  }
  // Nearer events, one per step, every fourth cancelled so the calendar
  // holds lazy-dead entries.
  std::vector<sim::EventHandle> near;
  for (sim::Cycles i = 1; i <= 64; ++i) {
    near.push_back(engine.ScheduleAfter(i * kStep, [] {}));
  }
  for (std::size_t i = 0; i < near.size(); i += 4) {
    near[i].Cancel();
  }

  // Same-instant burst: each fire audits from inside the dispatch loop and
  // cancels an unfired peer, so the audit sees fired, live and freshly dead
  // entries of the same instant.
  const sim::Cycles tick = engine.now() + 100;
  int mid_batch_audits = 0;
  std::vector<sim::EventHandle> burst;
  for (int i = 0; i < 32; ++i) {
    burst.push_back(engine.ScheduleAt(tick, [&] {
      const sim::AuditReport report = auditor.Audit();
      ASSERT_TRUE(report.ok()) << report.Render();
      ++mid_batch_audits;
      if (!burst.empty()) {
        burst.back().Cancel();
        burst.pop_back();
      }
    }));
  }
  engine.RunUntil(tick);
  EXPECT_GT(mid_batch_audits, 8);

  // Post-burst: the far-future events are still pending, the nearer ones
  // partly dead.
  const sim::AuditReport after = auditor.Audit();
  EXPECT_TRUE(after.ok()) << after.Render();
  engine.RunUntilIdle();
  const sim::AuditReport drained = auditor.Audit();
  EXPECT_TRUE(drained.ok()) << drained.Render();
}

// The tentpole passivity claim: arming the watchdog, the auditor and the
// black box slices the measurement phase, but RunUntil fires exactly the
// events at or before its deadline — so the measured distributions must be
// bit-identical to the single-call path.
TEST(InvariantAuditorTest, SupervisedRunIsBitIdenticalToUnsupervised) {
  lab::LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::GamesStress();
  config.thread_priority = 28;
  config.stress_minutes = 0.05;
  config.warmup_seconds = 1.0;
  config.seed = 1999;

  const lab::LabReport plain = lab::RunLatencyExperiment(config);

  runtime::Watchdog watchdog;
  watchdog.Arm(600'000.0);
  kernel::TraceRing black_box;
  config.supervision.watchdog = &watchdog;
  config.supervision.audit_every_s = 0.5;
  config.supervision.audit_at_end = true;
  config.supervision.black_box = &black_box;
  const lab::LabReport supervised = lab::RunLatencyExperiment(config);

  EXPECT_EQ(plain.samples, supervised.samples);
  EXPECT_EQ(plain.samples_per_hour, supervised.samples_per_hour);
  EXPECT_EQ(plain.thread.ToCsv(), supervised.thread.ToCsv());
  EXPECT_EQ(plain.dpc_interrupt.ToCsv(), supervised.dpc_interrupt.ToCsv());
  EXPECT_EQ(plain.thread_interrupt.ToCsv(), supervised.thread_interrupt.ToCsv());
  EXPECT_EQ(plain.interrupt.ToCsv(), supervised.interrupt.ToCsv());
  EXPECT_EQ(plain.isr_to_dpc.ToCsv(), supervised.isr_to_dpc.ToCsv());
  EXPECT_EQ(plain.true_pit_interrupt_latency.ToCsv(),
            supervised.true_pit_interrupt_latency.ToCsv());
  // The black box saw the whole run without touching it.
  EXPECT_EQ(black_box.size(), 4096u);
}

// The fixture path the CI smoke test drives: a forced audit violation fails
// the cell with kInvariantViolation instead of crashing the process.
// A timer's slot is persistent: disarmed it is even and off the free list,
// armed it is odd and counted live. Neither state is a violation; a timer
// slot threaded onto the free list is.
TEST(InvariantAuditorTest, PoolAuditAccountsForTimerSlots) {
  sim::Engine engine;
  sim::Timer timer(engine, [] {});
  sim::InvariantAuditor auditor(engine);
  EXPECT_TRUE(auditor.Audit().ok());
  timer.ArmAfter(100);
  EXPECT_TRUE(auditor.Audit().ok());
  timer.Disarm();
  const sim::AuditReport disarmed = auditor.Audit();
  EXPECT_TRUE(disarmed.ok()) << disarmed.Render();

  auto* pool = new sim::EventPool;
  const std::uint32_t slot = pool->AllocateTimer([] {});
  pool->ArmTimer(slot);
  pool->DisarmTimer(slot);
  std::vector<std::string> healthy;
  pool->AuditConsistency(&healthy);
  EXPECT_TRUE(healthy.empty()) << healthy.front();
  pool->ThreadOntoFreeListForTesting(slot);
  std::vector<std::string> violations;
  pool->AuditConsistency(&violations);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("free list contains timer slot"), std::string::npos)
      << violations.front();
  pool->Release();
}

TEST(InvariantAuditorTest, ForcedViolationThrowsInvariantViolation) {
  lab::LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::GamesStress();
  config.thread_priority = 28;
  config.stress_minutes = 0.05;
  config.warmup_seconds = 1.0;
  config.seed = 1999;
  config.supervision.fixture = lab::RunSupervision::Fixture::kAuditViolation;

  EXPECT_THROW(lab::RunLatencyExperiment(config), runtime::InvariantViolation);
}

}  // namespace
}  // namespace wdmlat
