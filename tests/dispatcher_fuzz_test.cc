// Randomized stress ("fuzz") tests for the dispatcher: a storm of random
// kernel operations across many seeds must never violate the core
// invariants — causality, conservation of work, and clean termination.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/sim/rng.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

class DispatcherFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DispatcherFuzzTest, RandomOperationStormKeepsInvariants) {
  MiniSystem sys;
  sim::Rng rng(GetParam());

  // Shared objects the storm operates on.
  constexpr int kEvents = 4;
  std::vector<KEvent> events(kEvents);
  std::vector<std::unique_ptr<KDpc>> dpcs;
  std::uint64_t dpc_runs = 0;
  for (int i = 0; i < 4; ++i) {
    dpcs.push_back(std::make_unique<KDpc>([&dpc_runs] { ++dpc_runs; },
                                          sim::DurationDist::Uniform(1.0, 60.0),
                                          Label{"FUZZ", "_dpc"}));
  }
  std::vector<KTimer> timers(4);

  // Worker threads that wait on random events and compute random bursts.
  std::uint64_t wakeups = 0;
  for (int t = 0; t < 6; ++t) {
    const int event_index = t % kEvents;
    // The loop holds itself weakly and the continuations it hands the
    // kernel hold it strongly, so it is freed with the kernel, not leaked.
    auto loop = std::make_shared<std::function<void()>>();
    *loop = [&, event_index, self = std::weak_ptr(loop)] {
      sys.kernel().Wait(&events[event_index], [&, loop = self.lock()] {
        ++wakeups;
        sys.kernel().Compute(rng.Uniform(5.0, 500.0), [loop] { (*loop)(); });
      });
    };
    sys.kernel().PsCreateSystemThread("fuzz" + std::to_string(t), 1 + (t * 5) % 28,
                                      [loop] { (*loop)(); });
  }

  // Causality monitors.
  bool causal = true;
  sys.kernel().dispatcher().on_isr_entry = [&](int, sim::Cycles a, sim::Cycles e) {
    causal &= e >= a;
  };
  sys.kernel().dispatcher().on_thread_dispatch = [&](const KThread&, sim::Cycles s,
                                                     sim::Cycles d) { causal &= d >= s; };

  // The storm: 4000 random operations over 4 virtual seconds.
  for (int i = 0; i < 4000; ++i) {
    const sim::Cycles when = sim::MsToCycles(rng.Uniform(0.0, 4000.0));
    switch (rng.UniformInt(0, 7)) {
      case 0:
        sys.engine().ScheduleAt(when, [&, i] { sys.kernel().KeSetEvent(&events[i % kEvents]); });
        break;
      case 1:
        sys.engine().ScheduleAt(when, [&, i] {
          sys.kernel().KeInsertQueueDpc(dpcs[i % dpcs.size()].get());
        });
        break;
      case 2: {
        const double us = rng.BoundedPareto(1.5, 10.0, 5000.0);
        sys.engine().ScheduleAt(when, [&, us] {
          sys.kernel().InjectKernelSection(Irql::kHigh, us, Label{"FUZZ", "_cli"});
        });
        break;
      }
      case 3: {
        const double us = rng.BoundedPareto(1.5, 10.0, 5000.0);
        sys.engine().ScheduleAt(when, [&, us] {
          sys.kernel().InjectKernelSection(Irql::kDispatch, us, Label{"FUZZ", "_disp"});
        });
        break;
      }
      case 4: {
        const double us = rng.BoundedPareto(1.4, 20.0, 20000.0);
        sys.engine().ScheduleAt(when, [&, us] { sys.kernel().LockDispatch(us); });
        break;
      }
      case 5: {
        const double ms = rng.Uniform(0.5, 30.0);
        sys.engine().ScheduleAt(when, [&, i, ms] {
          sys.kernel().KeSetTimerMs(&timers[i % timers.size()], ms,
                                    dpcs[i % dpcs.size()].get());
        });
        break;
      }
      case 6:
        sys.engine().ScheduleAt(when, [&, i] {
          sys.kernel().KeCancelTimer(&timers[i % timers.size()]);
        });
        break;
      default:
        sys.engine().ScheduleAt(when, [&, i] {
          sys.kernel().ExQueueWorkItem(rng.Uniform(5.0, 2000.0), Label{"FUZZ", "_work"});
        });
        break;
    }
    // Random device interrupts too.
    if (i % 5 == 0) {
      sys.engine().ScheduleAt(when, [&] { sys.pic().Assert(sys.line_a()); });
    }
  }
  // Connect a handler for the device line so asserts are serviced.
  std::uint64_t device_isrs = 0;
  sys.kernel().IoConnectInterrupt(sys.line_a(), static_cast<Irql>(12),
                                  Label{"FUZZ", "_isr"}, [&]() -> sim::Cycles {
                                    ++device_isrs;
                                    return sim::UsToCycles(3.0);
                                  });

  sys.RunForMs(6000.3);  // past the last scheduled op plus drain time (off-tick)

  EXPECT_TRUE(causal);
  EXPECT_GT(dpc_runs, 100u);
  EXPECT_GT(wakeups, 100u);
  EXPECT_GT(device_isrs, 100u);
  // The system must quiesce: no thread still runnable except the waiters,
  // DPC queue empty, no interrupt stack left behind.
  EXPECT_EQ(sys.kernel().DpcQueueDepth(), 0u);
  EXPECT_EQ(sys.kernel().dispatcher().EffectiveIrql(), Irql::kPassive);
  // Work queue fully drained.
  EXPECT_EQ(sys.kernel().WorkQueueDepth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatcherFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(DispatcherFuzzTest, LongRunningMixedLoadQuiescesCleanly) {
  MiniSystem sys;
  // A denser version of the storm driven by Poisson processes for a longer
  // virtual time, to shake out slow leaks in the pause/resume machinery.
  sim::PoissonProcess sections(sys.engine(), sim::Rng(101), 200.0, [&] {
    sys.kernel().InjectKernelSection(Irql::kDispatch, 100.0, kernel::Label{"FZ", "_s"});
  });
  sim::PoissonProcess masked(sys.engine(), sim::Rng(102), 100.0, [&] {
    sys.kernel().InjectKernelSection(Irql::kHigh, 50.0, kernel::Label{"FZ", "_m"});
  });
  KDpc dpc([] {}, sim::DurationDist::Constant(20.0), Label{"FZ", "_d"});
  sim::PoissonProcess dpc_storm(sys.engine(), sim::Rng(103), 500.0,
                                [&] { sys.kernel().KeInsertQueueDpc(&dpc); });
  sections.Start();
  masked.Start();
  dpc_storm.Start();
  sys.RunForMs(30000.0);
  sections.Stop();
  masked.Stop();
  dpc_storm.Stop();
  sys.RunForMs(100.3);
  EXPECT_EQ(sys.kernel().dispatcher().EffectiveIrql(), Irql::kPassive);
  EXPECT_EQ(sys.kernel().DpcQueueDepth(), 0u);
  EXPECT_GT(dpc.dispatch_count(), 10000u);
}

}  // namespace
}  // namespace wdmlat::kernel
