// Tests for the preemption hierarchy: ISRs > DPCs > threads, IRQL masking,
// interrupt latency, DPC queueing, thread dispatch and the Windows 98
// dispatch-lockout mechanism.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;
using testutil::QuietProfile;

constexpr double kIsrOverheadUs = 2.0;  // QuietProfile constants
constexpr double kSwitchUs = 10.0;

TEST(DispatcherTest, InterruptLatencyIsDispatchOverheadOnIdleSystem) {
  MiniSystem sys;
  sim::Cycles asserted = 0;
  sim::Cycles entered = 0;
  sys.kernel().IoConnectInterrupt(sys.line_a(), static_cast<Irql>(12), Label{"T", "_isr"},
                                  [] { return sim::UsToCycles(1.0); });
  sys.kernel().dispatcher().on_isr_entry = [&](int line, sim::Cycles a, sim::Cycles e) {
    if (line == sys.line_a()) {
      asserted = a;
      entered = e;
    }
  };
  sys.engine().ScheduleAt(sim::UsToCycles(500.0), [&] { sys.pic().Assert(sys.line_a()); });
  sys.RunForUs(900.0);
  EXPECT_EQ(asserted, sim::UsToCycles(500.0));
  EXPECT_EQ(entered, asserted + sim::UsToCycles(kIsrOverheadUs));
}

TEST(DispatcherTest, MaskedSectionDelaysInterruptAcceptance) {
  MiniSystem sys;
  sim::Cycles entered = 0;
  sys.kernel().IoConnectInterrupt(sys.line_a(), static_cast<Irql>(12), Label{"T", "_isr"},
                                  [] { return sim::UsToCycles(1.0); });
  sys.kernel().dispatcher().on_isr_entry = [&](int line, sim::Cycles, sim::Cycles e) {
    if (line == sys.line_a()) {
      entered = e;
    }
  };
  // 400 us interrupt-masked section starting at 100 us; interrupt at 200 us.
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    sys.kernel().InjectKernelSection(Irql::kHigh, 400.0, Label{"HAL", "_cli"});
  });
  sys.engine().ScheduleAt(sim::UsToCycles(200.0), [&] { sys.pic().Assert(sys.line_a()); });
  sys.RunForUs(900.0);
  // Accepted when the section ends at 500 us, entered after overhead.
  EXPECT_EQ(entered, sim::UsToCycles(500.0 + kIsrOverheadUs));
}

TEST(DispatcherTest, HigherIrqlInterruptPreemptsLowerIsr) {
  MiniSystem sys;
  std::vector<int> entries;
  sim::Cycles high_entry = 0;
  sys.kernel().IoConnectInterrupt(sys.line_b(), static_cast<Irql>(8), Label{"T", "_low"},
                                  [] { return sim::UsToCycles(300.0); });
  sys.kernel().IoConnectInterrupt(sys.line_a(), static_cast<Irql>(12), Label{"T", "_high"},
                                  [] { return sim::UsToCycles(5.0); });
  sys.kernel().dispatcher().on_isr_entry = [&](int line, sim::Cycles, sim::Cycles e) {
    entries.push_back(line);
    if (line == sys.line_a()) {
      high_entry = e;
    }
  };
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.pic().Assert(sys.line_b()); });
  sys.engine().ScheduleAt(sim::UsToCycles(150.0), [&] { sys.pic().Assert(sys.line_a()); });
  sys.RunForUs(900.0);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], sys.line_b());
  EXPECT_EQ(entries[1], sys.line_a());
  // The high-IRQL interrupt nests inside the low ISR's body immediately.
  EXPECT_EQ(high_entry, sim::UsToCycles(150.0 + kIsrOverheadUs));
}

TEST(DispatcherTest, LowerIrqlInterruptPendsUntilHigherIsrFinishes) {
  MiniSystem sys;
  sim::Cycles low_entry = 0;
  sys.kernel().IoConnectInterrupt(sys.line_a(), static_cast<Irql>(12), Label{"T", "_high"},
                                  [] { return sim::UsToCycles(300.0); });
  sys.kernel().IoConnectInterrupt(sys.line_b(), static_cast<Irql>(8), Label{"T", "_low"},
                                  [] { return sim::UsToCycles(5.0); });
  sys.kernel().dispatcher().on_isr_entry = [&](int line, sim::Cycles, sim::Cycles e) {
    if (line == sys.line_b()) {
      low_entry = e;
    }
  };
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.pic().Assert(sys.line_a()); });
  sys.engine().ScheduleAt(sim::UsToCycles(150.0), [&] { sys.pic().Assert(sys.line_b()); });
  sys.RunForUs(900.0);
  // High ISR: entry 102, body 300 => done at 402; low enters at 404.
  EXPECT_EQ(low_entry, sim::UsToCycles(100.0 + kIsrOverheadUs + 300.0 + kIsrOverheadUs));
}

TEST(DispatcherTest, DpcsRunInFifoOrder) {
  MiniSystem sys;
  std::vector<int> order;
  KDpc dpc1([&] { order.push_back(1); }, sim::DurationDist::Constant(5.0), Label{"T", "_d1"});
  KDpc dpc2([&] { order.push_back(2); }, sim::DurationDist::Constant(5.0), Label{"T", "_d2"});
  KDpc dpc3([&] { order.push_back(3); }, sim::DurationDist::Constant(5.0), Label{"T", "_d3"});
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    sys.kernel().KeInsertQueueDpc(&dpc1);
    sys.kernel().KeInsertQueueDpc(&dpc2);
    sys.kernel().KeInsertQueueDpc(&dpc3);
  });
  sys.RunForUs(900.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DispatcherTest, HighImportanceDpcJumpsTheQueue) {
  MiniSystem sys;
  std::vector<int> order;
  KDpc dpc1([&] { order.push_back(1); }, sim::DurationDist::Constant(50.0), Label{"T", "_d1"});
  KDpc dpc2([&] { order.push_back(2); }, sim::DurationDist::Constant(5.0), Label{"T", "_d2"});
  KDpc urgent([&] { order.push_back(9); }, sim::DurationDist::Constant(5.0), Label{"T", "_d9"},
              KDpc::Importance::kHigh);
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    sys.kernel().KeInsertQueueDpc(&dpc1);
    sys.kernel().KeInsertQueueDpc(&dpc2);
    sys.kernel().KeInsertQueueDpc(&urgent);
  });
  sys.RunForUs(900.0);
  // dpc1 was already executing (or first); urgent overtakes dpc2 only.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 9);
  EXPECT_EQ(order[2], 2);
}

TEST(DispatcherTest, DoubleInsertIsRejectedWhileQueued) {
  MiniSystem sys;
  int runs = 0;
  KDpc dpc([&] { ++runs; }, sim::DurationDist::Constant(5.0), Label{"T", "_d"});
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    // Hold the CPU at DISPATCH so the queue cannot drain between inserts.
    sys.kernel().InjectKernelSection(Irql::kDispatch, 200.0, Label{"T", "_hold"});
    EXPECT_TRUE(sys.kernel().KeInsertQueueDpc(&dpc));
    EXPECT_FALSE(sys.kernel().KeInsertQueueDpc(&dpc));
  });
  sys.RunForUs(900.0);
  EXPECT_EQ(runs, 1);
}

TEST(DispatcherTest, DpcLatencyIncludesQueueAhead) {
  MiniSystem sys;
  sim::Cycles first_start = 0;
  sim::Cycles second_start = 0;
  KDpc slow([&] { first_start = sys.kernel().GetCycleCount(); },
            sim::DurationDist::Constant(200.0), Label{"T", "_slow"});
  KDpc fast([&] { second_start = sys.kernel().GetCycleCount(); },
            sim::DurationDist::Constant(5.0), Label{"T", "_fast"});
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    sys.kernel().KeInsertQueueDpc(&slow);
    sys.kernel().KeInsertQueueDpc(&fast);
  });
  sys.RunForUs(900.0);
  // fast waits for slow's 200 us body plus two dispatch costs (1 us each).
  EXPECT_EQ(second_start - first_start, sim::UsToCycles(200.0 + 1.0));
}

TEST(DispatcherTest, ThreadAtDispatchIrqlBlocksDpcUntilSegmentEnds) {
  MiniSystem sys;
  sim::Cycles dpc_start = 0;
  sim::Cycles segment_end_expected = 0;
  KDpc dpc([&] { dpc_start = sys.kernel().GetCycleCount(); }, sim::DurationDist::Constant(5.0),
           Label{"T", "_d"});
  sys.kernel().PsCreateSystemThread("raised", 8, [&] {
    segment_end_expected = sys.kernel().GetCycleCount() + sim::UsToCycles(300.0);
    sys.kernel().ComputeAt(300.0, Irql::kDispatch, Label{"T", "_raised"}, [&] {
      sys.kernel().ExitThread();
    });
  });
  // Queue the DPC mid-segment.
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.kernel().KeInsertQueueDpc(&dpc); });
  sys.RunForUs(900.0);
  ASSERT_NE(dpc_start, 0u);
  EXPECT_GE(dpc_start, segment_end_expected);
}

TEST(DispatcherTest, DpcPreemptsPassiveThreadSegment) {
  MiniSystem sys;
  sim::Cycles dpc_start = 0;
  sim::Cycles thread_done = 0;
  KDpc dpc([&] { dpc_start = sys.kernel().GetCycleCount(); }, sim::DurationDist::Constant(50.0),
           Label{"T", "_d"});
  sys.kernel().PsCreateSystemThread("victim", 8, [&] {
    sys.kernel().Compute(500.0, [&] {
      thread_done = sys.kernel().GetCycleCount();
      sys.kernel().ExitThread();
    });
  });
  sys.engine().ScheduleAt(sim::UsToCycles(200.0), [&] { sys.kernel().KeInsertQueueDpc(&dpc); });
  sys.RunForUs(900.0);
  // DPC starts promptly (dispatch cost 1 us), thread finishes 50+1 us late.
  EXPECT_EQ(dpc_start, sim::UsToCycles(200.0 + 1.0));
  ASSERT_NE(thread_done, 0u);
  EXPECT_GT(thread_done, sim::UsToCycles(500.0 + 50.0));
}

TEST(DispatcherTest, HigherPriorityThreadPreemptsImmediately) {
  MiniSystem sys;
  KEvent wake;
  sim::Cycles high_ran_at = 0;
  sim::Cycles low_done_at = 0;
  sys.kernel().PsCreateSystemThread("high", 20, [&] {
    sys.kernel().Wait(&wake, [&] {
      high_ran_at = sys.kernel().GetCycleCount();
      sys.kernel().ExitThread();
    });
  });
  sys.kernel().PsCreateSystemThread("low", 8, [&] {
    sys.kernel().Compute(600.0, [&] {
      low_done_at = sys.kernel().GetCycleCount();
      sys.kernel().ExitThread();
    });
  });
  const sim::Cycles signal_at = sim::UsToCycles(300.0);
  sys.engine().ScheduleAt(signal_at, [&] { sys.kernel().KeSetEvent(&wake); });
  sys.RunForUs(2000.0);
  ASSERT_NE(high_ran_at, 0u);
  ASSERT_NE(low_done_at, 0u);
  // High runs one context switch after the signal; low is delayed past it.
  EXPECT_EQ(high_ran_at, signal_at + sim::UsToCycles(kSwitchUs));
  EXPECT_GT(low_done_at, high_ran_at);
}

TEST(DispatcherTest, EqualPriorityRoundRobinViaQuantum) {
  MiniSystem sys;
  std::uint64_t progress_a = 0;
  std::uint64_t progress_b = 0;
  std::function<void()> loop_a = [&] {
    sys.kernel().Compute(1000.0, [&] {
      ++progress_a;
      loop_a();
    });
  };
  std::function<void()> loop_b = [&] {
    sys.kernel().Compute(1000.0, [&] {
      ++progress_b;
      loop_b();
    });
  };
  sys.kernel().PsCreateSystemThread("a", 8, [&] { loop_a(); });
  sys.kernel().PsCreateSystemThread("b", 8, [&] { loop_b(); });
  sys.RunForMs(200.0);
  // Both must make progress, within a factor of two of each other.
  EXPECT_GT(progress_a, 50u);
  EXPECT_GT(progress_b, 50u);
  const double ratio = static_cast<double>(progress_a) / static_cast<double>(progress_b);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(DispatcherTest, DispatchLockoutDelaysThreadsButNotDpcs) {
  MiniSystem sys;
  KEvent wake;
  sim::Cycles thread_ran_at = 0;
  sim::Cycles dpc_ran_at = 0;
  KDpc dpc([&] { dpc_ran_at = sys.kernel().GetCycleCount(); }, sim::DurationDist::Constant(5.0),
           Label{"T", "_d"});
  sys.kernel().PsCreateSystemThread("rt", 28, [&] {
    sys.kernel().Wait(&wake, [&] {
      thread_ran_at = sys.kernel().GetCycleCount();
      sys.kernel().ExitThread();
    });
  });
  const sim::Cycles lock_start = sim::UsToCycles(100.0);
  const double lock_us = 5000.0;
  sys.engine().ScheduleAt(lock_start, [&] { sys.kernel().LockDispatch(lock_us); });
  sys.engine().ScheduleAt(sim::UsToCycles(200.0), [&] {
    sys.kernel().KeInsertQueueDpc(&dpc);
    sys.kernel().KeSetEvent(&wake);
  });
  sys.RunForMs(20.0);
  ASSERT_NE(dpc_ran_at, 0u);
  ASSERT_NE(thread_ran_at, 0u);
  // The DPC ran immediately; the thread waited out the lockout.
  EXPECT_EQ(dpc_ran_at, sim::UsToCycles(200.0 + 1.0));
  EXPECT_GE(thread_ran_at, lock_start + sim::UsToCycles(lock_us));
  EXPECT_LE(thread_ran_at, lock_start + sim::UsToCycles(lock_us + 100.0));
}

TEST(DispatcherTest, OverlappingLockoutsExtendTheWindow) {
  MiniSystem sys;
  KEvent wake;
  sim::Cycles thread_ran_at = 0;
  sys.kernel().PsCreateSystemThread("rt", 28, [&] {
    sys.kernel().Wait(&wake, [&] {
      thread_ran_at = sys.kernel().GetCycleCount();
      sys.kernel().ExitThread();
    });
  });
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.kernel().LockDispatch(2000.0); });
  sys.engine().ScheduleAt(sim::UsToCycles(1000.0), [&] { sys.kernel().LockDispatch(4000.0); });
  sys.engine().ScheduleAt(sim::UsToCycles(500.0), [&] { sys.kernel().KeSetEvent(&wake); });
  sys.RunForMs(20.0);
  ASSERT_NE(thread_ran_at, 0u);
  EXPECT_GE(thread_ran_at, sim::UsToCycles(5000.0));
}

TEST(DispatcherTest, SectionSkippedWhenCpuAlreadyAtOrAboveIrql) {
  MiniSystem sys;
  bool outer_ran = false;
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    EXPECT_TRUE(sys.kernel().InjectKernelSection(Irql::kHigh, 200.0, Label{"T", "_outer"}));
    outer_ran = true;
  });
  // While the HIGH section runs, an equal-level injection must be refused.
  sys.engine().ScheduleAt(sim::UsToCycles(150.0), [&] {
    EXPECT_FALSE(sys.kernel().InjectKernelSection(Irql::kHigh, 200.0, Label{"T", "_inner"}));
  });
  sys.RunForUs(900.0);
  EXPECT_TRUE(outer_ran);
  EXPECT_EQ(sys.kernel().dispatcher().sections_skipped(), 1u);
}

TEST(DispatcherTest, SpuriousInterruptOnUnconnectedLineIsCounted) {
  MiniSystem sys;
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.pic().Assert(sys.line_a()); });
  sys.RunForUs(900.0);
  EXPECT_EQ(sys.kernel().dispatcher().spurious_interrupts(), 1u);
}

TEST(DispatcherTest, InterruptedLabelSeesWhatThePitInterrupted) {
  // Two DISPATCH-level activities spanning several PIT ticks: an injected
  // section, and a DPC whose body is the bottom frame beneath the clock ISR.
  for (const bool use_dpc : {false, true}) {
    SCOPED_TRACE(use_dpc ? "DPC" : "section");
    const Label target = use_dpc ? Label{"NDIS", "_ndisMDpcX"} : Label{"VMM", "_mmFindContig"};
    MiniSystem sys;
    KDpc dpc(nullptr, sim::DurationDist::Constant(2500.0), target);
    std::vector<Label> sampled;
    sys.kernel().clock_interrupt()->AddPreHook(
        [&] { sampled.push_back(sys.kernel().dispatcher().InterruptedLabel()); });
    sys.engine().ScheduleAt(sim::MsToCycles(1.5), [&] {
      if (use_dpc) {
        sys.kernel().KeInsertQueueDpc(&dpc);
      } else {
        sys.kernel().InjectKernelSection(Irql::kDispatch, 2500.0, target);
      }
    });
    sys.RunForMs(6.0);
    int hits = 0;
    for (const Label& label : sampled) {
      if (label == target) {
        ++hits;
      }
    }
    // Ticks at 2 ms and 3 ms land inside the section or DPC body.
    EXPECT_GE(hits, 2);
  }
}

TEST(DispatcherTest, SectionsNestAtEveryLevelFromApcToHigh) {
  // One section per IRQL from APC to HIGH, each injected 1 us after the one
  // below it, while that one is still running: 31 frames, the full stack.
  // All of it runs well before the first PIT tick at 1 ms.
  constexpr int kLevels = ToLevel(Irql::kHigh);
  constexpr double kStartUs = 100.0;
  constexpr double kLengthUs = 10.0;
  MiniSystem sys;
  TraceRing trace(256);
  sys.kernel().SetTraceSink(&trace);
  auto count = [&trace](TraceEventType type) {
    std::uint64_t n = 0;
    trace.ForEach([&](const TraceEvent& event) { n += event.type == type ? 1 : 0; });
    return n;
  };
  std::vector<std::string> names;
  for (int level = 0; level <= kLevels; ++level) {
    names.push_back("_level" + std::to_string(level));
  }
  for (int level = 1; level <= kLevels; ++level) {
    sys.engine().ScheduleAt(sim::UsToCycles(kStartUs + level - 1), [&sys, &names, level] {
      EXPECT_TRUE(sys.kernel().InjectKernelSection(static_cast<Irql>(level), kLengthUs,
                                                   Label{"T", names[level].c_str()}));
    });
  }
  // Half a microsecond after the HIGH section arrives, every frame is live.
  sys.RunForUs(kStartUs + kLevels - 0.5);
  EXPECT_EQ(sys.kernel().dispatcher().EffectiveIrql(), Irql::kHigh);
  ASSERT_LT(trace.size(), 256u);  // nothing overwritten yet
  EXPECT_EQ(count(TraceEventType::kSectionStart), static_cast<std::uint64_t>(kLevels));
  EXPECT_EQ(count(TraceEventType::kSectionEnd), 0u);
  std::vector<std::string> violations;
  sys.kernel().dispatcher().AuditDiscipline(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();

  sys.RunForUs(800.0);
  // LIFO: HIGH ends first after its full length; each level below it ran
  // 1 us before being preempted, so level k's wall time is (32 - k) lengths.
  std::vector<TraceEvent> ends;
  trace.ForEach([&ends](const TraceEvent& event) {
    if (event.type == TraceEventType::kSectionEnd) {
      ends.push_back(event);
    }
  });
  ASSERT_EQ(ends.size(), static_cast<std::size_t>(kLevels));
  for (int i = 0; i < kLevels; ++i) {
    const int level = kLevels - i;
    EXPECT_EQ(ends[i].label, (Label{"T", names[level].c_str()})) << "end " << i;
    EXPECT_EQ(ends[i].duration, sim::UsToCycles((i + 1) * kLengthUs)) << "level " << level;
  }
  EXPECT_TRUE(sys.kernel().dispatcher().idle());
  EXPECT_EQ(sys.kernel().dispatcher().EffectiveIrql(), Irql::kPassive);
  violations.clear();
  sys.kernel().dispatcher().AuditDiscipline(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(DispatcherTest, ContextSwitchCountsAreTracked) {
  MiniSystem sys;
  const std::uint64_t before = sys.kernel().dispatcher().context_switches();
  bool ran = false;
  sys.kernel().PsCreateSystemThread("t", 8, [&] {
    ran = true;
    sys.kernel().ExitThread();
  });
  sys.RunForMs(1.0);
  EXPECT_TRUE(ran);
  EXPECT_GT(sys.kernel().dispatcher().context_switches(), before);
}

TEST(DispatcherTest, PreemptedThreadResumesAndCompletesItsSegment) {
  MiniSystem sys;
  KEvent wake;
  sim::Cycles low_done = 0;
  sys.kernel().PsCreateSystemThread("high", 20, [&] {
    sys.kernel().Wait(&wake, [&] {
      sys.kernel().Compute(1000.0, [&] { sys.kernel().ExitThread(); });
    });
  });
  sys.kernel().PsCreateSystemThread("low", 8, [&] {
    sys.kernel().Compute(2000.0, [&] {
      low_done = sys.kernel().GetCycleCount();
      sys.kernel().ExitThread();
    });
  });
  sys.engine().ScheduleAt(sim::UsToCycles(500.0), [&] { sys.kernel().KeSetEvent(&wake); });
  sys.RunForMs(10.0);
  ASSERT_NE(low_done, 0u);
  // low needed 2000 us of CPU plus high's 1000 us plus switch costs; it must
  // finish with its full remaining budget intact (not truncated).
  EXPECT_GE(low_done, sim::UsToCycles(3000.0));
  EXPECT_LE(low_done, sim::UsToCycles(3300.0));
}

}  // namespace
}  // namespace wdmlat::kernel
