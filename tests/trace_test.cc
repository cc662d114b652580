// Tests for the ETW-style kernel event tracing.

#include "src/kernel/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

std::uint64_t Count(const TraceRing& ring, TraceEventType type) {
  std::uint64_t n = 0;
  ring.ForEach([&](const TraceEvent& event) { n += event.type == type ? 1 : 0; });
  return n;
}

std::vector<TraceEvent> Events(const TraceRing& ring) {
  std::vector<TraceEvent> events;
  ring.ForEach([&](const TraceEvent& event) { events.push_back(event); });
  return events;
}

TEST(TraceTest, RecordsIsrEnterExitPairsWithDurations) {
  MiniSystem sys;
  TraceRing ring;
  sys.kernel().dispatcher().set_trace_sink(&ring);
  sys.kernel().IoConnectInterrupt(sys.line_a(), static_cast<Irql>(12), Label{"T", "_isr"},
                                  [] { return sim::UsToCycles(40.0); });
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.pic().Assert(sys.line_a()); });
  sys.RunForUs(900.0);
  EXPECT_EQ(Count(ring, TraceEventType::kIsrEnter), 1u);
  EXPECT_EQ(Count(ring, TraceEventType::kIsrExit), 1u);
  bool found = false;
  for (const TraceEvent& event : Events(ring)) {
    if (event.type == TraceEventType::kIsrExit && event.label == Label{"T", "_isr"}) {
      found = true;
      EXPECT_EQ(event.arg, sys.line_a());
      EXPECT_EQ(event.duration, sim::UsToCycles(40.0));
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceTest, RecordsSectionsAndLockouts) {
  MiniSystem sys;
  TraceRing ring;
  sys.kernel().dispatcher().set_trace_sink(&ring);
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    sys.kernel().InjectKernelSection(Irql::kDispatch, 200.0, Label{"VMM", "_mmFindContig"});
    sys.kernel().LockDispatch(500.0);
  });
  sys.RunForUs(900.0);
  EXPECT_EQ(Count(ring, TraceEventType::kSectionStart), 1u);
  EXPECT_EQ(Count(ring, TraceEventType::kSectionEnd), 1u);
  EXPECT_EQ(Count(ring, TraceEventType::kDispatchLockout), 1u);
  // The section and the lockout it took both carry blame, under the
  // section's label.
  const std::vector<LabelTime> top = TopBlame(ring, 0, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].label, (Label{"VMM", "_mmFindContig"}));
  EXPECT_EQ(top[0].occurrences, 2u);
  EXPECT_GE(top[0].total, sim::UsToCycles(700.0));
}

TEST(TraceTest, SectionEndDurationIncludesIsrPauses) {
  MiniSystem sys;  // 1 kHz clock: the PIT interrupts DISPATCH-level sections
  TraceRing ring;
  sys.kernel().dispatcher().set_trace_sink(&ring);
  sys.engine().ScheduleAt(sim::MsToCycles(1.5), [&] {
    sys.kernel().InjectKernelSection(Irql::kDispatch, 3000.0, Label{"T", "_long"});
  });
  sys.RunForMs(8.0);
  for (const TraceEvent& event : Events(ring)) {
    if (event.type == TraceEventType::kSectionEnd && event.label == Label{"T", "_long"}) {
      // Wall duration exceeds the 3000 us CPU time: clock ISRs paused it.
      EXPECT_GT(event.duration, sim::UsToCycles(3000.0));
      EXPECT_LT(event.duration, sim::UsToCycles(3200.0));
      return;
    }
  }
  FAIL() << "section-end event not found";
}

TEST(TraceTest, CountsDpcsAndContextSwitches) {
  MiniSystem sys;
  TraceRing ring;
  sys.kernel().dispatcher().set_trace_sink(&ring);
  KDpc dpc([] {}, sim::DurationDist::Constant(10.0), Label{"T", "_d"});
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.kernel().KeInsertQueueDpc(&dpc); });
  bool ran = false;
  sys.kernel().PsCreateSystemThread("traced", 10, [&] {
    ran = true;
    sys.kernel().ExitThread();
  });
  sys.RunForMs(2.0);
  EXPECT_TRUE(ran);
  // 2 ms of a quiet system fits in the ring: nothing has been overwritten.
  ASSERT_LT(ring.size(), 4096u);
  EXPECT_EQ(Count(ring, TraceEventType::kDpcStart), Count(ring, TraceEventType::kDpcEnd));
  EXPECT_GE(Count(ring, TraceEventType::kDpcStart), 1u);
  EXPECT_GE(Count(ring, TraceEventType::kContextSwitch), 1u);
  EXPECT_GE(Count(ring, TraceEventType::kThreadReady), 1u);
}

TEST(TraceTest, RingWrapsKeepingNewestEvents) {
  TraceRing ring(8);
  for (int i = 0; i < 20; ++i) {
    TraceEvent event;
    event.type = TraceEventType::kThreadReady;
    event.tsc = static_cast<sim::Cycles>(i);
    ring.OnTraceEvent(event);
  }
  const auto events = Events(ring);
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().tsc, 12u);
  EXPECT_EQ(events.back().tsc, 19u);
}

// The bare ring the flight recorder reads: ForEach visits oldest first
// before the ring fills, exactly when it fills and after it wraps.
TEST(TraceTest, BareRingVisitsOldestFirst) {
  TraceRing ring(8);
  sim::Cycles pushed = 0;
  for (const sim::Cycles total : {3u, 8u, 20u}) {
    for (; pushed < total; ++pushed) {
      TraceEvent event;
      event.tsc = pushed;
      ring.OnTraceEvent(event);
    }
    SCOPED_TRACE(total);
    ASSERT_EQ(ring.size(), std::min<std::size_t>(total, 8));
    std::vector<sim::Cycles> visited;
    ring.ForEach([&visited](const TraceEvent& event) { visited.push_back(event.tsc); });
    ASSERT_EQ(visited.size(), ring.size());
    for (std::size_t i = 0; i < visited.size(); ++i) {
      EXPECT_EQ(visited[i], total - visited.size() + i);
    }
  }
}

// TopBlame: exits and lockouts with a duration carry blame, bookkeeping
// events and zero durations do not; ties go to the label seen first.
TEST(TraceTest, TopTimeConsumersAggregatesAndSorts) {
  TraceRing ring;
  auto add = [&](TraceEventType type, const Label& label, double us, sim::Cycles tsc = 0) {
    TraceEvent event;
    event.type = type;
    event.tsc = tsc;
    event.label = label;
    event.duration = sim::UsToCycles(us);
    ring.OnTraceEvent(event);
  };
  add(TraceEventType::kSectionEnd, Label{"A", "_a"}, 100.0);
  add(TraceEventType::kDpcEnd, Label{"B", "_b"}, 500.0);
  add(TraceEventType::kSectionEnd, Label{"A", "_a"}, 150.0);
  add(TraceEventType::kContextSwitch, Label{"X", "_x"}, 900.0);
  add(TraceEventType::kIsrExit, Label{"Z", "_z"}, 0.0);
  add(TraceEventType::kDispatchLockout, Label{"L", "_l"}, 250.0);
  const auto top = TopBlame(ring, 0, 10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].label, (Label{"B", "_b"}));
  // A and L tie at 250 us; A appeared first.
  EXPECT_EQ(top[1].label, (Label{"A", "_a"}));
  EXPECT_EQ(top[1].occurrences, 2u);
  EXPECT_EQ(top[1].total, sim::UsToCycles(250.0));
  EXPECT_EQ(top[2].label, (Label{"L", "_l"}));
  ASSERT_EQ(TopBlame(ring, 0, 1).size(), 1u);
  EXPECT_EQ(TopBlame(ring, 0, 1)[0].label, (Label{"B", "_b"}));
  // `since` drops events stamped before it.
  add(TraceEventType::kIsrExit, Label{"N", "_n"}, 10.0, 5);
  const auto late = TopBlame(ring, 5, 10);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].label, (Label{"N", "_n"}));
}

// Same text at different addresses, as when two translation units spell the
// same label: named arrays are distinct objects, unlike merged literals.
constexpr char kModuleA[] = "MOD";
constexpr char kModuleB[] = "MOD";
constexpr char kFunctionA[] = "_f";
constexpr char kFunctionB[] = "_f";

TEST(TraceTest, LabelsCompareByContentAcrossAddresses) {
  const Label a{kModuleA, kFunctionA};
  const Label b{kModuleB, kFunctionB};
  ASSERT_NE(static_cast<const void*>(a.module), static_cast<const void*>(b.module));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(SameAddress(a, b));
  EXPECT_TRUE(SameAddress(a, a));
  EXPECT_FALSE((a == Label{kModuleA, "_g"}));
  EXPECT_FALSE((a == Label{"MOE", kFunctionA}));
}

TEST(TraceTest, TopTimeConsumersFoldsSameTextAtDifferentAddresses) {
  TraceRing ring;
  auto add = [&](const Label& label, double us) {
    TraceEvent event;
    event.type = TraceEventType::kIsrExit;
    event.label = label;
    event.duration = sim::UsToCycles(us);
    ring.OnTraceEvent(event);
  };
  add(Label{kModuleA, kFunctionA}, 100.0);
  add(Label{"C", "_c"}, 500.0);
  add(Label{kModuleB, kFunctionB}, 150.0);
  add(Label{kModuleA, kFunctionA}, 50.0);
  const auto top = TopBlame(ring, 0, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].label, (Label{"C", "_c"}));
  // One entry for "MOD!_f", labelled with the first address seen.
  EXPECT_EQ(top[1].label.module, kModuleA);
  EXPECT_EQ(top[1].occurrences, 3u);
  EXPECT_EQ(top[1].total, sim::UsToCycles(300.0));
}

TEST(TraceTest, NoSinkMeansNoCost) {
  // Smoke: nothing crashes and the system behaves identically without a
  // sink (the default).
  MiniSystem sys;
  sys.RunForMs(10.0);
  SUCCEED();
}

}  // namespace
}  // namespace wdmlat::kernel
