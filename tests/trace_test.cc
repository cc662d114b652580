// Tests for the ETW-style kernel event tracing.

#include "src/kernel/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

TEST(TraceTest, RecordsIsrEnterExitPairsWithDurations) {
  MiniSystem sys;
  TraceSession session;
  sys.kernel().dispatcher().set_trace_sink(&session);
  sys.kernel().IoConnectInterrupt(sys.line_a(), static_cast<Irql>(12), Label{"T", "_isr"},
                                  [] { return sim::UsToCycles(40.0); });
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.pic().Assert(sys.line_a()); });
  sys.RunForUs(900.0);
  EXPECT_EQ(session.count(TraceEventType::kIsrEnter), 1u);
  EXPECT_EQ(session.count(TraceEventType::kIsrExit), 1u);
  bool found = false;
  for (const TraceEvent& event : session.Snapshot()) {
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
  TraceSession session;
  sys.kernel().dispatcher().set_trace_sink(&session);
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    sys.kernel().InjectKernelSection(Irql::kDispatch, 200.0, Label{"VMM", "_mmFindContig"});
    sys.kernel().LockDispatch(500.0);
  });
  sys.RunForUs(900.0);
  EXPECT_EQ(session.count(TraceEventType::kSectionStart), 1u);
  EXPECT_EQ(session.count(TraceEventType::kSectionEnd), 1u);
  EXPECT_EQ(session.count(TraceEventType::kDispatchLockout), 1u);
  const std::string summary = session.Summary();
  EXPECT_NE(summary.find("VMM!_mmFindContig"), std::string::npos);
}

TEST(TraceTest, SectionEndDurationIncludesIsrPauses) {
  MiniSystem sys;  // 1 kHz clock: the PIT interrupts DISPATCH-level sections
  TraceSession session;
  sys.kernel().dispatcher().set_trace_sink(&session);
  sys.engine().ScheduleAt(sim::MsToCycles(1.5), [&] {
    sys.kernel().InjectKernelSection(Irql::kDispatch, 3000.0, Label{"T", "_long"});
  });
  sys.RunForMs(8.0);
  for (const TraceEvent& event : session.Snapshot()) {
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
  TraceSession session;
  sys.kernel().dispatcher().set_trace_sink(&session);
  KDpc dpc([] {}, sim::DurationDist::Constant(10.0), Label{"T", "_d"});
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.kernel().KeInsertQueueDpc(&dpc); });
  bool ran = false;
  sys.kernel().PsCreateSystemThread("traced", 10, [&] {
    ran = true;
    sys.kernel().ExitThread();
  });
  sys.RunForMs(2.0);
  EXPECT_TRUE(ran);
  EXPECT_EQ(session.count(TraceEventType::kDpcStart), session.count(TraceEventType::kDpcEnd));
  EXPECT_GE(session.count(TraceEventType::kDpcStart), 1u);
  EXPECT_GE(session.count(TraceEventType::kContextSwitch), 1u);
  EXPECT_GE(session.count(TraceEventType::kThreadReady), 1u);
}

TEST(TraceTest, RingWrapsKeepingNewestEvents) {
  TraceSession session(8);
  for (int i = 0; i < 20; ++i) {
    TraceEvent event;
    event.type = TraceEventType::kThreadReady;
    event.tsc = static_cast<sim::Cycles>(i);
    session.OnTraceEvent(event);
  }
  const auto events = session.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().tsc, 12u);
  EXPECT_EQ(events.back().tsc, 19u);
  EXPECT_EQ(session.total_events(), 20u);
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
    const std::vector<TraceEvent> snapshot = ring.Snapshot();
    ASSERT_EQ(snapshot.size(), visited.size());
    EXPECT_EQ(snapshot.front().tsc, visited.front());
    EXPECT_EQ(snapshot.back().tsc, visited.back());
  }
}

TEST(TraceTest, TopTimeConsumersAggregatesAndSorts) {
  TraceSession session;
  auto add = [&](const Label& label, double us) {
    TraceEvent event;
    event.type = TraceEventType::kSectionEnd;
    event.label = label;
    event.duration = sim::UsToCycles(us);
    session.OnTraceEvent(event);
  };
  add(Label{"A", "_a"}, 100.0);
  add(Label{"B", "_b"}, 500.0);
  add(Label{"A", "_a"}, 150.0);
  const auto top = session.TopTimeConsumers();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].label, (Label{"B", "_b"}));
  EXPECT_EQ(top[1].occurrences, 2u);
  EXPECT_EQ(top[1].total, sim::UsToCycles(250.0));
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
  TraceSession session;
  auto add = [&](const Label& label, double us) {
    TraceEvent event;
    event.type = TraceEventType::kIsrExit;
    event.label = label;
    event.duration = sim::UsToCycles(us);
    session.OnTraceEvent(event);
  };
  add(Label{kModuleA, kFunctionA}, 100.0);
  add(Label{"C", "_c"}, 500.0);
  add(Label{kModuleB, kFunctionB}, 150.0);
  add(Label{kModuleA, kFunctionA}, 50.0);
  const auto top = session.TopTimeConsumers();
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
