#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace wdmlat::sim {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.events_pending(), 0u);
}

TEST(EngineTest, ExecutesEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(300, [&] { order.push_back(3); });
  engine.ScheduleAt(100, [&] { order.push_back(1); });
  engine.ScheduleAt(200, [&] { order.push_back(2); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 300u);
}

TEST(EngineTest, SameTimeEventsFireInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(500, [&order, i] { order.push_back(i); });
  }
  engine.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EngineTest, ScheduleAfterIsRelativeToNow) {
  Engine engine;
  Cycles fired_at = 0;
  engine.ScheduleAt(1000, [&] {
    engine.ScheduleAfter(500, [&] { fired_at = engine.now(); });
  });
  engine.RunUntilIdle();
  EXPECT_EQ(fired_at, 1500u);
}

TEST(EngineTest, PastTimesClampToNow) {
  Engine engine;
  Cycles fired_at = 0;
  engine.ScheduleAt(1000, [&] {
    engine.ScheduleAt(10, [&] { fired_at = engine.now(); });
  });
  engine.RunUntilIdle();
  EXPECT_EQ(fired_at, 1000u);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  EventHandle handle = engine.ScheduleAt(100, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  engine.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, CancelAfterFireIsNoOp) {
  Engine engine;
  bool fired = false;
  EventHandle handle = engine.ScheduleAt(100, [&] { fired = true; });
  engine.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // must not crash or change anything
}

TEST(EngineTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.Cancel();
}

TEST(EngineTest, CancelInsideEarlierEvent) {
  Engine engine;
  bool fired = false;
  EventHandle later = engine.ScheduleAt(200, [&] { fired = true; });
  engine.ScheduleAt(100, [&] { later.Cancel(); });
  engine.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, RunUntilAdvancesToDeadlineWithoutEvents) {
  Engine engine;
  engine.RunUntil(12345);
  EXPECT_EQ(engine.now(), 12345u);
}

TEST(EngineTest, RunUntilDoesNotExecuteLaterEvents) {
  Engine engine;
  bool early = false;
  bool late = false;
  engine.ScheduleAt(100, [&] { early = true; });
  engine.ScheduleAt(1000, [&] { late = true; });
  engine.RunUntil(500);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(engine.now(), 500u);
  engine.RunUntil(1000);
  EXPECT_TRUE(late);
}

TEST(EngineTest, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.Step());
  engine.ScheduleAt(5, [] {});
  EXPECT_TRUE(engine.Step());
  EXPECT_FALSE(engine.Step());
}

TEST(EngineTest, RequestStopAbortsRun) {
  Engine engine;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.ScheduleAt(i * 100, [&] {
      ++count;
      if (count == 3) {
        engine.RequestStop();
      }
    });
  }
  engine.RunUntilIdle();
  EXPECT_EQ(count, 3);
  engine.RunUntilIdle();
  EXPECT_EQ(count, 10);
}

TEST(EngineTest, EventsProcessedCountsOnlyFired) {
  Engine engine;
  engine.ScheduleAt(1, [] {});
  EventHandle cancelled = engine.ScheduleAt(2, [] {});
  cancelled.Cancel();
  engine.ScheduleAt(3, [] {});
  engine.RunUntilIdle();
  EXPECT_EQ(engine.events_processed(), 2u);
}

TEST(EngineTest, EventsPendingExcludesCancelled) {
  Engine engine;
  EventHandle first = engine.ScheduleAt(10, [] {});
  EventHandle second = engine.ScheduleAt(20, [] {});
  engine.ScheduleAt(30, [] {});
  EXPECT_EQ(engine.events_pending(), 3u);
  first.Cancel();
  EXPECT_EQ(engine.events_pending(), 2u);
  first.Cancel();  // double cancel must not decrement twice
  EXPECT_EQ(engine.events_pending(), 2u);
  engine.RunUntilIdle();
  EXPECT_EQ(engine.events_pending(), 0u);
  second.Cancel();  // cancel after fire must not underflow the count
  EXPECT_EQ(engine.events_pending(), 0u);
}

TEST(EngineTest, EventsPendingTracksFiringStepByStep) {
  Engine engine;
  engine.ScheduleAt(1, [] {});
  engine.ScheduleAt(2, [] {});
  EXPECT_EQ(engine.events_pending(), 2u);
  EXPECT_TRUE(engine.Step());
  EXPECT_EQ(engine.events_pending(), 1u);
  EXPECT_TRUE(engine.Step());
  EXPECT_EQ(engine.events_pending(), 0u);
}

TEST(EngineTest, CancelledRecordsArePurgedOnPop) {
  // A sea of cancelled events ahead of one live event: the calendar must
  // report only the live one, skip the cancelled records without firing
  // them, and end up empty.
  Engine engine;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(engine.ScheduleAt(static_cast<Cycles>(i), [] { FAIL(); }));
  }
  bool fired = false;
  engine.ScheduleAt(1000, [&] { fired = true; });
  for (EventHandle& handle : handles) {
    handle.Cancel();
  }
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntil(500);  // pops cancelled records without reaching the live event
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_EQ(engine.events_processed(), 1u);
}

TEST(EngineTest, CancelViaHandleOutlivingEngineIsSafe) {
  EventHandle handle;
  {
    Engine engine;
    handle = engine.ScheduleAt(10, [] {});
  }
  handle.Cancel();  // engine gone; must not crash or touch freed memory
  EXPECT_FALSE(handle.pending());
}

TEST(EngineTest, NestedSchedulingFromCallbacks) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      engine.ScheduleAfter(10, recurse);
    }
  };
  engine.ScheduleAt(0, recurse);
  engine.RunUntilIdle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(engine.now(), 990u);
}

TEST(EngineTest, TimeIsMonotonicAcrossManyEvents) {
  Engine engine;
  Cycles last = 0;
  bool monotonic = true;
  for (int i = 0; i < 1000; ++i) {
    engine.ScheduleAt(static_cast<Cycles>((i * 7919) % 10000), [&] {
      if (engine.now() < last) {
        monotonic = false;
      }
      last = engine.now();
    });
  }
  engine.RunUntilIdle();
  EXPECT_TRUE(monotonic);
}

}  // namespace
}  // namespace wdmlat::sim
