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
  Timer timer(engine, [&] { fired = true; });
  timer.ArmAt(100);
  EXPECT_TRUE(timer.armed());
  timer.Disarm();
  EXPECT_FALSE(timer.armed());
  engine.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, CancelAfterFireIsNoOp) {
  Engine engine;
  bool fired = false;
  Timer timer(engine, [&] { fired = true; });
  timer.ArmAt(100);
  engine.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(timer.armed());
  timer.Disarm();  // must not crash or change anything
  EXPECT_EQ(engine.events_pending(), 0u);
}

TEST(EngineTest, DefaultHandleIsInert) {
  Timer timer;
  EXPECT_FALSE(timer.armed());
  timer.Disarm();
}

TEST(EngineTest, CancelInsideEarlierEvent) {
  Engine engine;
  bool fired = false;
  Timer later(engine, [&] { fired = true; });
  later.ArmAt(200);
  engine.ScheduleAt(100, [&] { later.Disarm(); });
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
  Timer cancelled(engine, [] {});
  cancelled.ArmAt(2);
  cancelled.Disarm();
  engine.ScheduleAt(3, [] {});
  engine.RunUntilIdle();
  EXPECT_EQ(engine.events_processed(), 2u);
}

TEST(EngineTest, EventsPendingExcludesCancelled) {
  Engine engine;
  Timer first(engine, [] {});
  Timer second(engine, [] {});
  first.ArmAt(10);
  second.ArmAt(20);
  engine.ScheduleAt(30, [] {});
  EXPECT_EQ(engine.events_pending(), 3u);
  first.Disarm();
  EXPECT_EQ(engine.events_pending(), 2u);
  first.Disarm();  // double disarm must not erase twice
  EXPECT_EQ(engine.events_pending(), 2u);
  engine.RunUntilIdle();
  EXPECT_EQ(engine.events_pending(), 0u);
  second.Disarm();  // disarm after fire must not underflow the count
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
  // A sea of disarmed timers ahead of one live event: the calendar must
  // hold only the live one, never fire the disarmed timers, and end up
  // empty.
  Engine engine;
  std::vector<Timer> timers;
  for (int i = 0; i < 100; ++i) {
    timers.emplace_back(engine, [] { FAIL(); });
    timers.back().ArmAt(static_cast<Cycles>(i));
  }
  bool fired = false;
  engine.ScheduleAt(1000, [&] { fired = true; });
  for (Timer& timer : timers) {
    timer.Disarm();
  }
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntil(500);  // nothing is due before the live event
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_EQ(engine.events_processed(), 1u);
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
