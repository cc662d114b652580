// Pool stress tests for the allocation-free event calendar: slot reuse
// between one-shots and timers, mass disarms that erase entries at every
// depth, and the determinism contract ((when, seq) order) under heavy churn.

#include "src/sim/event_pool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/engine.h"

namespace wdmlat::sim {
namespace {

TEST(EventPoolTest, StaleHandleAfterSlotReuseIsNoOp) {
  Engine engine;
  Timer first(engine, [] {});
  first.ArmAt(10);
  ASSERT_TRUE(engine.Step());  // fires `first`, which is now disarmed
  bool fired = false;
  engine.ScheduleAt(20, [&] { fired = true; });
  EXPECT_FALSE(first.armed());
  first.Disarm();  // a fired timer: must not touch the pending one-shot
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntilIdle();
  EXPECT_TRUE(fired);
}

TEST(EventPoolTest, ManyGenerationsOfSlotReuseStayIsolated) {
  Engine engine;
  std::vector<Timer> old_timers;
  for (int round = 0; round < 1000; ++round) {
    engine.ScheduleAfter(1, [] {});  // a one-shot takes and frees a slot
    ASSERT_TRUE(engine.Step());
    old_timers.emplace_back(engine, [] {});
    old_timers.back().ArmAfter(1);
    ASSERT_TRUE(engine.Step());
  }
  int fired = 0;
  Timer live(engine, [&] { ++fired; });
  live.ArmAfter(5);
  for (Timer& timer : old_timers) {
    EXPECT_FALSE(timer.armed());
    timer.Disarm();  // a thousand fired timers' disarms must not touch the live one
  }
  EXPECT_TRUE(live.armed());
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(EventPoolTest, MassCancelThenCompactionKeepsPendingExact) {
  Engine engine;
  std::vector<Timer> timers;
  constexpr int kEvents = 10000;
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    timers.emplace_back(engine, [&] { ++fired; });
    timers.back().ArmAt(static_cast<Cycles>(i + 1));
  }
  // Disarm three quarters: each disarm erases its entry, so the calendar
  // holds exactly the survivors.
  for (int i = 0; i < kEvents; ++i) {
    if (i % 4 != 3) {
      timers[i].Disarm();
    }
  }
  EXPECT_EQ(engine.events_pending(), kEvents / 4u);
  engine.ScheduleAt(kEvents + 1, [&] { ++fired; });
  EXPECT_EQ(engine.events_pending(), kEvents / 4u + 1);
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
  engine.RunUntilIdle();
  EXPECT_EQ(fired, kEvents / 4 + 1);
  EXPECT_EQ(engine.events_pending(), 0u);
}

TEST(EventPoolTest, CompactionPreservesFiringOrder) {
  Engine engine;
  std::vector<int> order;
  std::vector<Timer> doomed;
  // Interleave survivors and victims at identical and distinct times so the
  // erases have real (when, seq) ties to preserve.
  for (int i = 0; i < 500; ++i) {
    const Cycles when = static_cast<Cycles>(100 + (i % 7));
    engine.ScheduleAt(when, [&order, i] { order.push_back(i); });
    doomed.emplace_back(engine, [] { FAIL() << "disarmed timer fired"; });
    doomed.back().ArmAt(when);
    doomed.emplace_back(engine, [] { FAIL() << "disarmed timer fired"; });
    doomed.back().ArmAt(when + 1000);
  }
  for (Timer& timer : doomed) {
    timer.Disarm();
  }
  EXPECT_EQ(engine.events_pending(), 500u);
  engine.RunUntilIdle();
  ASSERT_EQ(order.size(), 500u);
  // Same-time events fire in insertion order; across times, earlier first.
  // With when = 100 + (i % 7), the expected order sorts by (i % 7, i).
  std::vector<int> expected;
  for (int rem = 0; rem < 7; ++rem) {
    for (int i = 0; i < 500; ++i) {
      if (i % 7 == rem) {
        expected.push_back(i);
      }
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(EventPoolTest, PoolGrowsBySlabAndReusesFreedSlots) {
  EventPool pool;
  std::vector<std::uint32_t> slots;
  for (std::uint32_t i = 0; i < EventPool::kSlabSize; ++i) {
    slots.push_back(pool.Allocate([] {}));
  }
  EXPECT_EQ(pool.capacity(), EventPool::kSlabSize);
  // One more forces a second slab.
  const std::uint32_t overflow = pool.Allocate([] {});
  EXPECT_EQ(pool.capacity(), 2 * EventPool::kSlabSize);
  std::vector<std::string> violations;
  EXPECT_EQ(pool.AuditConsistency(&violations), EventPool::kSlabSize + 1);
  EXPECT_TRUE(violations.empty()) << violations.front();
  // Freeing and re-allocating must reuse the freed slot, not grow.
  pool.Take(slots[7])();
  const std::uint32_t reused = pool.Allocate([] {});
  EXPECT_EQ(reused, slots[7]);
  EXPECT_EQ(pool.capacity(), 2 * EventPool::kSlabSize);
  (void)overflow;
  pool.ResetAll();
  EXPECT_EQ(pool.AuditConsistency(&violations), 0u);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(EventPoolTest, CancelHeavyChurnNeverLeaksPendingCount) {
  // Mirror the dispatcher's pause/resume pattern: every virtual instant
  // re-arms a completion, erasing the previous arming.
  Engine engine;
  std::uint64_t fired = 0;
  Timer completion(engine, [&] { ++fired; });
  for (int i = 0; i < 50000; ++i) {
    completion.ArmAfter(100);
    if (i % 3 == 0) {
      ASSERT_TRUE(engine.Step());
    }
  }
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntilIdle();
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_GT(fired, 0u);
}

}  // namespace
}  // namespace wdmlat::sim
