// Pool stress tests for the allocation-free event calendar: slot reuse,
// stale-handle safety, mass-cancel compaction, and the determinism contract
// ((when, seq) order) under heavy churn.

#include "src/sim/event_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/engine.h"

namespace wdmlat::sim {
namespace {

TEST(EventPoolTest, StaleHandleAfterSlotReuseIsNoOp) {
  Engine engine;
  EventHandle first = engine.ScheduleAt(10, [] {});
  ASSERT_TRUE(engine.Step());  // fires `first`, freeing its slot
  bool fired = false;
  // The freed slot is recycled for the next event (LIFO free list).
  EventHandle second = engine.ScheduleAt(20, [&] { fired = true; });
  EXPECT_FALSE(first.pending());
  first.Cancel();  // stale generation: must not cancel `second`
  EXPECT_TRUE(second.pending());
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntilIdle();
  EXPECT_TRUE(fired);
}

TEST(EventPoolTest, ManyGenerationsOfSlotReuseStayIsolated) {
  Engine engine;
  std::vector<EventHandle> old_handles;
  for (int round = 0; round < 1000; ++round) {
    old_handles.push_back(engine.ScheduleAfter(1, [] {}));
    ASSERT_TRUE(engine.Step());
  }
  int fired = 0;
  EventHandle live = engine.ScheduleAfter(5, [&] { ++fired; });
  for (EventHandle& handle : old_handles) {
    EXPECT_FALSE(handle.pending());
    handle.Cancel();  // a thousand stale cancels must not touch the live event
  }
  EXPECT_TRUE(live.pending());
  EXPECT_EQ(engine.events_pending(), 1u);
  engine.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(EventPoolTest, MassCancelThenCompactionKeepsPendingExact) {
  Engine engine;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 10000;
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(engine.ScheduleAt(static_cast<Cycles>(i + 1), [&] { ++fired; }));
  }
  // Cancel three quarters: stale entries now outnumber half the calendar,
  // so the next schedule/pop triggers a compaction.
  for (int i = 0; i < kEvents; ++i) {
    if (i % 4 != 3) {
      handles[i].Cancel();
    }
  }
  EXPECT_EQ(engine.events_pending(), kEvents / 4u);
  // Schedule one more to run the compaction check; count must stay exact.
  EventHandle extra = engine.ScheduleAt(kEvents + 1, [&] { ++fired; });
  EXPECT_EQ(engine.events_pending(), kEvents / 4u + 1);
  EXPECT_GE(engine.compactions(), 1u);
  EXPECT_EQ(engine.stale_entries(), 0u);  // compaction removed all dead entries
  engine.RunUntilIdle();
  EXPECT_EQ(fired, kEvents / 4 + 1);
  EXPECT_EQ(engine.events_pending(), 0u);
  (void)extra;
}

TEST(EventPoolTest, CompactionPreservesFiringOrder) {
  Engine engine;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  // Interleave survivors and victims at identical and distinct times so the
  // compaction has real (when, seq) ties to preserve.
  for (int i = 0; i < 500; ++i) {
    const Cycles when = static_cast<Cycles>(100 + (i % 7));
    engine.ScheduleAt(when, [&order, i] { order.push_back(i); });
    doomed.push_back(engine.ScheduleAt(when, [] { FAIL() << "cancelled event fired"; }));
    doomed.push_back(engine.ScheduleAt(when + 1000, [] { FAIL() << "cancelled event fired"; }));
  }
  for (EventHandle& handle : doomed) {
    handle.Cancel();
  }
  engine.ScheduleAt(1, [] {});  // trigger the compaction check
  EXPECT_GE(engine.compactions(), 1u);
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

TEST(EventPoolTest, CancelBelowCompactionFloorStaysLazy) {
  Engine engine;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(engine.ScheduleAt(static_cast<Cycles>(i + 1), [] {}));
  }
  for (EventHandle& handle : handles) {
    handle.Cancel();
  }
  // Too small for compaction: the dead entries wait for the lazy pop purge.
  EXPECT_EQ(engine.compactions(), 0u);
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_FALSE(engine.Step());
  EXPECT_EQ(engine.stale_entries(), 0u);
}

TEST(EventPoolTest, PoolGrowsBySlabAndReusesFreedSlots) {
  EventPool* pool = new EventPool;
  std::vector<std::uint32_t> slots;
  for (std::uint32_t i = 0; i < EventPool::kSlabSize; ++i) {
    slots.push_back(pool->Allocate([] {}));
  }
  EXPECT_EQ(pool->capacity(), EventPool::kSlabSize);
  // One more forces a second slab.
  const std::uint32_t overflow = pool->Allocate([] {});
  EXPECT_EQ(pool->capacity(), 2 * EventPool::kSlabSize);
  EXPECT_EQ(pool->live(), EventPool::kSlabSize + 1);
  // Freeing and re-allocating must reuse the freed slot, not grow.
  pool->Take(slots[7])();
  const std::uint32_t reused = pool->Allocate([] {});
  EXPECT_EQ(reused, slots[7]);
  EXPECT_EQ(pool->capacity(), 2 * EventPool::kSlabSize);
  (void)overflow;
  pool->Shutdown();
  EXPECT_EQ(pool->live(), 0u);
  pool->Release();
}

TEST(EventPoolTest, HandleKeepsPoolAliveAfterEngineDestruction) {
  EventHandle pending_handle;
  EventHandle fired_handle;
  auto token = std::make_shared<int>(7);
  {
    Engine engine;
    fired_handle = engine.ScheduleAt(1, [] {});
    pending_handle = engine.ScheduleAt(10, [token] { (void)*token; });
    ASSERT_TRUE(engine.Step());
  }
  // Engine shutdown released the un-fired callback's captured state...
  EXPECT_EQ(token.use_count(), 1);
  // ...and both handles are inert but safe to poke.
  EXPECT_FALSE(pending_handle.pending());
  EXPECT_FALSE(fired_handle.pending());
  pending_handle.Cancel();
  fired_handle.Cancel();
  EventHandle copy = pending_handle;  // refcount exercises the dead pool
  EXPECT_FALSE(copy.pending());
}

TEST(EventPoolTest, HandleCopiesShareTheSameEvent) {
  Engine engine;
  bool fired = false;
  EventHandle a = engine.ScheduleAt(10, [&] { fired = true; });
  EventHandle b = a;
  EventHandle c;
  c = b;
  EXPECT_TRUE(a.pending() && b.pending() && c.pending());
  c.Cancel();
  EXPECT_FALSE(a.pending() || b.pending() || c.pending());
  engine.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EventPoolTest, CancelHeavyChurnNeverLeaksPendingCount) {
  // Mirror the dispatcher's pause/resume pattern: every virtual instant
  // schedules a completion and cancels the previous one.
  Engine engine;
  EventHandle completion;
  std::uint64_t fired = 0;
  for (int i = 0; i < 50000; ++i) {
    completion.Cancel();
    completion = engine.ScheduleAfter(100, [&] { ++fired; });
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
