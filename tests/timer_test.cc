// sim::Timer: the engine's re-armable event. A timer must fire in exactly
// the order ScheduleAt would have given the same callable, because the
// dispatcher's completions and the periodic devices moved onto timers with
// every golden checksum unchanged. A timer may die before its engine, armed
// or not, or inside its own callable; it must not outlive its engine.

#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace wdmlat::sim {
namespace {

std::vector<std::string> Audit(const Engine& engine) {
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  return violations;
}

TEST(EngineTimerTest, SameTickTiesFireInArmingOrderLikeScheduleAt) {
  Engine engine;
  std::vector<std::string> order;
  Timer timer(engine, [&] { order.push_back("timer"); });
  engine.ScheduleAt(100, [&] { order.push_back("before"); });
  timer.ArmAt(100);
  engine.ScheduleAt(100, [&] { order.push_back("after"); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "timer", "after"}));
  EXPECT_EQ(engine.now(), 100u);
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(EngineTimerTest, ReArmingTakesANewSequenceNumberAndKillsTheOldEntry) {
  Engine engine;
  std::vector<std::string> order;
  Timer timer(engine, [&] { order.push_back("timer@" + std::to_string(engine.now())); });
  timer.ArmAt(100);
  engine.ScheduleAt(100, [&] { order.push_back("oneshot@100"); });
  // Re-armed at the same instant: it now ties after the one-shot, exactly as
  // a cancel + ScheduleAt would, and its first entry never fires.
  timer.ArmAt(100);
  EXPECT_EQ(engine.events_pending(), 2u);
  EXPECT_TRUE(Audit(engine).empty());
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"oneshot@100", "timer@100"}));

  // Re-armed earlier and later: only the latest arming fires.
  order.clear();
  timer.ArmAt(300);
  timer.ArmAt(200);
  timer.ArmAt(400);
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"timer@400"}));
  EXPECT_EQ(engine.events_processed(), 3u);
  EXPECT_TRUE(Audit(engine).empty());
}

TEST(EngineTimerTest, PastArmingClampsToNow) {
  Engine engine;
  engine.RunUntil(50);
  Cycles fired_at = 0;
  Timer timer(engine, [&] { fired_at = engine.now(); });
  timer.ArmAt(10);
  engine.RunUntilIdle();
  EXPECT_EQ(fired_at, 50u);
}

TEST(EngineTimerTest, DisarmIsIdempotent) {
  Engine engine;
  int fired = 0;
  Timer timer(engine, [&] { ++fired; });
  timer.Disarm();  // never armed
  EXPECT_FALSE(timer.armed());
  timer.ArmAfter(10);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(engine.events_pending(), 1u);
  timer.Disarm();
  timer.Disarm();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_TRUE(Audit(engine).empty());
  engine.RunUntilIdle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.events_processed(), 0u);
  Timer inert;
  inert.Disarm();
  EXPECT_FALSE(inert.armed());
}

TEST(EngineTimerTest, ReArmsItselfFromItsOwnCallback) {
  Engine engine;
  std::vector<Cycles> fired_at;
  Timer* self = nullptr;
  Timer timer(engine, [&] {
    EXPECT_FALSE(self->armed()) << "a firing timer is disarmed before its callable runs";
    fired_at.push_back(engine.now());
    if (fired_at.size() < 5) {
      self->ArmAfter(10);
    }
  });
  self = &timer;
  timer.ArmAfter(10);
  engine.RunUntilIdle();
  EXPECT_EQ(fired_at, (std::vector<Cycles>{10, 20, 30, 40, 50}));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_TRUE(Audit(engine).empty());
}

TEST(EngineTimerTest, MovedTimerKeepsItsSlotAndArming) {
  Engine engine;
  int fired = 0;
  Timer a(engine, [&] { ++fired; });
  a.ArmAt(10);
  Timer b(std::move(a));
  EXPECT_FALSE(a.armed());  // NOLINT(bugprone-use-after-move): moved-from is inert
  EXPECT_TRUE(b.armed());
  Timer c;
  c = std::move(b);
  engine.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  c.ArmAt(20);
  c = Timer(engine, [&] { fired += 100; });  // the replaced timer is freed, disarmed
  engine.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_TRUE(Audit(engine).empty());
}

TEST(EngineTimerTest, DestroyedBeforeItsEngineFreesItsSlot) {
  Engine engine;
  auto token = std::make_shared<int>(7);
  bool fired = false;
  {
    Timer timer(engine, [token, &fired] { fired = (*token == 7); });
    timer.ArmAfter(10);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(Audit(engine).empty());
  }
  // Destruction disarmed the timer and released its captured state.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_TRUE(Audit(engine).empty());
  engine.RunUntilIdle();
  EXPECT_FALSE(fired);
  // The slot went back to the free list: a one-shot reuses it.
  int ran = 0;
  engine.ScheduleAfter(5, [&] { ++ran; });
  EXPECT_TRUE(Audit(engine).empty());
  engine.RunUntilIdle();
  EXPECT_EQ(ran, 1);
}

TEST(EngineTimerTest, DestroyedByItsOwnCallableKeepsTheSlotUntilItReturns) {
  Engine engine;
  auto owner = std::make_unique<Timer>();
  int fired = 0;
  *owner = Timer(engine, [&] {
    ++fired;
    owner.reset();
    // The slot must not be reused while this callable is still running.
    engine.ScheduleAfter(1, [&] { fired += 10; });
    EXPECT_TRUE(Audit(engine).empty());
  });
  owner->ArmAfter(5);
  engine.RunUntilIdle();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(owner, nullptr);
  EXPECT_TRUE(Audit(engine).empty());
  // The freed slot is an ordinary free slot again.
  engine.ScheduleAfter(1, [&] { fired += 100; });
  engine.RunUntilIdle();
  EXPECT_EQ(fired, 111);
  EXPECT_TRUE(Audit(engine).empty());
}

TEST(EngineTimerTest, ResetDisarmsALiveTimerWhichThenFiresNormally) {
  Engine engine;
  std::vector<Cycles> fired_at;
  Timer timer(engine, [&] { fired_at.push_back(engine.now()); });
  Timer idle(engine, [&] { fired_at.push_back(1000 + engine.now()); });
  timer.ArmAt(100);
  engine.ScheduleAt(50, [] {});
  engine.RunUntil(60);
  engine.Reset();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_EQ(engine.events_pending(), 0u);
  EXPECT_TRUE(Audit(engine).empty());
  // Many one-shots after the reset never land in the timers' slots.
  for (int i = 0; i < 300; ++i) {
    engine.ScheduleAt(1000 + i, [] {});
  }
  timer.ArmAt(5);
  engine.RunUntilIdle();
  EXPECT_EQ(fired_at, (std::vector<Cycles>{5}));
  idle.ArmAt(engine.now() + 1);
  engine.RunUntilIdle();
  EXPECT_EQ(fired_at.back(), 1000 + 1300u);
  EXPECT_TRUE(Audit(engine).empty());
}

}  // namespace
}  // namespace wdmlat::sim
