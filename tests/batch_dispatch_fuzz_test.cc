// Reentrancy fuzz for the engine's dispatch loop.
//
// A callback runs while the dispatch loop that popped it is still going, so
// it may arm timers in the calendar, disarm entries in it, and re-enter the
// loop. This storm hammers exactly that window: callbacks arm new events
// (including same-instant ones that must fire after the current event's
// peers), disarm other pending events, and re-enter Step() and RunUntil()
// recursively. Corruption would show as a double fire, a lost fire, a fire
// after disarm, time running backwards, or a calendar audit violation — all
// of which are asserted exactly.
//
// Runs under TSan via ci/tsan.sh: the engine is single-threaded by design,
// so the value there is the instrumented rebuild plus the reentrancy churn,
// not cross-thread interleaving.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/invariant_auditor.h"
#include "src/sim/rng.h"

namespace wdmlat::sim {
namespace {

// Delay scales of the storm, in cycles at the simulated 300 MHz: kShort is
// 2^16 cycles (about 218 us) and kLong is 512 kShort (about 112 ms).
constexpr Cycles kShort = Cycles{1} << 16;
constexpr Cycles kLong = 512 * kShort;

// The storm's state. Every event is a timer armed once, so a callback can
// disarm any pending peer; its callable carries only {storm, id}.
struct Storm {
  static constexpr int kBudget = 60000;  // total events the storm may schedule

  explicit Storm(std::uint64_t seed) : rng(seed) {
    timers.reserve(kBudget);
    fire_count.reserve(kBudget);
    expect_fire.reserve(kBudget);
  }

  // Plant one more event, if the budget allows.
  void Plant() {
    if (scheduled >= kBudget) {
      return;
    }
    const int id = scheduled++;
    Cycles delay;
    switch (rng.UniformInt(0, 5)) {
      case 0:
        delay = 0;  // same instant: fires after every peer already scheduled for it
        break;
      case 1:
        delay = rng.UniformInt(1, 64);  // same or next tick
        break;
      case 2:
      case 3:
        delay = rng.UniformInt(1, kShort - 1);
        break;
      case 4:
        delay = rng.UniformInt(kShort, kLong - 1);
        break;
      default:
        delay = rng.UniformInt(kLong, 3 * kLong);  // far future
        break;
    }
    fire_count.push_back(0);
    expect_fire.push_back(true);
    timers.emplace_back(engine, [this, id] { OnFire(id); });
    timers.back().ArmAfter(delay);
  }

  // Every event's callback rolls the dice a few times and mutates the
  // calendar mid-dispatch.
  void OnFire(int id) {
    if (engine.now() < last_fire_now) {
      ++backwards_time;
    }
    last_fire_now = engine.now();
    ++fire_count[static_cast<std::size_t>(id)];
    // Mid-dispatch mutations: more events (often at this very instant)...
    const std::uint64_t fanout = rng.UniformInt(0, 2);
    for (std::uint64_t i = 0; i < fanout; ++i) {
      Plant();
    }
    // ...disarms of arbitrary pending events...
    if (rng.Bernoulli(0.3) && !timers.empty()) {
      const std::size_t victim = rng.UniformInt(0, timers.size() - 1);
      if (timers[victim].armed()) {
        expect_fire[victim] = false;
      }
      timers[victim].Disarm();
    }
    // ...and bounded re-entry into the dispatch loop itself.
    if (reentry_depth < 3 && rng.Bernoulli(0.15)) {
      ++reentry_depth;
      if (rng.Bernoulli(0.5)) {
        engine.Step();
      } else {
        engine.RunUntil(engine.now() + rng.UniformInt(1, 2 * kShort));
      }
      --reentry_depth;
    }
  }

  Engine engine;
  Rng rng;
  std::vector<Timer> timers;  // destroyed before `engine`
  std::vector<int> fire_count;
  std::vector<bool> expect_fire;
  int scheduled = 0;
  int reentry_depth = 0;
  std::uint64_t backwards_time = 0;  // fires observed with now() < a prior fire
  Cycles last_fire_now = 0;
};

class BatchDispatchFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchDispatchFuzzTest, ReentrantCallbackStormNeverCorruptsTheRing) {
  Storm storm(GetParam());
  Engine& engine = storm.engine;
  Rng& rng = storm.rng;
  InvariantAuditor auditor(engine);

  // Seed the storm, then drive it with a mix of top-level Step and sliced
  // RunUntil calls (the production shape), auditing as we go. Disarms make
  // the in-callback branching process subcritical, so the driver replants
  // whenever the storm thins out, until the budget is spent and drained.
  int audits = 0;
  while (storm.scheduled < Storm::kBudget || engine.events_pending() > 0) {
    while (storm.scheduled < Storm::kBudget && engine.events_pending() < 128) {
      storm.Plant();
    }
    if (rng.Bernoulli(0.25)) {
      engine.Step();
    } else {
      engine.RunUntil(engine.now() + rng.UniformInt(1, 4 * kShort));
    }
    if (++audits % 64 == 0) {
      const AuditReport report = auditor.Audit();
      ASSERT_TRUE(report.ok()) << report.Render();
    }
  }

  // Exact conservation: every event fired exactly once unless it was
  // disarmed while pending, in which case it never fired at all.
  ASSERT_EQ(storm.scheduled, Storm::kBudget);
  std::uint64_t fired = 0;
  for (int id = 0; id < storm.scheduled; ++id) {
    const std::size_t index = static_cast<std::size_t>(id);
    EXPECT_EQ(storm.fire_count[index], storm.expect_fire[index] ? 1 : 0)
        << "event " << id << (storm.fire_count[index] > 1 ? " double-fired" : " mis-fired");
    fired += static_cast<std::uint64_t>(storm.fire_count[index]);
  }
  EXPECT_EQ(storm.backwards_time, 0u) << "virtual time ran backwards during dispatch";
  EXPECT_GT(fired, static_cast<std::uint64_t>(Storm::kBudget) / 2);  // disarms are ~30%
  EXPECT_EQ(engine.events_pending(), 0u);
  const AuditReport final_report = auditor.Audit();
  EXPECT_TRUE(final_report.ok()) << final_report.Render();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDispatchFuzzTest,
                         ::testing::Values(7u, 1999u, 0xBADC0DEull, 31337u));

}  // namespace
}  // namespace wdmlat::sim
