// Differential model check of the event calendar.
//
// sim::Engine keeps its calendar as one vector sorted in reverse fire order
// with lazily dropped cancelled entries and bulk compaction; this test pins
// its observable behavior to a reference model so trivially simple it is
// obviously correct: a flat vector scanned for the minimum (when, seq) on
// every pop. Both sides are driven through ~1M randomized schedule / cancel
// / timer arm / timer disarm / fire / advance ops per seed and must agree on
// the complete fire order (including equal-tick FIFO ties), on now(), and on
// the pending count after every op. The op mix covers same-instant ties,
// zero delays, cancel-then-reschedule of the same pool slot, short and long
// delays, delays astride a fixed boundary, and multi-boundary delays that
// stay pending while many nearer events fire past them. A few sim::Timers
// are armed, re-armed and disarmed among the one-shots; in the reference a
// timer is plain cancel + schedule of its id, which is the fire order a
// timer must reproduce.
//
// On divergence the failing op sequence is shrunk (ddmin-style chunk
// removal) before reporting, so a regression presents as a few ops, not a
// million.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace wdmlat::sim {
namespace {

struct Op {
  enum Kind : std::uint8_t { kSchedule, kCancel, kStep, kRunUntil, kArm, kDisarm };
  Kind kind;
  bool tie;             // kSchedule / kArm: reuse the previous op's absolute time
  std::uint64_t delay;  // kSchedule / kArm / kRunUntil: cycles from now()
  // kCancel: reduced modulo the ids issued so far; kArm / kDisarm: reduced
  // modulo kTimers.
  std::uint32_t victim;
};

// Timers in play. A timer's log id is -(index + 1), apart from the
// one-shots' ids 0, 1, 2, ...
constexpr std::uint32_t kTimers = 8;
int TimerId(std::uint32_t index) { return -static_cast<int>(index) - 1; }

// The reference calendar: minimum-scan over a flat vector. No ordering, no
// lazy purge — cancel erases immediately.
class ReferenceCalendar {
 public:
  Cycles now = 0;

  void Schedule(Cycles when, int id) {
    if (when < now) {
      when = now;
    }
    live_.push_back(Event{when, next_seq_++, id});
  }

  void Cancel(int id) {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].id == id) {
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  bool Step(std::vector<int>* log) {
    const std::size_t min = MinIndex();
    if (min == live_.size()) {
      return false;
    }
    now = live_[min].when;
    log->push_back(live_[min].id);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(min));
    return true;
  }

  void RunUntil(Cycles deadline, std::vector<int>* log) {
    for (;;) {
      const std::size_t min = MinIndex();
      if (min == live_.size() || live_[min].when > deadline) {
        break;
      }
      now = live_[min].when;
      log->push_back(live_[min].id);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(min));
    }
    if (now < deadline) {
      now = deadline;
    }
  }

  std::size_t pending() const { return live_.size(); }

 private:
  struct Event {
    Cycles when;
    std::uint64_t seq;
    int id;
  };

  std::size_t MinIndex() const {
    std::size_t best = live_.size();
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (best == live_.size() || live_[i].when < live_[best].when ||
          (live_[i].when == live_[best].when && live_[i].seq < live_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<Event> live_;
  std::uint64_t next_seq_ = 0;
};

// Delay scales of the op mix, in cycles at the simulated 300 MHz: kShort is
// 2^16 cycles (about 218 us, shorter than a PIT period) and kLong is 512
// kShort (about 112 ms, past every PIT period, DPC completion and scheduler
// quantum either OS profile uses).
constexpr Cycles kShort = Cycles{1} << 16;
constexpr Cycles kLong = 512 * kShort;

// Keep the reference's O(live) scans bounded: schedules convert to steps
// above this, so a million ops stay fast without losing churn coverage.
constexpr std::size_t kMaxLive = 768;

std::string DescribeOp(const Op& op) {
  switch (op.kind) {
    case Op::kSchedule:
      return op.tie ? "schedule{tie with previous when}"
                    : "schedule{delay=" + std::to_string(op.delay) + "}";
    case Op::kCancel:
      return "cancel{victim#" + std::to_string(op.victim) + "}";
    case Op::kStep:
      return "step{}";
    case Op::kRunUntil:
      return "run_until{now+" + std::to_string(op.delay) + "}";
    case Op::kArm:
      return "arm{timer#" + std::to_string(op.victim % kTimers) + ", " +
             (op.tie ? std::string("tie with previous when") : "delay=" + std::to_string(op.delay)) +
             "}";
    case Op::kDisarm:
      return "disarm{timer#" + std::to_string(op.victim % kTimers) + "}";
  }
  return "?";
}

// Run one op sequence through both calendars. Returns a failure description
// at the first divergence, or nullopt if they agree throughout.
std::optional<std::string> RunOps(const std::vector<Op>& ops) {
  Engine engine;
  ReferenceCalendar reference;
  std::vector<EventHandle> handles;
  std::vector<int> engine_log;
  std::vector<Timer> timers;
  for (std::uint32_t t = 0; t < kTimers; ++t) {
    timers.emplace_back(engine, [id = TimerId(t), &engine_log] { engine_log.push_back(id); });
  }
  std::vector<int> reference_log;
  std::size_t verified = 0;  // logs agree on [0, verified)
  Cycles last_when = 0;

  const auto diverged = [&](std::size_t op_index, const std::string& what) {
    return "op " + std::to_string(op_index) + " (" + DescribeOp(ops[op_index]) + "): " + what;
  };
  const auto check_logs = [&](std::size_t op_index) -> std::optional<std::string> {
    if (engine_log.size() != reference_log.size()) {
      return diverged(op_index, "engine fired " + std::to_string(engine_log.size()) +
                                    " events, reference fired " +
                                    std::to_string(reference_log.size()));
    }
    // Earlier calls verified [0, verified); only the new suffix can differ.
    for (; verified < engine_log.size(); ++verified) {
      if (engine_log[verified] != reference_log[verified]) {
        return diverged(op_index,
                        "fire order differs at event " + std::to_string(verified) +
                            ": engine fired id " + std::to_string(engine_log[verified]) +
                            ", reference fired id " + std::to_string(reference_log[verified]));
      }
    }
    return std::nullopt;
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op op = ops[i];
    if (op.kind == Op::kSchedule && reference.pending() >= kMaxLive) {
      op.kind = Op::kStep;
    }
    switch (op.kind) {
      case Op::kSchedule: {
        const Cycles when = op.tie ? std::max(last_when, engine.now())
                                   : engine.now() + static_cast<Cycles>(op.delay);
        last_when = when;
        const int id = static_cast<int>(handles.size());
        handles.push_back(engine.ScheduleAt(when, [id, &engine_log] { engine_log.push_back(id); }));
        reference.Schedule(when, id);
        break;
      }
      case Op::kArm: {
        const Cycles when = op.tie ? std::max(last_when, engine.now())
                                   : engine.now() + static_cast<Cycles>(op.delay);
        last_when = when;
        const std::uint32_t t = op.victim % kTimers;
        timers[t].ArmAt(when);
        reference.Cancel(TimerId(t));
        reference.Schedule(when, TimerId(t));
        break;
      }
      case Op::kDisarm: {
        const std::uint32_t t = op.victim % kTimers;
        timers[t].Disarm();
        reference.Cancel(TimerId(t));
        break;
      }
      case Op::kCancel: {
        if (handles.empty()) {
          break;
        }
        const int id = static_cast<int>(op.victim % handles.size());
        handles[static_cast<std::size_t>(id)].Cancel();
        reference.Cancel(id);
        break;
      }
      case Op::kStep: {
        const bool engine_fired = engine.Step();
        const bool reference_fired = reference.Step(&reference_log);
        if (engine_fired != reference_fired) {
          return diverged(i, std::string("engine.Step() returned ") +
                                 (engine_fired ? "true" : "false") + " but the reference " +
                                 (reference_fired ? "fired" : "was empty"));
        }
        break;
      }
      case Op::kRunUntil: {
        const Cycles deadline = engine.now() + static_cast<Cycles>(op.delay);
        engine.RunUntil(deadline);
        reference.RunUntil(deadline, &reference_log);
        break;
      }
    }
    if (auto failure = check_logs(i)) {
      return failure;
    }
    if (engine.now() != reference.now) {
      return diverged(i, "engine.now()=" + std::to_string(engine.now()) +
                             " but reference now=" + std::to_string(reference.now));
    }
    if (engine.events_pending() != reference.pending()) {
      return diverged(i, "engine pending=" + std::to_string(engine.events_pending()) +
                             " but reference pending=" + std::to_string(reference.pending()));
    }
    if ((i & 0xFFF) == 0) {
      std::vector<std::string> violations;
      engine.AuditCalendar(&violations);
      if (!violations.empty()) {
        return diverged(i, "calendar audit failed: " + violations.front());
      }
    }
  }

  // Drain both to the end: the tail must agree too.
  engine.RunUntilIdle();
  while (reference.Step(&reference_log)) {
  }
  if (auto failure = check_logs(ops.empty() ? 0 : ops.size() - 1)) {
    return failure;
  }
  if (engine.events_pending() != 0) {
    return std::optional<std::string>("engine still pending after full drain");
  }
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  if (!violations.empty()) {
    return std::optional<std::string>("final audit failed: " + violations.front());
  }
  return std::nullopt;
}

// ddmin-style shrink: repeatedly delete chunks that keep the failure alive.
// Bounded by a replay budget so a pathological case cannot hang the suite.
std::vector<Op> ShrinkFailure(std::vector<Op> ops) {
  int budget = 512;
  for (std::size_t chunk = ops.size() / 2; chunk > 0; chunk /= 2) {
    bool removed = true;
    while (removed && budget > 0) {
      removed = false;
      for (std::size_t start = 0; start + chunk <= ops.size() && budget > 0;) {
        std::vector<Op> candidate = ops;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(start),
                        candidate.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        --budget;
        if (RunOps(candidate)) {
          ops = std::move(candidate);
          removed = true;
        } else {
          start += chunk;
        }
      }
    }
  }
  return ops;
}

std::vector<Op> GenerateOps(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op{};
    const std::uint64_t kind = rng.UniformInt(0, 99);
    if (kind < 45) {
      // One in four timed ops arms a timer (re-arming it if it is armed).
      op.kind = rng.UniformInt(0, 3) == 0 ? Op::kArm : Op::kSchedule;
      op.victim = static_cast<std::uint32_t>(rng.NextU64());
      const std::uint64_t shape = rng.UniformInt(0, 9);
      if (shape == 0) {
        op.delay = 0;  // fires this instant: same-tick FIFO tie with now()
      } else if (shape == 1) {
        op.tie = true;  // exact (when, seq) tie with the previous schedule
      } else if (shape <= 4) {
        op.delay = rng.UniformInt(1, kShort - 1);
      } else if (shape <= 6) {
        op.delay = rng.UniformInt(kShort, kLong - 1);
      } else if (shape == 7) {
        // Exactly astride the kLong boundary.
        op.delay = kLong - 3 + rng.UniformInt(0, 6);
      } else {
        // Far future: stays pending while many nearer events fire.
        op.delay = rng.UniformInt(kLong, 4 * kLong);
      }
    } else if (kind < 60) {
      // One in five cancels disarms a timer instead.
      op.kind = rng.UniformInt(0, 4) == 0 ? Op::kDisarm : Op::kCancel;
      op.victim = static_cast<std::uint32_t>(rng.NextU64());
    } else if (kind < 90) {
      op.kind = Op::kStep;
    } else {
      op.kind = Op::kRunUntil;
      // Advances from small nudges to several kShort at once.
      op.delay = rng.UniformInt(1, 3 * kShort);
    }
    ops.push_back(op);
  }
  return ops;
}

class CalendarDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalendarDifferentialTest, MillionOpFireOrderMatchesReferenceModel) {
  const std::vector<Op> ops = GenerateOps(GetParam(), 1'000'000);
  std::optional<std::string> failure = RunOps(ops);
  if (!failure) {
    return;
  }
  const std::vector<Op> minimal = ShrinkFailure(ops);
  const std::optional<std::string> shrunk = RunOps(minimal);
  std::string script;
  for (std::size_t i = 0; i < minimal.size() && i < 64; ++i) {
    script += "\n  [" + std::to_string(i) + "] " + DescribeOp(minimal[i]);
  }
  FAIL() << "calendar diverged from the reference model (seed " << GetParam()
         << "):\n  " << *failure << "\nshrunk to " << minimal.size()
         << " ops: " << (shrunk ? *shrunk : "(shrink lost the failure)") << script;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarDifferentialTest,
                         ::testing::Values(0xC0FFEEull, 1999ull, 42ull));

// A directed (non-random) probe of the exact seams the random mix may take
// millions of ops to align: cancel-then-reschedule into the same pool slot
// at the same instant, and a far-future event overtaken by later near events.
TEST(CalendarDifferentialTest, DirectedSlotReuseAndMigrationEdges) {
  std::vector<Op> ops;
  // Two ties at one instant, cancel the first, reschedule (reuses its pool
  // slot via the LIFO free list), then fire everything.
  ops.push_back(Op{Op::kSchedule, false, 100, 0});
  ops.push_back(Op{Op::kSchedule, true, 0, 0});
  ops.push_back(Op{Op::kCancel, false, 0, 0});
  ops.push_back(Op{Op::kSchedule, true, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  // A far event, then a pile of near ties, then advance in two steps so the
  // near events fire past the far one before it fires.
  ops.push_back(Op{Op::kSchedule, false, 2 * kLong, 0});
  for (int i = 0; i < 8; ++i) {
    ops.push_back(Op{Op::kSchedule, false, 50, 0});
    ops.push_back(Op{Op::kSchedule, true, 0, 0});
  }
  ops.push_back(Op{Op::kRunUntil, false, kLong, 0});
  ops.push_back(Op{Op::kRunUntil, false, 2 * kLong, 0});
  const std::optional<std::string> failure = RunOps(ops);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

// Timers at the seams: a timer re-armed at the instant it already holds ties
// after the one-shot scheduled between the two armings; a disarm of an
// unarmed timer is a no-op; a timer armed, disarmed and re-armed leaves two
// stale entries and fires once, in order; and re-arming every timer many
// times over leaves more stale entries than live ones, so armings compact
// the calendar.
TEST(CalendarDifferentialTest, DirectedTimerReArmTiesAndStaleEntries) {
  std::vector<Op> ops;
  ops.push_back(Op{Op::kArm, false, 100, 0});
  ops.push_back(Op{Op::kSchedule, true, 0, 0});
  ops.push_back(Op{Op::kArm, true, 0, 0});
  ops.push_back(Op{Op::kDisarm, false, 0, 1});
  ops.push_back(Op{Op::kArm, true, 0, 1});
  ops.push_back(Op{Op::kDisarm, false, 0, 1});
  ops.push_back(Op{Op::kArm, false, 50, 1});
  ops.push_back(Op{Op::kSchedule, false, 0, 0});
  for (int i = 0; i < 5; ++i) {
    ops.push_back(Op{Op::kStep, false, 0, 0});
  }
  for (std::uint32_t i = 0; i < 160; ++i) {
    ops.push_back(Op{Op::kArm, false, 200 + (i * 13) % 7, i});
  }
  ops.push_back(Op{Op::kRunUntil, false, 300, 0});
  const std::optional<std::string> failure = RunOps(ops);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

// The random mix cancels mostly ids that have already fired, so with these
// seeds it never leaves more dead entries than live ones and never compacts.
// This probe does: it cancels three quarters of 256 pending events spread
// over shared instants, so the next schedule compacts the calendar, and then
// fires the survivors against the reference.
TEST(CalendarDifferentialTest, DirectedMassCancelCompactsInFireOrder) {
  std::vector<Op> ops;
  for (std::uint32_t i = 0; i < 256; ++i) {
    ops.push_back(Op{Op::kSchedule, false, 100 + (i * 37) % 11, 0});
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    if (i % 4 != 3) {
      ops.push_back(Op{Op::kCancel, false, 0, i});
    }
  }
  ops.push_back(Op{Op::kSchedule, false, 105, 0});
  ops.push_back(Op{Op::kRunUntil, false, 104, 0});
  for (int i = 0; i < 40; ++i) {
    ops.push_back(Op{Op::kStep, false, 0, 0});
  }
  const std::optional<std::string> failure = RunOps(ops);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

}  // namespace
}  // namespace wdmlat::sim
