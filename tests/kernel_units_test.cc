// Direct unit tests for the passive kernel data structures: ready queue,
// DPC queue, timer queue.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernel/dpc.h"
#include "src/kernel/ready_queue.h"
#include "src/kernel/thread.h"
#include "src/kernel/timer.h"
#include "src/sim/rng.h"

namespace wdmlat::kernel {
namespace {

// ---- ReadyQueue -----------------------------------------------------------------

TEST(ReadyQueueTest, EmptyQueueBehaviour) {
  ReadyQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.Peek(), nullptr);
  EXPECT_EQ(queue.Pop(), nullptr);
  EXPECT_EQ(queue.top_priority(), -1);
}

TEST(ReadyQueueTest, PopsHighestPriorityFirst) {
  ReadyQueue queue;
  KThread low("low", 5);
  KThread mid("mid", 15);
  KThread high("high", 28);
  queue.Push(&low);
  queue.Push(&high);
  queue.Push(&mid);
  EXPECT_EQ(queue.top_priority(), 28);
  EXPECT_EQ(queue.Pop(), &high);
  EXPECT_EQ(queue.Pop(), &mid);
  EXPECT_EQ(queue.Pop(), &low);
  EXPECT_TRUE(queue.empty());
}

TEST(ReadyQueueTest, FifoWithinPriorityAndFrontPush) {
  ReadyQueue queue;
  KThread a("a", 10);
  KThread b("b", 10);
  KThread c("c", 10);
  queue.Push(&a);
  queue.Push(&b);
  queue.Push(&c, /*front=*/true);  // preempted thread resumes first
  EXPECT_EQ(queue.Pop(), &c);
  EXPECT_EQ(queue.Pop(), &a);
  EXPECT_EQ(queue.Pop(), &b);
}

TEST(ReadyQueueTest, RemoveExtractsSpecificThread) {
  ReadyQueue queue;
  KThread a("a", 10);
  KThread b("b", 10);
  queue.Push(&a);
  queue.Push(&b);
  EXPECT_TRUE(queue.Remove(&a));
  EXPECT_FALSE(queue.Remove(&a));  // already gone
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.Pop(), &b);
}

// ---- DpcQueue --------------------------------------------------------------------

TEST(DpcQueueTest, FifoOrderAndQueuedFlag) {
  DpcQueue queue;
  KDpc a([] {}, sim::DurationDist::Zero(), Label{"T", "_a"});
  KDpc b([] {}, sim::DurationDist::Zero(), Label{"T", "_b"});
  EXPECT_TRUE(queue.Insert(&a, 100));
  EXPECT_TRUE(queue.Insert(&b, 200));
  EXPECT_FALSE(queue.Insert(&a, 300));  // already queued
  EXPECT_TRUE(a.queued());
  EXPECT_EQ(a.enqueue_time(), 100u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Pop(), &a);
  EXPECT_FALSE(a.queued());
  // Re-insert after pop is allowed.
  EXPECT_TRUE(queue.Insert(&a, 400));
  EXPECT_EQ(queue.Pop(), &b);
  EXPECT_EQ(queue.Pop(), &a);
  EXPECT_EQ(queue.Pop(), nullptr);
}

TEST(DpcQueueTest, HighImportanceInsertsAtFront) {
  DpcQueue queue;
  KDpc normal([] {}, sim::DurationDist::Zero(), Label{"T", "_n"});
  KDpc urgent([] {}, sim::DurationDist::Zero(), Label{"T", "_u"}, KDpc::Importance::kHigh);
  queue.Insert(&normal, 1);
  queue.Insert(&urgent, 2);
  EXPECT_EQ(queue.Pop(), &urgent);
  EXPECT_EQ(queue.Pop(), &normal);
}

TEST(DpcQueueTest, NotifierFiresOnEmptyToNonEmptyTransitionOnly) {
  DpcQueue queue;
  int notifications = 0;
  queue.set_notifier([&] { ++notifications; });
  KDpc a([] {}, sim::DurationDist::Zero(), Label{"T", "_a"});
  KDpc b([] {}, sim::DurationDist::Zero(), Label{"T", "_b"});
  queue.Insert(&a, 1);
  EXPECT_EQ(notifications, 1);
  queue.Insert(&b, 2);
  EXPECT_EQ(notifications, 1);  // already non-empty
  queue.Pop();
  queue.Pop();
  queue.Insert(&a, 3);
  EXPECT_EQ(notifications, 2);
}

// ---- TimerQueue -------------------------------------------------------------------

TEST(TimerQueueTest, ExpireDueFiresOnlyDueTimers) {
  TimerQueue queue;
  KTimer early;
  KTimer late;
  KDpc dpc([] {}, sim::DurationDist::Zero(), Label{"T", "_d"});
  queue.Set(&early, 100, 0, &dpc);
  queue.Set(&late, 200, 0, &dpc);
  int fired = 0;
  EXPECT_EQ(queue.ExpireDue(150, [&](KTimer*, KDpc*) { ++fired; }), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(early.active());
  EXPECT_TRUE(late.active());
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(TimerQueueTest, CancelInvalidatesHeapEntryLazily) {
  TimerQueue queue;
  KTimer timer;
  KDpc dpc([] {}, sim::DurationDist::Zero(), Label{"T", "_d"});
  queue.Set(&timer, 100, 0, &dpc);
  EXPECT_TRUE(queue.Cancel(&timer));
  EXPECT_FALSE(queue.Cancel(&timer));
  int fired = 0;
  EXPECT_EQ(queue.ExpireDue(1000, [&](KTimer*, KDpc*) { ++fired; }), 0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(TimerQueueTest, ReSetSupersedesOldArming) {
  TimerQueue queue;
  KTimer timer;
  KDpc dpc([] {}, sim::DurationDist::Zero(), Label{"T", "_d"});
  queue.Set(&timer, 100, 0, &dpc);
  queue.Set(&timer, 500, 0, &dpc);
  EXPECT_EQ(queue.pending(), 1u);
  int fired = 0;
  EXPECT_EQ(queue.ExpireDue(200, [&](KTimer*, KDpc*) { ++fired; }), 0);
  EXPECT_EQ(queue.ExpireDue(600, [&](KTimer*, KDpc*) { ++fired; }), 1);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueueTest, PeriodicReArmsWithoutDrift) {
  TimerQueue queue;
  KTimer timer;
  KDpc dpc([] {}, sim::DurationDist::Zero(), Label{"T", "_d"});
  queue.Set(&timer, 100, 100, &dpc);
  std::vector<sim::Cycles> dues;
  // Ticks arrive late (at 130, 230, ...) but due times stay on the 100 grid.
  for (sim::Cycles tick = 130; tick <= 530; tick += 100) {
    queue.ExpireDue(tick, [&](KTimer* t, KDpc*) { dues.push_back(t->due()); });
  }
  ASSERT_EQ(dues.size(), 5u);
  // due() reported after re-arm: next expiry stays on the grid.
  EXPECT_EQ(dues[0], 200u);
  EXPECT_EQ(dues[4], 600u);
}

TEST(TimerQueueTest, ManyTimersSameDeadlineAllFire) {
  TimerQueue queue;
  std::vector<std::unique_ptr<KTimer>> timers;
  KDpc dpc([] {}, sim::DurationDist::Zero(), Label{"T", "_d"});
  for (int i = 0; i < 64; ++i) {
    timers.push_back(std::make_unique<KTimer>());
    queue.Set(timers.back().get(), 100, 0, &dpc);
  }
  int fired = 0;
  EXPECT_EQ(queue.ExpireDue(100, [&](KTimer*, KDpc*) { ++fired; }), 64);
  EXPECT_EQ(fired, 64);
  EXPECT_EQ(queue.pending(), 0u);
}

// ---- TimerQueue storm against a brute-force reference ---------------------------

constexpr int kStormTimers = 32;
constexpr int kStormDpcs = 4;  // DPC ids 0..3; -1 is a timer with no DPC

// The reference: every timer's arming held as plain fields, and expiry by a
// minimum scan over all active timers by (due, seq), collected in batches
// exactly as TimerQueue::ExpireDue documents.
class BruteForceTimers {
 public:
  void Set(int t, sim::Cycles due, sim::Cycles period, int dpc) {
    timers_[t] = Arming{true, due, period, dpc, next_seq_++};
  }
  bool Cancel(int t) {
    const bool was_active = timers_[t].active;
    timers_[t].active = false;
    return was_active;
  }
  template <typename Fire>
  int ExpireDue(sim::Cycles now, Fire&& fire) {
    int expired = 0;
    for (;;) {
      std::vector<std::array<int, 2>> batch;
      for (;;) {
        int best = -1;
        for (int t = 0; t < kStormTimers; ++t) {
          const Arming& a = timers_[t];
          if (a.active && a.due <= now &&
              (best < 0 || a.due < timers_[best].due ||
               (a.due == timers_[best].due && a.seq < timers_[best].seq))) {
            best = t;
          }
        }
        if (best < 0) {
          break;
        }
        Arming& a = timers_[best];
        if (a.period > 0) {
          a.due += a.period;
          a.seq = next_seq_++;
        } else {
          a.active = false;
        }
        batch.push_back({best, a.dpc});
      }
      if (batch.empty()) {
        return expired;
      }
      expired += static_cast<int>(batch.size());
      for (const auto& [t, dpc] : batch) {
        fire(t, dpc);
      }
    }
  }
  std::size_t pending() const {
    std::size_t n = 0;
    for (const Arming& a : timers_) {
      n += a.active ? 1 : 0;
    }
    return n;
  }

 private:
  struct Arming {
    bool active = false;
    sim::Cycles due = 0;
    sim::Cycles period = 0;
    int dpc = -1;
    std::uint64_t seq = 0;
  };
  std::array<Arming, kStormTimers> timers_{};
  std::uint64_t next_seq_ = 0;
};

// The real queue behind the reference's interface.
class QueueTimers {
 public:
  QueueTimers() {
    for (int i = 0; i < kStormDpcs; ++i) {
      dpcs_.push_back(std::make_unique<KDpc>([] {}, sim::DurationDist::Zero(), Label{"T", "_d"}));
    }
  }
  void Set(int t, sim::Cycles due, sim::Cycles period, int dpc) {
    queue_.Set(&timers_[t], due, period, dpc < 0 ? nullptr : dpcs_[dpc].get());
  }
  bool Cancel(int t) { return queue_.Cancel(&timers_[t]); }
  template <typename Fire>
  int ExpireDue(sim::Cycles now, Fire&& fire) {
    return queue_.ExpireDue(now, [&](KTimer* timer, KDpc* dpc) {
      int dpc_id = -1;
      for (int i = 0; i < kStormDpcs; ++i) {
        dpc_id = dpcs_[i].get() == dpc ? i : dpc_id;
      }
      fire(static_cast<int>(timer - timers_.data()), dpc_id);
    });
  }
  std::size_t pending() const { return queue_.pending(); }

 private:
  TimerQueue queue_;
  std::array<KTimer, kStormTimers> timers_;
  std::vector<std::unique_ptr<KDpc>> dpcs_;
};

// One observable step: a fire (timer, latched DPC id), a Cancel's result,
// an ExpireDue's count, or pending() after an op.
struct StormStep {
  char what;
  std::int64_t a;
  std::int64_t b;
  bool operator==(const StormStep& other) const {
    return what == other.what && a == other.a && b == other.b;
  }
};

// Seeded Set / re-Set / Cancel / ExpireDue storm over one-shot and periodic
// timers, with ties on a 50-cycle grid, periods short enough to expire
// several times in one pass, and Sets and Cancels from inside the fire
// functor (an elapsed Set expires on the same tick through the re-collect
// loop; a re-Set mid-batch must not retarget the batch's latched DPC).
template <typename Timers>
std::vector<StormStep> RunTimerStorm(std::uint64_t seed) {
  Timers timers;
  sim::Rng rng(seed);
  std::vector<StormStep> log;
  sim::Cycles now = 0;
  const auto random_timer = [&] { return static_cast<int>(rng.UniformInt(0, kStormTimers - 1)); };
  const auto random_set = [&](sim::Cycles base) {
    const int t = random_timer();
    const sim::Cycles due =
        base + (rng.Bernoulli(0.3) ? 50 * rng.UniformInt(0, 20) : rng.UniformInt(0, 1000));
    const sim::Cycles period = rng.Bernoulli(0.3) ? rng.UniformInt(1, 300) : 0;
    const int dpc = static_cast<int>(rng.UniformInt(0, kStormDpcs)) - 1;
    timers.Set(t, due, period, dpc);
  };
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t kind = rng.UniformInt(0, 9);
    if (kind < 4) {
      random_set(now);
    } else if (kind < 6) {
      log.push_back(StormStep{'c', timers.Cancel(random_timer()) ? 1 : 0, 0});
    } else {
      now += rng.UniformInt(0, 400);
      const int expired = timers.ExpireDue(now, [&](int t, int dpc) {
        log.push_back(StormStep{'f', t, dpc});
        const std::uint64_t roll = rng.UniformInt(0, 9);
        if (roll == 0) {
          random_set(now > 100 ? now - 100 : 0);
        } else if (roll == 1) {
          timers.Cancel(random_timer());
        }
      });
      log.push_back(StormStep{'e', expired, 0});
    }
    log.push_back(StormStep{'p', static_cast<std::int64_t>(timers.pending()), 0});
  }
  return log;
}

TEST(TimerQueueTest, SeededStormMatchesBruteForceMinimumScan) {
  for (const std::uint64_t seed : {1ull, 1999ull, 0xC0FFEEull}) {
    SCOPED_TRACE(seed);
    const std::vector<StormStep> real = RunTimerStorm<QueueTimers>(seed);
    const std::vector<StormStep> reference = RunTimerStorm<BruteForceTimers>(seed);
    std::size_t fires = 0;
    for (const StormStep& step : reference) {
      fires += step.what == 'f' ? 1 : 0;
    }
    EXPECT_GT(fires, 20000u);
    ASSERT_EQ(real.size(), reference.size());
    for (std::size_t i = 0; i < real.size(); ++i) {
      ASSERT_EQ(real[i], reference[i])
          << "step " << i << ": queue " << real[i].what << "(" << real[i].a << ", " << real[i].b
          << "), reference " << reference[i].what << "(" << reference[i].a << ", "
          << reference[i].b << ")";
    }
  }
}

}  // namespace
}  // namespace wdmlat::kernel
