// Tests for KSEMAPHORE and KMUTEX dispatcher objects.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/mutex.h"
#include "src/kernel/semaphore.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

TEST(SemaphoreTest, WaitOnPositiveCountIsImmediate) {
  MiniSystem sys;
  KSemaphore sem(2);
  sim::Cycles waited_at = 0;
  sim::Cycles resumed_at = 0;
  sys.kernel().PsCreateSystemThread("w", 10, [&] {
    waited_at = sys.kernel().GetCycleCount();
    sys.kernel().WaitForSemaphore(&sem, [&] {
      resumed_at = sys.kernel().GetCycleCount();
      sys.kernel().ExitThread();
    });
  });
  sys.RunForMs(2.0);
  EXPECT_EQ(waited_at, resumed_at);
  EXPECT_EQ(sem.count(), 1);
}

TEST(SemaphoreTest, ReleaseWakesWaitersFifoUpToCount) {
  MiniSystem sys;
  KSemaphore sem(0);
  std::vector<int> order;
  for (int i = 1; i <= 3; ++i) {
    sys.kernel().PsCreateSystemThread("w" + std::to_string(i), 10, [&, i] {
      sys.kernel().WaitForSemaphore(&sem, [&, i] {
        order.push_back(i);
        sys.kernel().ExitThread();
      });
    });
  }
  sys.RunForMs(2.0);
  EXPECT_EQ(sem.waiter_count(), 3u);
  sys.engine().ScheduleAfter(0, [&] { sys.kernel().KeReleaseSemaphore(&sem, 2); });
  sys.RunForMs(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sem.waiter_count(), 1u);
  EXPECT_EQ(sem.count(), 0);
  sys.engine().ScheduleAfter(0, [&] { sys.kernel().KeReleaseSemaphore(&sem); });
  sys.RunForMs(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SemaphoreTest, LimitIsEnforced) {
  MiniSystem sys;
  KSemaphore sem(1, /*limit=*/2);
  EXPECT_TRUE(sys.kernel().KeReleaseSemaphore(&sem, 1));
  EXPECT_EQ(sem.count(), 2);
  EXPECT_FALSE(sys.kernel().KeReleaseSemaphore(&sem, 1));
  EXPECT_EQ(sem.count(), 2);
}

TEST(SemaphoreTest, ProducerConsumerThroughSemaphore) {
  MiniSystem sys;
  KSemaphore items(0);
  int consumed = 0;
  std::function<void()> consumer_loop = [&] {
    sys.kernel().WaitForSemaphore(&items, [&] {
      sys.kernel().Compute(50.0, [&] {
        ++consumed;
        consumer_loop();
      });
    });
  };
  sys.kernel().PsCreateSystemThread("consumer", 12, [&] { consumer_loop(); });
  // DPC-context producer: release from an engine event (as an ISR/DPC would).
  for (int i = 0; i < 20; ++i) {
    sys.engine().ScheduleAt(sim::MsToCycles(1.0 + i * 2.0),
                            [&] { sys.kernel().KeReleaseSemaphore(&items); });
  }
  sys.RunForMs(60.0);
  EXPECT_EQ(consumed, 20);
}

TEST(MutexTest, UncontendedAcquireIsImmediate) {
  MiniSystem sys;
  KMutex mutex;
  bool acquired = false;
  sys.kernel().PsCreateSystemThread("t", 10, [&] {
    sys.kernel().WaitForMutex(&mutex, [&] {
      acquired = true;
      EXPECT_EQ(mutex.owner(), sys.kernel().KeGetCurrentThread());
      sys.kernel().KeReleaseMutex(&mutex);
      sys.kernel().ExitThread();
    });
  });
  sys.RunForMs(2.0);
  EXPECT_TRUE(acquired);
  EXPECT_FALSE(mutex.held());
}

TEST(MutexTest, RecursiveAcquisitionByOwner) {
  MiniSystem sys;
  KMutex mutex;
  int depth = 0;
  sys.kernel().PsCreateSystemThread("t", 10, [&] {
    sys.kernel().WaitForMutex(&mutex, [&] {
      sys.kernel().WaitForMutex(&mutex, [&] {
        depth = mutex.recursion();
        sys.kernel().KeReleaseMutex(&mutex);
        EXPECT_TRUE(mutex.held());  // still owned after one release
        sys.kernel().KeReleaseMutex(&mutex);
        sys.kernel().ExitThread();
      });
    });
  });
  sys.RunForMs(2.0);
  EXPECT_EQ(depth, 2);
  EXPECT_FALSE(mutex.held());
}

TEST(MutexTest, ContendedMutexPassesFifo) {
  MiniSystem sys;
  KMutex mutex;
  std::vector<int> order;
  // Holder takes the mutex and keeps it for 5 ms of CPU.
  sys.kernel().PsCreateSystemThread("holder", 10, [&] {
    sys.kernel().WaitForMutex(&mutex, [&] {
      sys.kernel().Compute(5000.0, [&] {
        order.push_back(0);
        sys.kernel().KeReleaseMutex(&mutex);
        sys.kernel().ExitThread();
      });
    });
  });
  for (int i = 1; i <= 2; ++i) {
    sys.kernel().PsCreateSystemThread("waiter" + std::to_string(i), 10, [&, i] {
      sys.kernel().WaitForMutex(&mutex, [&, i] {
        order.push_back(i);
        sys.kernel().KeReleaseMutex(&mutex);
        sys.kernel().ExitThread();
      });
    });
  }
  sys.RunForMs(30.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(mutex.held());
}

TEST(MutexTest, LongMutexHoldDelaysWaitersLikeWin16Mutex) {
  // The mechanism behind the paper's Windows 98 thread-latency story,
  // expressed with a driver-visible object: a low-priority thread holding a
  // mutex for tens of ms delays a high-priority waiter by the full hold.
  MiniSystem sys;
  KMutex mutex;
  sim::Cycles high_acquired_at = 0;
  sim::Cycles high_wanted_at = 0;
  sys.kernel().PsCreateSystemThread("legacy holder", 4, [&] {
    sys.kernel().WaitForMutex(&mutex, [&] {
      sys.kernel().Compute(25000.0, [&] {
        sys.kernel().KeReleaseMutex(&mutex);
        sys.kernel().ExitThread();
      });
    });
  });
  sys.kernel().PsCreateSystemThread("rt waiter", 28, [&] {
    sys.kernel().Sleep(2.0, [&] {
      high_wanted_at = sys.kernel().GetCycleCount();
      sys.kernel().WaitForMutex(&mutex, [&] {
        high_acquired_at = sys.kernel().GetCycleCount();
        sys.kernel().KeReleaseMutex(&mutex);
        sys.kernel().ExitThread();
      });
    });
  });
  sys.RunForMs(60.0);
  ASSERT_NE(high_acquired_at, 0u);
  // Priority inversion: the RT thread waited out most of the 25 ms hold.
  EXPECT_GT(sim::CyclesToMs(high_acquired_at - high_wanted_at), 15.0);
}

TEST(ProfileTest, Win2000BetaSitsBetweenNt4AndWin98) {
  const kernel::KernelProfile nt = MakeNt4Profile();
  const kernel::KernelProfile w2k = MakeWin2000BetaProfile();
  const kernel::KernelProfile w98 = MakeWin98Profile();
  EXPECT_EQ(w2k.name, "Windows 2000 Beta");
  EXPECT_FALSE(w2k.legacy_vmm);
  EXPECT_FALSE(w2k.has_legacy_timer_hook);
  EXPECT_EQ(w2k.lockout_stress_scale, 0.0);
  EXPECT_GE(w2k.masked_stress_scale, nt.masked_stress_scale);
  EXPECT_LT(w2k.masked_stress_scale, w98.masked_stress_scale);
  EXPECT_GE(w2k.context_switch_cost.MeanUs(), nt.context_switch_cost.MeanUs());
  EXPECT_LT(w2k.context_switch_cost.MeanUs(), w98.context_switch_cost.MeanUs());
}

}  // namespace
}  // namespace wdmlat::kernel
