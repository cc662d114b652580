// Kernel threads.
//
// WDM threads execute at Win32 priorities 1-15 (normal, timesliced) or 16-31
// (real time); 24 is the default real-time priority and the paper measures
// priorities 24 and 28 (Section 4.1). Thread bodies are written in
// continuation-passing style: a continuation runs in zero simulated time at
// the thread's "first instruction" after a dispatch, and schedules the
// thread's next timed computation or wait through the Kernel facade.

#ifndef SRC_KERNEL_THREAD_H_
#define SRC_KERNEL_THREAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/event.h"
#include "src/kernel/irql.h"
#include "src/kernel/label.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::kernel {

class KDpc;
class KTimer;

inline constexpr int kMinPriority = 1;
inline constexpr int kMaxNormalPriority = 15;
inline constexpr int kMinRealTimePriority = 16;
inline constexpr int kDefaultRealTimePriority = 24;  // WDM default (paper 2.2)
inline constexpr int kMaxPriority = 31;

enum class ThreadState : std::uint8_t {
  kInitialized,
  kReady,
  kRunning,
  kWaiting,
  kTerminated,
};

class KThread {
 public:
  using Continuation = sim::InplaceCallback;

  KThread(std::string name, int priority);
  ~KThread();

  KThread(const KThread&) = delete;
  KThread& operator=(const KThread&) = delete;

  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  int base_priority() const { return base_priority_; }
  ThreadState state() const { return state_; }
  bool real_time() const { return base_priority_ >= kMinRealTimePriority; }

  std::uint64_t dispatch_count() const { return dispatch_count_; }

  // --- SMP (ignored on uniprocessor profiles) -------------------------------
  // Bit `c` set: the thread may run on core `c`. Default: any core.
  std::uint32_t affinity() const { return affinity_; }
  // Core whose runqueue currently holds the thread (meaningful while kReady).
  int ready_core() const { return ready_core_; }

 private:
  friend class Kernel;
  friend class Dispatcher;
  friend class ReadyQueue;
  friend class Smp;

  std::string name_;
  int priority_;
  int base_priority_;
  ThreadState state_ = ThreadState::kInitialized;

  // Continuation to run at the next dispatch (thread entry, or the
  // post-wait continuation installed by Kernel::Wait).
  Continuation next_;

  // Run the pending user APCs in queue order, including any an APC queues
  // to this thread while the delivery runs, then empty the queue.
  void DeliverUserApcs();

  // User APCs (ReadFileEx completion routines) pending delivery; delivered
  // when the thread performs or completes an alertable wait.
  std::vector<Continuation> user_apcs_;
  // Set while the thread is in (or being woken from) an alertable wait: its
  // next dispatch delivers the pending APCs before `next_` runs.
  bool alertable_ = false;
  // The event this thread is blocked on (nullptr for semaphore/mutex waits,
  // which are not alertable); lets an APC abort the wait.
  KEvent* waiting_on_ = nullptr;

  // Saved/pending compute segment (set by Kernel::Compute, or saved on
  // preemption).
  bool has_segment_ = false;
  sim::Cycles seg_remaining_ = 0;
  Irql seg_irql_ = Irql::kPassive;
  Label seg_label_{};
  Continuation seg_done_;

  sim::Cycles readied_at_ = 0;
  // Instant of the KeSetEvent that satisfied the current/last wait.
  sim::Cycles wait_signaled_at_ = 0;
  std::uint64_t dispatch_count_ = 0;

  std::uint32_t affinity_ = ~0u;
  int last_core_ = -1;  // core of the last dispatch; -1 before the first
  int ready_core_ = 0;

  // Private plumbing for Kernel::Sleep.
  std::unique_ptr<KEvent> sleep_event_;
  std::unique_ptr<KTimer> sleep_timer_;
  std::unique_ptr<KDpc> sleep_dpc_;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_THREAD_H_
