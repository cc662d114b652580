// Per-priority ready queues for the fixed-priority preemptive scheduler.
//
// As NT's KiReadySummary does, a 32-bit summary word keeps one bit per
// non-empty priority, so the highest ready priority is one count of leading
// zeros instead of a scan over 31 queues.

#ifndef SRC_KERNEL_READY_QUEUE_H_
#define SRC_KERNEL_READY_QUEUE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "src/kernel/thread.h"

namespace wdmlat::kernel {

class ReadyQueue {
 public:
  // Push at the back (normal readying / quantum-end round robin) or front
  // (a preempted thread resumes ahead of its peers, as on NT).
  void Push(KThread* thread, bool front = false);

  // Highest-priority ready thread without removing it; nullptr if empty.
  KThread* Peek() const { return summary_ == 0 ? nullptr : queues_[top_priority()].front(); }

  // Remove and return the highest-priority ready thread; nullptr if empty.
  KThread* Pop();

  // Remove a specific thread (priority change while ready). Returns true if
  // it was present.
  bool Remove(KThread* thread);

  // Highest priority with a ready thread, or -1 (countl_zero(0) is 32).
  int top_priority() const { return 31 - std::countl_zero(summary_); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  // Visit every queued thread, highest priority first (SMP invariant audits
  // and work stealing need to inspect runqueue contents).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int prio = kMaxPriority; prio >= 0; --prio) {
      for (KThread* thread : queues_[prio]) {
        fn(thread);
      }
    }
  }

 private:
  static_assert(kMaxPriority < 32, "one summary bit per priority");

  std::array<std::deque<KThread*>, kMaxPriority + 1> queues_;
  std::uint32_t summary_ = 0;  // bit p set exactly while queues_[p] is non-empty
  std::size_t count_ = 0;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_READY_QUEUE_H_
