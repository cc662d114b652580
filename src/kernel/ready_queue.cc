#include "src/kernel/ready_queue.h"

#include <algorithm>
#include <cassert>

namespace wdmlat::kernel {

void ReadyQueue::Push(KThread* thread, bool front) {
  assert(thread != nullptr);
  const int prio = thread->priority();
  assert(prio >= kMinPriority && prio <= kMaxPriority);
  if (front) {
    queues_[prio].push_front(thread);
  } else {
    queues_[prio].push_back(thread);
  }
  summary_ |= std::uint32_t{1} << prio;
  ++count_;
}

KThread* ReadyQueue::Pop() {
  if (summary_ == 0) {
    return nullptr;
  }
  const int prio = top_priority();
  std::deque<KThread*>& queue = queues_[prio];
  KThread* thread = queue.front();
  queue.pop_front();
  if (queue.empty()) {
    summary_ &= ~(std::uint32_t{1} << prio);
  }
  --count_;
  return thread;
}

bool ReadyQueue::Remove(KThread* thread) {
  // The thread's priority may have changed since it was queued, so search
  // every non-empty queue.
  for (std::uint32_t bits = summary_; bits != 0; bits &= bits - 1) {
    const int prio = std::countr_zero(bits);
    std::deque<KThread*>& queue = queues_[prio];
    auto it = std::find(queue.begin(), queue.end(), thread);
    if (it != queue.end()) {
      queue.erase(it);
      if (queue.empty()) {
        summary_ &= ~(std::uint32_t{1} << prio);
      }
      --count_;
      return true;
    }
  }
  return false;
}

}  // namespace wdmlat::kernel
