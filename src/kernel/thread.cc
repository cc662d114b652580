#include "src/kernel/thread.h"

#include <cassert>
#include <cstddef>
#include <utility>

#include "src/kernel/dpc.h"
#include "src/kernel/timer.h"

namespace wdmlat::kernel {

KThread::KThread(std::string name, int priority)
    : name_(std::move(name)), priority_(priority), base_priority_(priority) {
  assert(priority >= kMinPriority && priority <= kMaxPriority);
}

KThread::~KThread() = default;

void KThread::DeliverUserApcs() {
  // By index: an APC may queue another, which grows the vector under us.
  for (std::size_t i = 0; i < user_apcs_.size(); ++i) {
    Continuation apc = std::move(user_apcs_[i]);
    apc();
  }
  user_apcs_.clear();
}

}  // namespace wdmlat::kernel
