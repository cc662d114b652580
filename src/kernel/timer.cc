#include "src/kernel/timer.h"

#include <cassert>

namespace wdmlat::kernel {

void TimerQueue::Set(KTimer* timer, sim::Cycles due, sim::Cycles period, KDpc* dpc) {
  assert(timer != nullptr);
  Cancel(timer);  // implicit cancel of the previous arming (KeSetTimer)
  timer->due_ = due;
  timer->period_ = period;
  timer->dpc_ = dpc;
  timer->active_ = true;
  Insert(timer);
}

bool TimerQueue::Cancel(KTimer* timer) {
  assert(timer != nullptr);
  if (!timer->active_) {
    return false;
  }
  sim::CalendarErase(calendar_, timer->due_, timer->seq_);
  timer->active_ = false;
  return true;
}

}  // namespace wdmlat::kernel
