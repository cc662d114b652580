#include "src/hw/interrupt_controller.h"

#include <cassert>
#include <utility>

namespace wdmlat::hw {

int InterruptController::ConnectLine(std::string name, kernel::Irql irql) {
  Line line;
  line.name = std::move(name);
  line.irql = irql;
  lines_.push_back(std::move(line));
  return static_cast<int>(lines_.size()) - 1;
}

void InterruptController::Assert(int line) {
  assert(line >= 0 && line < line_count());
  Line& l = lines_[line];
  ++l.asserts;
  if (l.pending) {
    // Edge lost: the previous assertion has not been serviced yet.
    ++dropped_edges_;
    return;
  }
  l.pending = true;
  l.assert_time = engine_.now();
  l.target_core = irq_router_ ? irq_router_(line) : 0;
  if (pending_notifier_) {
    pending_notifier_();
  }
}

int InterruptController::HighestPending(kernel::Irql ceiling, int core) const {
  int best = kNoLine;
  for (int i = 0; i < line_count(); ++i) {
    const Line& l = lines_[i];
    if (!l.pending || l.target_core != core || l.irql <= ceiling) {
      continue;
    }
    if (best == kNoLine || l.irql > lines_[best].irql) {
      best = i;
    }
  }
  return best;
}

sim::Cycles InterruptController::Acknowledge(int line) {
  assert(line >= 0 && line < line_count());
  Line& l = lines_[line];
  assert(l.pending);
  l.pending = false;
  return l.assert_time;
}

}  // namespace wdmlat::hw
