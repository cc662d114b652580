// Simulated interrupt controller (8259-PIC-like, with NT-style IRQL
// priorities instead of raw pin numbers).
//
// Devices assert edge-triggered lines; the controller latches one pending
// assertion per line and notifies the CPU model, which accepts the
// highest-IRQL pending line whenever its current IRQL allows. The time from
// assertion to the first ISR instruction is the paper's "interrupt latency";
// it emerges from IRQL masking, interrupt-disabled sections and dispatch
// overhead in the kernel model, not from anything scripted here.

#ifndef SRC_HW_INTERRUPT_CONTROLLER_H_
#define SRC_HW_INTERRUPT_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/irql.h"
#include "src/sim/engine.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::hw {

class InterruptController {
 public:
  // Invalid line index.
  static constexpr int kNoLine = -1;

  explicit InterruptController(sim::Engine& engine) : engine_(engine) {}

  // Register a line. Higher `irql` lines preempt lower ones. Returns the
  // line index used by Assert().
  int ConnectLine(std::string name, kernel::Irql irql);

  // Called by the CPU model to learn about newly pending interrupts.
  void set_pending_notifier(sim::InplaceCallback notifier) {
    pending_notifier_ = std::move(notifier);
  }

  // Device side: assert the line. If the line is already pending the edge is
  // lost (counted in dropped_edges()), as on real hardware.
  void Assert(int line);

  // CPU side: index of the highest-IRQL pending line routed to `core` whose
  // IRQL is strictly above `ceiling`, or kNoLine. Routing is decided at
  // Assert time (see set_irq_router); with no router every line goes to
  // core 0, the one core of a uniprocessor.
  int HighestPending(kernel::Irql ceiling, int core) const;

  // SMP routing hook: called once per latched Assert with the line index;
  // returns the core the pending interrupt is delivered to. Unset => core 0.
  void set_irq_router(sim::InplaceFunction<int(int)> router) { irq_router_ = std::move(router); }

  // Core the line's current (or last) pending assertion was routed to.
  int target_core(int line) const { return lines_[line].target_core; }

  // CPU side: acknowledge the line, clearing its pending latch. Returns the
  // time at which the line was asserted (for ground-truth latency records).
  sim::Cycles Acknowledge(int line);

  int line_count() const { return static_cast<int>(lines_.size()); }
  kernel::Irql line_irql(int line) const { return lines_[line].irql; }
  const std::string& line_name(int line) const { return lines_[line].name; }
  bool pending(int line) const { return lines_[line].pending; }
  std::uint64_t dropped_edges() const { return dropped_edges_; }
  std::uint64_t asserts(int line) const { return lines_[line].asserts; }

 private:
  struct Line {
    std::string name;
    kernel::Irql irql = kernel::Irql::kDevice;
    bool pending = false;
    sim::Cycles assert_time = 0;
    std::uint64_t asserts = 0;
    int target_core = 0;
  };

  sim::Engine& engine_;
  std::vector<Line> lines_;
  sim::InplaceCallback pending_notifier_;
  sim::InplaceFunction<int(int)> irq_router_;
  std::uint64_t dropped_edges_ = 0;
};

}  // namespace wdmlat::hw

#endif  // SRC_HW_INTERRUPT_CONTROLLER_H_
