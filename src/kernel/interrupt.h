// Interrupt objects (KINTERRUPT).
//
// A driver connects its ISR to a line with IoConnectInterrupt. The ISR
// callback runs in zero simulated time at the ISR's first instruction (after
// the hardware's interrupt latency, which the dispatcher produces) and
// returns the simulated duration of the rest of the service routine. WDM
// ISRs are supposed to be very short and queue DPCs for real work.
//
// Pre-hooks model two things the paper relies on: the Windows 9x legacy
// interface that lets a driver install its own timer handler ahead of the OS
// (Section 2.2), and the cause tool's IDT patch (Section 2.3).

#ifndef SRC_KERNEL_INTERRUPT_H_
#define SRC_KERNEL_INTERRUPT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/kernel/irql.h"
#include "src/kernel/label.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::kernel {

class KInterrupt {
 public:
  // Returns the simulated body duration of the service routine.
  using ServiceRoutine = sim::InplaceFunction<sim::Cycles()>;

  KInterrupt(int line, Irql irql, Label label, ServiceRoutine isr)
      : line_(line), irql_(irql), label_(label), isr_(std::move(isr)) {}

  int line() const { return line_; }
  Irql irql() const { return irql_; }
  Label label() const { return label_; }
  std::uint64_t fire_count() const { return fire_count_; }

  // Install a hook that runs (in zero simulated time) at ISR entry, before
  // the OS service routine. Hooks run in installation order.
  void AddPreHook(sim::InplaceCallback hook) { pre_hooks_.push_back(std::move(hook)); }

 private:
  friend class Dispatcher;

  int line_;
  Irql irql_;
  Label label_;
  ServiceRoutine isr_;
  std::vector<sim::InplaceCallback> pre_hooks_;
  std::uint64_t fire_count_ = 0;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_INTERRUPT_H_
