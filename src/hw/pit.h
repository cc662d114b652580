// Programmable Interval Timer (Intel 8254 model).
//
// The PC's PIT drives the OS clock interrupt. By default Windows programs it
// at 67-100 Hz; the paper's tools reprogram it to 1 kHz (Section 2.2). The
// PIT asserts its interrupt line strictly periodically; everything after the
// assertion (ISR latency, timer DPC dispatch, thread wakeup) is the kernel
// model's business.

#ifndef SRC_HW_PIT_H_
#define SRC_HW_PIT_H_

#include <cstdint>
#include <utility>

#include "src/hw/interrupt_controller.h"
#include "src/sim/engine.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::hw {

class Pit {
 public:
  Pit(sim::Engine& engine, InterruptController& pic, int line);
  // Its timer's callable captures `this`.
  Pit(const Pit&) = delete;
  Pit& operator=(const Pit&) = delete;

  // Program the tick frequency. Takes effect from the next tick. The default
  // matches Windows' 100 Hz; the measurement drivers call this with 1000.
  void SetFrequencyHz(double hz);

  double frequency_hz() const { return hz_; }
  sim::Cycles period() const { return period_; }

  // Start ticking. Idempotent.
  void Start();

  // Stop ticking (used by tests).
  void Stop();

  std::uint64_t ticks() const { return ticks_; }

  // Tick-period perturbation hook (the fault injector's timer_jitter fault):
  // when set, each tick is scheduled `period() + hook()` cycles after the
  // previous one, modelling a drifting/coalesced tick period. A hook that
  // returns 0 leaves the schedule bit-identical to an unhooked PIT. Install
  // nullptr to remove; installers that die before the PIT must remove it.
  void set_tick_delay_hook(sim::InplaceFunction<sim::Cycles()> hook) {
    tick_delay_hook_ = std::move(hook);
  }

 private:
  void Tick();

  InterruptController& pic_;
  int line_;
  double hz_ = 100.0;
  sim::Cycles period_ = sim::kCyclesPerSec / 100;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  sim::Timer next_tick_;
  sim::InplaceFunction<sim::Cycles()> tick_delay_hook_;
};

}  // namespace wdmlat::hw

#endif  // SRC_HW_PIT_H_
