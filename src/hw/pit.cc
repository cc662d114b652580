#include "src/hw/pit.h"

#include <cassert>

namespace wdmlat::hw {

Pit::Pit(sim::Engine& engine, InterruptController& pic, int line)
    : pic_(pic), line_(line), next_tick_(engine, [this] { Tick(); }) {}

void Pit::SetFrequencyHz(double hz) {
  assert(hz > 0.0);
  hz_ = hz;
  period_ = static_cast<sim::Cycles>(static_cast<double>(sim::kCyclesPerSec) / hz + 0.5);
  assert(period_ > 0);
}

void Pit::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  next_tick_.ArmAfter(period_);
}

void Pit::Stop() {
  running_ = false;
  next_tick_.Disarm();
}

void Pit::Tick() {
  if (!running_) {
    return;
  }
  ++ticks_;
  pic_.Assert(line_);
  sim::Cycles delay = period_;
  if (tick_delay_hook_) {
    delay += tick_delay_hook_();
  }
  next_tick_.ArmAfter(delay);
}

}  // namespace wdmlat::hw
