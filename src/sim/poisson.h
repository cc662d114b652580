// Poisson event process: fires an action at exponentially distributed
// intervals. Workloads and the kernel's background self-noise are built from
// these (bursts of disk traffic, legacy masked sections, UI events, ...).

#ifndef SRC_SIM_POISSON_H_
#define SRC_SIM_POISSON_H_

#include <utility>

#include "src/sim/engine.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace wdmlat::sim {

class PoissonProcess {
 public:
  // `rate_per_s` events per simulated second on average. A rate of zero
  // produces a process that never fires.
  PoissonProcess(Engine& engine, Rng rng, double rate_per_s, InplaceCallback action)
      : rng_(rng),
        rate_per_s_(rate_per_s),
        action_(std::move(action)),
        next_(engine, [this] {
          if (!running_) {
            return;
          }
          action_();
          ScheduleNext();
        }) {}

  PoissonProcess(const PoissonProcess&) = delete;
  PoissonProcess& operator=(const PoissonProcess&) = delete;

  void Start() {
    if (running_ || rate_per_s_ <= 0.0) {
      return;
    }
    running_ = true;
    ScheduleNext();
  }

  void Stop() {
    running_ = false;
    next_.Disarm();
  }

  bool running() const { return running_; }
  double rate_per_s() const { return rate_per_s_; }

 private:
  void ScheduleNext() { next_.ArmAfter(SecToCycles(rng_.Exponential(1.0 / rate_per_s_))); }

  Rng rng_;
  double rate_per_s_;
  InplaceCallback action_;
  bool running_ = false;
  Timer next_;
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_POISSON_H_
