// Kernel-side metric collection: a TraceSink that folds dispatcher trace
// events into a MetricsRegistry (event counts, time-at-raised-IRQL totals,
// dispatch-lockout totals), and a periodic sampler for queue depths (DPC
// queue, ready queue, work-item queue).
//
// Both are passive observers: the collector reacts to trace events the
// dispatcher already emits, and the sampler's engine callbacks only read
// kernel state — neither consumes simulation RNG nor reorders other events,
// so attaching them leaves results bit-identical (asserted by
// tests/obs_lab_test.cc).
//
// Both run once per trace event or sample, so neither names a series there:
// each caches a pointer to every series it writes, resolved from the
// registry on the series' first use (MetricsRegistry::*Series). Resolving at
// first use rather than at attach time keeps series that never see a value,
// such as the SMP-only spinlock and IPI series on a uniprocessor cell, out of
// the exports.

#ifndef SRC_OBS_KERNEL_METRICS_H_
#define SRC_OBS_KERNEL_METRICS_H_

#include <array>

#include "src/kernel/kernel.h"
#include "src/kernel/trace.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/engine.h"

namespace wdmlat::obs {

// Metric names are "kernel.<activity>.<field>": count, ms_total (wall
// milliseconds accumulated) and an "ms" histogram of individual durations.
class KernelMetricsCollector : public kernel::TraceSink {
 public:
  explicit KernelMetricsCollector(MetricsRegistry& registry) : registry_(registry) {}

  void OnTraceEvent(const kernel::TraceEvent& event) override;

 private:
  // The series one event type writes; null until its first use.
  struct Series {
    double* count = nullptr;
    double* ms_total = nullptr;
    stats::LatencyHistogram* ms = nullptr;
  };

  MetricsRegistry& registry_;
  std::array<Series, kernel::kNumTraceEventTypes> series_{};
};

// Samples queue depths into the registry every `period_ms` of virtual time
// (histograms "kernel.dpc_queue_depth", "kernel.ready_queue_len",
// "kernel.work_queue_depth" and the counter "kernel.queue_samples"), and
// mirrors them onto a Chrome trace counter track when a writer is attached.
class QueueDepthSampler {
 public:
  QueueDepthSampler(kernel::Kernel& kernel, MetricsRegistry* registry,
                    ChromeTraceWriter* trace, double period_ms)
      : kernel_(kernel),
        registry_(registry),
        trace_(trace),
        period_ms_(period_ms),
        next_(kernel.engine(), [this] { Sample(); }) {}
  QueueDepthSampler(const QueueDepthSampler&) = delete;
  QueueDepthSampler& operator=(const QueueDepthSampler&) = delete;

  // Schedules the first sample one period from now; each sample reschedules
  // the next until the sampler is destroyed.
  void Start();

 private:
  void Sample();

  kernel::Kernel& kernel_;
  MetricsRegistry* registry_;
  ChromeTraceWriter* trace_;
  double period_ms_;
  sim::Timer next_;  // captures `this`: destruction disarms it
  // Resolved together at the first sample.
  stats::LatencyHistogram* dpc_depth_ = nullptr;
  stats::LatencyHistogram* ready_len_ = nullptr;
  stats::LatencyHistogram* work_depth_ = nullptr;
  double* samples_ = nullptr;
};

// Dump the dispatcher's and engine's end-of-run counters into the registry
// ("dispatcher.*", "sim.events_processed").
void CollectRunCounters(kernel::Kernel& kernel, MetricsRegistry& registry);

}  // namespace wdmlat::obs

#endif  // SRC_OBS_KERNEL_METRICS_H_
