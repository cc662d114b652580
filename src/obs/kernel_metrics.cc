#include "src/obs/kernel_metrics.h"

namespace wdmlat::obs {

namespace {

// The series each trace event type writes: a count, an accumulated
// "ms_total" and an "ms" histogram of individual durations. Null names are
// not written. Start events carry no duration (their exit does), and the
// anatomy boundary markers carry durations that land on other events.
struct SeriesNames {
  const char* count = nullptr;
  const char* ms_total = nullptr;
  const char* ms = nullptr;
};

constexpr std::size_t Index(kernel::TraceEventType type) { return static_cast<std::size_t>(type); }

constexpr std::array<SeriesNames, kernel::kNumTraceEventTypes> kSeriesNames = [] {
  using kernel::TraceEventType;
  std::array<SeriesNames, kernel::kNumTraceEventTypes> names{};
  names[Index(TraceEventType::kIsrExit)] = {"kernel.isr.count", "kernel.isr.ms_total",
                                            "kernel.isr.ms"};
  names[Index(TraceEventType::kSectionEnd)] = {"kernel.section.count",
                                               "kernel.section.ms_total", "kernel.section.ms"};
  // The start event's duration is the queueing delay — the paper's DPC
  // latency, here with exact ground truth rather than the tool's ±1 PIT
  // period estimate.
  names[Index(TraceEventType::kDpcStart)] = {.ms = "kernel.dpc.queue_delay_ms"};
  names[Index(TraceEventType::kDpcEnd)] = {"kernel.dpc.count", "kernel.dpc.ms_total",
                                           "kernel.dpc.ms"};
  names[Index(TraceEventType::kContextSwitch)] = {.count = "kernel.context_switch.count"};
  names[Index(TraceEventType::kThreadReady)] = {.count = "kernel.thread_ready.count"};
  names[Index(TraceEventType::kDispatchLockout)] = {
      "kernel.lockout.count", "kernel.lockout.ms_total", "kernel.lockout.ms"};
  // A fresh dispatch's duration is the exact signal-to-run latency (a
  // resume carries 0 and is skipped).
  names[Index(TraceEventType::kThreadRun)] = {.ms = "kernel.thread_wake.ms"};
  names[Index(TraceEventType::kSpinlockWait)] = {"kernel.spinlock.wait_count",
                                                 "kernel.spinlock.wait_ms_total",
                                                 "kernel.spinlock.wait_ms"};
  names[Index(TraceEventType::kIpi)] = {.count = "kernel.ipi.count",
                                        .ms = "kernel.ipi.flight_ms"};
  return names;
}();

}  // namespace

void KernelMetricsCollector::OnTraceEvent(const kernel::TraceEvent& event) {
  if (event.type == kernel::TraceEventType::kThreadRun && event.duration == 0) {
    return;
  }
  const std::size_t type = Index(event.type);
  const SeriesNames& names = kSeriesNames[type];
  Series& series = series_[type];
  const double ms = sim::CyclesToMs(event.duration);
  if (names.count != nullptr) {
    if (series.count == nullptr) {
      series.count = &registry_.CounterSeries(names.count);
    }
    *series.count += 1.0;
  }
  if (names.ms_total != nullptr) {
    if (series.ms_total == nullptr) {
      series.ms_total = &registry_.CounterSeries(names.ms_total);
    }
    *series.ms_total += ms;
  }
  if (names.ms != nullptr) {
    if (series.ms == nullptr) {
      series.ms = &registry_.HistogramSeries(names.ms);
    }
    series.ms->RecordMs(ms);
  }
}

void QueueDepthSampler::Start() {
  if (period_ms_ <= 0.0 || (registry_ == nullptr && trace_ == nullptr)) {
    return;
  }
  next_.ArmAfter(sim::MsToCycles(period_ms_));
}

void QueueDepthSampler::Sample() {
  const double dpc_depth = static_cast<double>(kernel_.DpcQueueDepth());
  const double ready_len = static_cast<double>(kernel_.ReadyQueueLength());
  const double work_depth = static_cast<double>(kernel_.WorkQueueDepth());
  if (registry_ != nullptr) {
    if (samples_ == nullptr) {
      dpc_depth_ = &registry_->HistogramSeries("kernel.dpc_queue_depth");
      ready_len_ = &registry_->HistogramSeries("kernel.ready_queue_len");
      work_depth_ = &registry_->HistogramSeries("kernel.work_queue_depth");
      samples_ = &registry_->CounterSeries("kernel.queue_samples");
    }
    dpc_depth_->RecordMs(dpc_depth);
    ready_len_->RecordMs(ready_len);
    work_depth_->RecordMs(work_depth);
    *samples_ += 1.0;
  }
  if (trace_ != nullptr) {
    const double ts = sim::CyclesToUs(kernel_.engine().now());
    trace_->Counter(ChromeTraceWriter::kSimPid, ts, "dpc queue depth", dpc_depth);
    trace_->Counter(ChromeTraceWriter::kSimPid, ts, "ready queue len", ready_len);
    trace_->Counter(ChromeTraceWriter::kSimPid, ts, "work queue depth", work_depth);
  }
  next_.ArmAfter(sim::MsToCycles(period_ms_));
}

void CollectRunCounters(kernel::Kernel& kernel, MetricsRegistry& registry) {
  // Dispatcher counters sum over every core (one dispatcher on UP).
  for (int core = 0; core < kernel.core_count(); ++core) {
    const kernel::Dispatcher& dispatcher = kernel.dispatcher(core);
    registry.Add("dispatcher.interrupts_accepted",
                 static_cast<double>(dispatcher.interrupts_accepted()));
    registry.Add("dispatcher.spurious_interrupts",
                 static_cast<double>(dispatcher.spurious_interrupts()));
    registry.Add("dispatcher.context_switches",
                 static_cast<double>(dispatcher.context_switches()));
    registry.Add("dispatcher.dpcs_dispatched",
                 static_cast<double>(dispatcher.dpcs_dispatched()));
    registry.Add("dispatcher.sections_run", static_cast<double>(dispatcher.sections_run()));
    registry.Add("dispatcher.sections_skipped",
                 static_cast<double>(dispatcher.sections_skipped()));
  }
  registry.Add("sim.events_processed", static_cast<double>(kernel.engine().events_processed()));
  if (const kernel::Smp* smp = kernel.smp()) {
    registry.Add("smp.ipis_sent", static_cast<double>(smp->ipis_sent()));
    registry.Add("smp.ipis_delivered", static_cast<double>(smp->ipis_delivered()));
    registry.Add("smp.dpc_migrations", static_cast<double>(smp->dpc_migrations()));
    registry.Add("smp.cross_core_wakes", static_cast<double>(smp->cross_core_wakes()));
    registry.Add("smp.steals", static_cast<double>(smp->steals()));
    double contentions = 0.0;
    double spin_ms = 0.0;
    contentions += static_cast<double>(smp->dispatcher_lock().contentions());
    spin_ms += sim::CyclesToMs(smp->dispatcher_lock().total_spin_cycles());
    for (int core = 0; core < smp->core_count(); ++core) {
      contentions += static_cast<double>(smp->dpc_lock(core).contentions());
      spin_ms += sim::CyclesToMs(smp->dpc_lock(core).total_spin_cycles());
    }
    registry.Add("smp.spinlock_contentions", contentions);
    registry.Add("smp.spinlock_spin_ms", spin_ms);
  }
}

}  // namespace wdmlat::obs
