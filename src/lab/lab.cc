#include "src/lab/lab.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "src/drivers/cause_tool.h"
#include "src/fault/injector.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/kernel_metrics.h"
#include "src/obs/trace_fanout.h"
#include "src/sim/invariant_auditor.h"
#include "src/workload/stress_load.h"

namespace wdmlat::lab {

namespace {

// Virtual slice length of a supervised run when no audit cadence dictates
// one.
constexpr double kSupervisedSliceS = 1.0;

// The supervised measurement phase: the same cycle-space span as a single
// RunUntil call, cut into slices so the watchdog and auditor get control
// between events without perturbing them. RunUntil fires exactly the events
// at or before its deadline and then advances now() to the deadline, so
// slicing the span is bit-identical to running it in one call.
void RunSupervisedPhase(TestSystem& system, const RunSupervision& sup, double seconds) {
  sim::InvariantAuditor auditor(system.engine());
  // One IRQL-discipline check per core (exactly one on UP), plus the SMP
  // cross-core invariants (spinlocks, runqueues, IPI conservation).
  for (int core = 0; core < system.kernel().core_count(); ++core) {
    kernel::Dispatcher* dispatcher = &system.kernel().dispatcher(core);
    auditor.AddCheck(core == 0 ? "dispatcher" : "dispatcher.core" + std::to_string(core),
                     [dispatcher](std::vector<std::string>* v) { dispatcher->AuditDiscipline(v); });
  }
  if (kernel::Smp* smp = system.kernel().smp()) {
    auditor.AddCheck("smp", [smp](std::vector<std::string>* v) { smp->Audit(v); });
  }
  const bool inject_violation = sup.fixture == RunSupervision::Fixture::kAuditViolation;
  if (inject_violation) {
    bool fired = false;
    auditor.AddCheck("fixture", [fired](std::vector<std::string>* v) mutable {
      if (!fired) {
        fired = true;
        v->push_back("injected audit violation (fixture)");
      }
    });
  }
  const bool auditing = sup.audit_every_s > 0.0 || inject_violation;
  const double slice_s =
      sup.audit_every_s > 0.0 ? sup.audit_every_s : kSupervisedSliceS;

  sim::Engine& engine = system.engine();
  const sim::Cycles deadline = engine.now() + sim::SecToCycles(seconds);
  while (engine.now() < deadline) {
    const sim::Cycles next =
        std::min(deadline, engine.now() + sim::SecToCycles(slice_s));
    engine.RunUntil(next);
    if (sup.fixture == RunSupervision::Fixture::kThrow) {
      throw std::runtime_error("injected cell failure (fixture)");
    }
    if (sup.watchdog != nullptr) {
      sup.watchdog->Check();
    }
    if (auditing) {
      const sim::AuditReport report = auditor.Audit();
      if (!report.ok()) {
        throw runtime::InvariantViolation(report.Render());
      }
    }
  }
  if (sup.audit_at_end) {
    const sim::AuditReport report = auditor.Audit();
    if (!report.ok()) {
      throw runtime::InvariantViolation(report.Render());
    }
  }
}

}  // namespace

LabReport RunLatencyExperiment(const LabConfig& config) {
  TestSystem system(config.os, config.seed, config.options);
  return RunLatencyExperimentOn(system, config);
}

LabReport RunLatencyExperimentOn(TestSystem& system, const LabConfig& config) {
  // The load, driver, sinks and sampler below are locals whose callbacks
  // stay registered in the system's kernel (the driver's PIT pre-hook and
  // threads among them). However the run ends, detach what the kernel
  // calls directly and mark the system spent, so it cannot run into them
  // again before a Reset.
  struct SpendOnExit {
    TestSystem& system;
    ~SpendOnExit() {
      system.kernel().SetTraceSink(nullptr);
      system.kernel().dispatcher().on_isr_entry = nullptr;
      system.MarkSpent();
    }
  } spend_on_exit{system};

  workload::StressLoad load(system.deps(), config.stress, system.ForkRng());

  drivers::LatencyDriver::Config driver_config = config.driver;
  driver_config.thread_priority = config.thread_priority;
  drivers::LatencyDriver driver(system.kernel(), driver_config);

  LabReport report;
  report.os_name = system.kernel().profile().name;
  report.workload_name = config.stress.name;
  report.thread_priority = config.thread_priority;
  report.usage = config.stress.usage;

  // --- Observability (optional, pure observers) ------------------------------
  const ObsOptions& obs = config.obs;
  obs::TraceFanout fanout;
  fanout.Add(obs.trace_sink);
  // One trailing ring per run: the supervision black box, or one of our own
  // when only the flight recorder needs it. A ring is a plain sink, so
  // arming it cannot perturb the run it may later have to explain.
  kernel::TraceRing* ring = config.supervision.black_box;
  std::optional<kernel::TraceRing> own_ring;
  if (ring == nullptr && obs.episode_threshold_us > 0.0) {
    ring = &own_ring.emplace();
  }
  fanout.Add(ring);
  std::unique_ptr<obs::KernelMetricsCollector> collector;
  if (obs.metrics != nullptr) {
    collector = std::make_unique<obs::KernelMetricsCollector>(*obs.metrics);
    fanout.Add(collector.get());
  }
  std::unique_ptr<drivers::CauseTool> cause_tool;
  std::unique_ptr<obs::EpisodeFlightRecorder> recorder;
  std::unique_ptr<obs::LatencyAnatomy> anatomy;
  if (obs.episode_threshold_us > 0.0) {
    drivers::CauseTool::Config tool_config;
    tool_config.threshold_ms = obs.episode_threshold_us / 1000.0;
    tool_config.max_episodes = obs.max_episodes;
    tool_config.sampling = obs.sampling;
    tool_config.nmi_period_ms = obs.nmi_period_ms;
    cause_tool = std::make_unique<drivers::CauseTool>(system.kernel(), driver, tool_config);
    cause_tool->Start();  // registers its long-latency callback first

    obs::EpisodeFlightRecorder::Config rec_config;
    rec_config.threshold_ms = obs.episode_threshold_us / 1000.0;
    rec_config.max_episodes = obs.max_episodes;
    recorder = std::make_unique<obs::EpisodeFlightRecorder>(system.kernel(), *ring, rec_config);
    recorder->Arm(driver, cause_tool.get());

    if (obs.anatomy) {
      obs::LatencyAnatomy::Config an_config;
      an_config.max_episodes = obs.max_episodes;
      anatomy = std::make_unique<obs::LatencyAnatomy>(an_config);
      fanout.Add(anatomy.get());
      // Registered third (after the cause tool and recorder) so anatomy
      // records pair by index with LabReport::episodes. The driver's sample
      // stamps are still live when the watches fire, giving the exact
      // [dpc_tsc, thread_tsc] window this latency was measured over.
      obs::LatencyAnatomy* sink = anatomy.get();
      drivers::LatencyDriver* drv = &driver;
      driver.AddLongLatencyCallback(
          obs.episode_threshold_us / 1000.0, [sink, drv](double ms) {
            const drivers::LatencyDriver::SampleStamps& stamps = drv->last_stamps();
            sink->OnEpisode(ms, stamps.dpc_tsc, stamps.thread_tsc);
          });
    }
  }
  if (obs.sketch) {
    // Each sample is recorded once; the registry's "driver.thread_ms" series
    // gets the run's sketch merged in at the end.
    stats::QuantileSketch* sketch = &report.thread_sketch;
    driver.on_sample = [sketch](double thread_ms) { sketch->RecordMs(thread_ms); };
  }
  if (!fanout.empty()) {
    system.kernel().SetTraceSink(&fanout);
  }
  // The writer sees counter samples only when both a trace and metrics are
  // requested for the same run (single-cell mode; matrix cells sample into
  // their per-cell registries without a shared writer).
  obs::QueueDepthSampler sampler(
      system.kernel(), obs.metrics,
      dynamic_cast<obs::ChromeTraceWriter*>(obs.trace_sink), obs.queue_sample_ms);
  if (obs.queue_sample_ms > 0.0 && (obs.metrics != nullptr || obs.trace_sink != nullptr)) {
    sampler.Start();
  }

  // Ground-truth PIT interrupt latency for every tick (assert -> ISR entry).
  const int pit_line = system.kernel().clock_interrupt()->line();
  system.kernel().dispatcher().on_isr_entry =
      [&report, pit_line](int line, sim::Cycles asserted, sim::Cycles entry) {
        if (line == pit_line) {
          report.true_pit_interrupt_latency.Record(entry - asserted);
        }
      };

  // Fault injector (optional). Constructed only for a non-empty plan so that
  // a no-fault run cannot differ from a pre-subsystem run; seeded from
  // (plan.seed, cell seed) — not from system.ForkRng(), which would advance
  // the workload's stream.
  std::unique_ptr<fault::Injector> injector;
  if (config.faults != nullptr && !config.faults->empty()) {
    fault::InjectorTargets targets;
    targets.kernel = &system.kernel();
    targets.disk = &system.disk_driver();
    injector = std::make_unique<fault::Injector>(targets, *config.faults, config.seed);
    injector->Start();
  }

  // Paper order: start the measurement tools, then launch the load
  // (Section 3.1.1), with a short warmup before counting samples.
  load.Start();
  system.RunFor(config.warmup_seconds);
  driver.Start();
  if (config.supervision.enabled()) {
    RunSupervisedPhase(system, config.supervision, config.stress_minutes * 60.0);
  } else {
    system.RunForMinutes(config.stress_minutes);
  }
  driver.Stop();
  if (injector != nullptr) {
    injector->Stop();
    report.fault_activations = injector->activation_count();
  }

  report.dpc_interrupt = driver.dpc_interrupt_latency();
  report.thread = driver.thread_latency();
  report.thread_interrupt = driver.thread_interrupt_latency();
  report.interrupt = driver.interrupt_latency();
  report.isr_to_dpc = driver.isr_to_dpc_latency();
  report.has_interrupt_latency = driver.measures_interrupt_latency();
  report.samples = driver.sample_count();
  report.samples_per_hour = driver.samples_per_hour();
  if (recorder != nullptr) {
    report.episodes = recorder->Summaries();
  }
  if (anatomy != nullptr) {
    report.anatomy = anatomy->episodes();
  }
  if (obs.metrics != nullptr) {
    // A run that records no sample leaves no empty "driver.thread_ms"
    // behind. Every run gets a fresh registry, so the merge into an empty
    // series exports what recording each sample there did.
    if (report.thread_sketch.count() > 0) {
      obs.metrics->SketchSeries("driver.thread_ms").Merge(report.thread_sketch);
    }
    obs::CollectRunCounters(system.kernel(), *obs.metrics);
    obs.metrics->Add("driver.samples", static_cast<double>(report.samples));
    obs.metrics->Set("driver.samples_per_hour", report.samples_per_hour);
    if (cause_tool != nullptr) {
      obs.metrics->Add("cause_tool.hook_samples",
                       static_cast<double>(cause_tool->hook_samples()));
      obs.metrics->Add("obs.episodes", static_cast<double>(report.episodes.size()));
    }
  }
  return report;
}

}  // namespace wdmlat::lab
