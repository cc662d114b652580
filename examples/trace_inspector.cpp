// Kernel trace inspection: the inside view of a loaded Windows 98 machine.
//
// The paper's cause tool infers culprits from outside (IP sampling on the
// PIT vector). Since our kernel is a simulation, we can also tap the
// dispatcher's structured event stream itself and get the exact
// ISR / DPC / section / lockout activity — useful for understanding what the
// stress loads actually generate and for debugging new workload models.
// Two sinks share the stream: obs::KernelMetricsCollector counts the whole
// run per activity, and a kernel::TraceRing keeps its newest events, which
// kernel::TopBlame ranks by raised-IRQL time.

#include <cstdio>
#include <vector>

#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/lab/test_system.h"
#include "src/obs/kernel_metrics.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_fanout.h"
#include "src/workload/stress_load.h"
#include "src/workload/stress_profile.h"

int main() {
  using namespace wdmlat;
  constexpr double kSeconds = 30.0;
  constexpr std::size_t kRecentEvents = 15;
  std::printf("Tracing 30 virtual seconds of Windows 98 under the 3D-games load\n\n");

  lab::TestSystem system(kernel::MakeWin98Profile(), 47);
  obs::MetricsRegistry metrics;
  obs::KernelMetricsCollector collector(metrics);
  kernel::TraceRing ring(8192);
  obs::TraceFanout fanout;
  fanout.Add(&collector);
  fanout.Add(&ring);
  system.kernel().dispatcher().set_trace_sink(&fanout);

  workload::StressLoad load(system.deps(), workload::GamesStress(), system.ForkRng());
  load.Start();
  system.kernel().SetClockFrequency(1000.0);
  system.RunFor(kSeconds);
  system.kernel().dispatcher().set_trace_sink(nullptr);

  std::printf("Top raised-IRQL time consumers in the last %zu events:\n", ring.size());
  for (const kernel::LabelTime& entry : kernel::TopBlame(ring, 0, 10)) {
    std::printf("  %s: %.3f ms over %llu occurrences\n", kernel::ToString(entry.label).c_str(),
                sim::CyclesToMs(entry.total),
                static_cast<unsigned long long>(entry.occurrences));
  }

  std::printf("Most recent events:\n");
  std::vector<kernel::TraceEvent> recent;
  ring.ForEach([&recent](const kernel::TraceEvent& event) { recent.push_back(event); });
  const std::size_t begin = recent.size() > kRecentEvents ? recent.size() - kRecentEvents : 0;
  for (std::size_t i = begin; i < recent.size(); ++i) {
    const kernel::TraceEvent& event = recent[i];
    std::printf("  [%.3f ms] %s %s", sim::CyclesToMs(event.tsc),
                kernel::TraceEventName(event.type), kernel::ToString(event.label).c_str());
    if (event.duration > 0) {
      std::printf(" (%.2f us)", sim::CyclesToUs(event.duration));
    }
    std::printf("\n");
  }

  // Whole-run rates that make the latency results intuitive.
  auto rate = [&metrics](const char* counter) {
    return metrics.counter(counter) / kSeconds;
  };
  std::printf("\nPer-second rates over the whole run:\n");
  std::printf("  interrupts serviced: %.0f/s\n", rate("kernel.isr.count"));
  std::printf("  DPCs dispatched:     %.0f/s\n", rate("kernel.dpc.count"));
  std::printf("  context switches:    %.0f/s\n", rate("kernel.context_switch.count"));
  std::printf("  kernel sections:     %.0f/s\n", rate("kernel.section.count"));
  std::printf("  dispatch lockouts:   %.1f/s\n", rate("kernel.lockout.count"));
  return 0;
}
