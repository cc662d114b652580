// Reproduction of Figure 4: "Measured Interrupt and Thread Latencies under
// Load on Windows NT 4.0 and Windows 98" — six log-log panels, each with one
// series per application workload:
//
//   1. Windows NT 4.0 DPC interrupt latency           (1 .. 128 ms axis)
//   2. Windows 98 interrupt + DPC latency             (1 .. 128 ms axis)
//   3. Windows NT 4.0 thread latency, RT priority 28  (0.125 .. 128 ms)
//   4. Windows 98 thread latency, RT priority 28      (0.125 .. 128 ms)
//   5. Windows NT 4.0 thread latency, RT priority 24  (0.125 .. 128 ms)
//   6. Windows 98 thread latency, RT priority 24      (0.125 .. 128 ms)
//
// The 16-cell grid runs on the parallel ExperimentMatrix (WDMLAT_JOBS workers,
// default all cores); merged results are bit-identical for any job count, and
// the wall-clock speedup over the summed per-cell time is reported at the end.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/lab/matrix.h"
#include "src/report/loglog_plot.h"
#include "src/workload/stress_profile.h"

namespace {

using namespace wdmlat;

}  // namespace

int main() {
  const double minutes = bench::MeasurementMinutes(10.0);
  const std::uint64_t seed = bench::BenchSeed();
  const int jobs = bench::BenchJobs();
  std::printf(
      "Figure 4 reproduction: latency distributions under load, %.1f virtual\n"
      "minutes per cell (WDMLAT_MINUTES to change), %d parallel jobs\n"
      "(WDMLAT_JOBS to change).\n\n",
      minutes, jobs);

  // The paper's full grid: {NT, 98} x {office, workstation, games, web} x
  // {priority 28, 24}, with per-cell seeds derived from the master seed.
  lab::MatrixSpec spec = lab::PaperMatrix();
  spec.cell.stress_minutes = minutes;
  spec.master_seed = seed;
  const lab::ExperimentMatrix matrix(spec);
  const char kMarks[] = {'B', 'W', 'G', 'w'};

  std::printf("  measuring %zu cells...\n", matrix.cells().size());
  lab::MatrixRunOptions options;
  options.jobs = jobs;
  const lab::MatrixResult result = matrix.Run(options);
  std::printf("\n");

  // Panel helper: one series per workload for a fixed (os, priority, metric).
  // PaperMatrix orders oses {NT, 98} and priorities {28, 24}.
  auto panel = [&](const char* title, std::size_t os_index, std::size_t priority_index,
                   const stats::LatencyHistogram lab::MergedCell::* hist, double lo_ms) {
    std::vector<report::LatencySeries> series;
    for (std::size_t wl = 0; wl < spec.workloads.size(); ++wl) {
      const lab::MergedCell& cell =
          result.merged[matrix.GroupIndex(os_index, wl, priority_index)];
      series.push_back(
          report::LatencySeries{spec.workloads[wl].name, kMarks[wl], &(cell.*hist)});
    }
    std::fputs(report::RenderLatencyLogLog(title, series, lo_ms, 128.0).c_str(), stdout);
    std::printf("\n");
  };

  panel("Windows NT 4.0 DPC Interrupt Latency in Milliseconds", 0, 0,
        &lab::MergedCell::dpc_interrupt, 1.0);
  panel("Windows 98 Interrupt + DPC Latency in Milliseconds", 1, 0,
        &lab::MergedCell::dpc_interrupt, 1.0);
  panel("Windows NT4 Kernel Mode Thread (RT Priority 28) Latency in Millisecs", 0, 0,
        &lab::MergedCell::thread, 0.125);
  panel("Windows 98 Kernel Mode Thread (RT Priority 28) Latency in Millisecs", 1, 0,
        &lab::MergedCell::thread, 0.125);
  panel("Windows NT4 Kernel Mode Thread (RT Priority 24) Latency in Millisecs", 0, 1,
        &lab::MergedCell::thread, 0.125);
  panel("Windows 98 Kernel Mode Thread (RT Priority 24) Latency in Millisecs", 1, 1,
        &lab::MergedCell::thread, 0.125);

  // The paper's headline orderings (Section 4.2). Games is workload index 2.
  const lab::MergedCell& nt_hi_games = result.merged[matrix.GroupIndex(0, 2, 0)];
  const lab::MergedCell& nt_med_games = result.merged[matrix.GroupIndex(0, 2, 1)];
  const lab::MergedCell& w98_hi_games = result.merged[matrix.GroupIndex(1, 2, 0)];
  std::printf("Headline checks (99.99th percentile thread latency, 3D games):\n");
  const double nt_hi = nt_hi_games.thread.QuantileMs(0.9999);
  const double nt_med = nt_med_games.thread.QuantileMs(0.9999);
  const double w98_hi = w98_hi_games.thread.QuantileMs(0.9999);
  const double w98_dpc = w98_hi_games.isr_to_dpc.QuantileMs(0.9999);
  std::printf("  NT prio 28: %.3f ms   NT prio 24: %.3f ms   98 prio 28: %.3f ms\n", nt_hi,
              nt_med, w98_hi);
  std::printf("  98 DPC-from-ISR: %.3f ms\n", w98_dpc);
  std::printf("  98 thread / NT thread (28): %.1fx   98 thread / 98 DPC: %.1fx\n",
              w98_hi / nt_hi, w98_hi / w98_dpc);

  std::printf(
      "\nWall clock: %zu cells in %.2f s (%.2f s summed cell time) -> %.2fx speedup "
      "at %d jobs\n",
      matrix.cells().size(), result.wall_seconds, result.total_cell_seconds,
      result.Speedup(), jobs);
  return 0;
}
