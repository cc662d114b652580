// Reproduction of Table 3: "Observed Hourly, Daily and Weekly Worst Case
// Windows 98 Latencies (in ms.)" — with no sound scheme and no virus scanner
// on a PC 99 minimum system.
//
// For each of the four application stress loads, this bench measures the
// Windows 98 latency distributions with the paper's tool at thread
// priorities 28 and 24, extracts expected hourly/daily/weekly worst cases
// under the Section 3.1 usage model, and prints them next to the paper's
// values. The paper's measured interrupt latencies include the tool's
// ~1 PIT-period estimation offset; so do ours.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/kernel/profile.h"
#include "src/lab/matrix.h"
#include "src/report/ascii_table.h"
#include "src/stats/usage_model.h"
#include "src/workload/stress_profile.h"

namespace {

using namespace wdmlat;
using report::AsciiTable;

struct Cell {
  stats::WorstCases ours;
  const char* paper;
};

struct WorkloadResult {
  std::string name;
  // Rows of Table 3.
  stats::WorstCases isr;            // H/W Int. to S/W ISR
  stats::WorstCases isr_to_dpc;     // S/W ISR to DPC (delta)
  stats::WorstCases dpc;            // H/W Interrupt to DPC
  stats::WorstCases thread28;       // DPC to kernel RT thread (High)
  stats::WorstCases int_thread28;   // H/W Int. to kernel RT thread (High)
  stats::WorstCases thread24;       // DPC to kernel RT thread (Med.)
  stats::WorstCases int_thread24;   // H/W Int. to kernel RT thread (Med.)
};

// Extract the Table 3 rows for one workload from its two merged matrix
// groups (priority 28 = "High", 24 = "Med."), pooled over every trial.
WorkloadResult ExtractWorkload(const workload::StressProfile& stress,
                               const lab::MergedCell& hi, const lab::MergedCell& med) {
  WorkloadResult result;
  result.name = stress.name;

  const stats::UsageModel& usage = stress.usage;
  auto worst = [&](const stats::LatencyHistogram& hist, double rate) {
    // Plain empirical order statistics: daily/weekly columns saturate at the
    // observed maximum unless the run is long enough (WDMLAT_MINUTES >= ~300
    // resolves them; power-law extrapolation is available in stats:: but
    // overshoots the capped legacy-section distributions, so the headline
    // table stays empirical — see EXPERIMENTS.md).
    return stats::ComputeWorstCases(hist, rate, usage);
  };
  result.isr = worst(hi.interrupt, hi.samples_per_hour());
  result.isr_to_dpc = worst(hi.isr_to_dpc, hi.samples_per_hour());
  result.dpc = worst(hi.dpc_interrupt, hi.samples_per_hour());
  result.thread28 = worst(hi.thread, hi.samples_per_hour());
  result.int_thread28 = worst(hi.thread_interrupt, hi.samples_per_hour());
  result.thread24 = worst(med.thread, med.samples_per_hour());
  result.int_thread24 = worst(med.thread_interrupt, med.samples_per_hour());
  return result;
}

void PrintRow(AsciiTable& table, const char* service, const char* prefix,
              const std::vector<const stats::WorstCases*>& cells,
              const std::vector<const char*>& paper) {
  std::vector<std::string> row{service};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const stats::WorstCases& wc = *cells[i];
    row.push_back(std::string(prefix) + AsciiTable::Fmt(wc.hourly_ms) + " / " +
                  AsciiTable::Fmt(wc.daily_ms) + " / " + AsciiTable::Fmt(wc.weekly_ms));
    row.push_back(paper[i]);
  }
  table.AddRow(std::move(row));
}

}  // namespace

int main() {
  const double minutes = wdmlat::bench::MeasurementMinutes(8.0);
  const std::uint64_t seed = wdmlat::bench::BenchSeed();
  const int jobs = wdmlat::bench::BenchJobs();
  std::printf(
      "Table 3 reproduction: Windows 98 expected hourly/daily/weekly worst-case\n"
      "latencies (ms), no sound scheme, no virus scanner. %.1f virtual minutes\n"
      "per cell (WDMLAT_MINUTES to change), %d parallel jobs (WDMLAT_JOBS).\n"
      "Paper columns shown as hr/day/wk.\n\n",
      minutes, jobs);

  // The 98 half of the matrix: 1 OS x 4 workloads x {28, 24}, run in parallel.
  lab::MatrixSpec spec;
  spec.oses = {kernel::MakeWin98Profile()};
  spec.workloads = {workload::OfficeStress(), workload::WorkstationStress(),
                    workload::GamesStress(), workload::WebStress()};
  spec.priorities = {28, 24};
  spec.cell.stress_minutes = minutes;
  spec.master_seed = seed;
  const lab::ExperimentMatrix matrix(spec);

  std::printf("  measuring %zu cells...\n", matrix.cells().size());
  lab::MatrixRunOptions options;
  options.jobs = jobs;
  const lab::MatrixResult run = matrix.Run(options);

  std::vector<WorkloadResult> results;
  for (std::size_t wl = 0; wl < spec.workloads.size(); ++wl) {
    results.push_back(ExtractWorkload(spec.workloads[wl],
                                      run.merged[matrix.GroupIndex(0, wl, 0)],
                                      run.merged[matrix.GroupIndex(0, wl, 1)]));
  }
  std::printf("\n");

  AsciiTable table({"OS Service", "Office (ours)", "Office (paper)", "Workstation (ours)",
                    "Workstation (paper)", "3D Games (ours)", "3D Games (paper)",
                    "Web (ours)", "Web (paper)"});
  auto cells = [&](auto member) {
    std::vector<const wdmlat::stats::WorstCases*> out;
    for (const auto& result : results) {
      out.push_back(&(result.*member));
    }
    return out;
  };
  PrintRow(table, "H/W Int. to S/W ISR", "", cells(&WorkloadResult::isr),
           {"<1.0 / 1.4 / 1.6", "2.2 / 5.6 / 6.3", "8.8 / 9.7 / 12.2", "1.1 / 1.7 / 3.5"});
  PrintRow(table, "S/W ISR to DPC", "+", cells(&WorkloadResult::isr_to_dpc),
           {"+0.1 / 0.1 / 0.4", "+0.5 / 0.5 / 0.6", "+0.9 / 2.1 / 2.1", "+0.2 / 0.3 / 0.3"});
  PrintRow(table, "H/W Interrupt to DPC", "", cells(&WorkloadResult::dpc),
           {"1.0 / 1.5 / 2.0", "2.7 / 6.1 / 6.9", "9.7 / 12 / 14", "1.3 / 2.0 / 3.8"});
  table.AddRule();
  PrintRow(table, "DPC to kernel RT thread (High)", "+", cells(&WorkloadResult::thread28),
           {"+1.6 / 5.2 / 31", "+21 / 24 / 24", "+35 / 46 / 70", "+14 / 68 / 80"});
  PrintRow(table, "H/W Int. to RT thread (High)", "", cells(&WorkloadResult::int_thread28),
           {"2.6 / 6.7 / 33", "24 / 30 / 31", "45 / 58 / 84", "15 / 70 / 84"});
  PrintRow(table, "DPC to kernel RT thread (Med.)", "+", cells(&WorkloadResult::thread24),
           {"+3.1 / 6.7 / 31", "+21 / 23 / 24", "+36 / 47 / 70", "+51 / 68 / 80"});
  PrintRow(table, "H/W Int. to RT thread (Med.)", "", cells(&WorkloadResult::int_thread24),
           {"4.1 / 8.2 / 33", "24 / 29 / 31", "46 / 59 / 84", "52 / 70 / 84"});
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "\nShape checks (paper Section 4): games dominate interrupt latency; thread\n"
      "latency adds tens of ms on every workload; ISR->DPC adds <~2 ms.\n");
  std::printf(
      "\nWall clock: %zu cells in %.2f s (%.2f s summed cell time) -> %.2fx speedup "
      "at %d jobs\n",
      matrix.cells().size(), run.wall_seconds, run.total_cell_seconds, run.Speedup(),
      jobs);
  return 0;
}
