// wdmlat_run — command-line front end for the latency laboratory.
//
// Runs one experiment cell (OS personality × workload × measured thread
// priority × virtual duration), prints a summary, and optionally renders the
// Figure-4 style plot and/or exports CSVs for external plotting.
//
//   wdmlat_run --os=win98 --workload=games --priority=28 --minutes=10
//   wdmlat_run --os=nt4 --workload=web --priority=24 --plot
//   wdmlat_run --os=win98 --workload=office --csv-dir=out/ --scanner
//   wdmlat_run --matrix --jobs=4 --trials=2 --minutes=5
//
// Flags:
//   --os=nt4|win98|w2kbeta     OS personality             (default win98)
//   --workload=office|workstation|games|web|idle          (default games)
//   --priority=<16..31>        measured RT thread priority (default 28)
//   --minutes=<float>          virtual measurement minutes (default 10)
//   --seed=<uint>              RNG seed                    (default 1999)
//   --scanner                  enable the Plus!98 virus scanner (98 only)
//   --sounds                   enable the default sound scheme  (98 only)
//   --plot                     render the log-log distribution panel
//   --csv-dir=<dir>            export distributions as CSV
//   --worst-cases              print hourly/daily/weekly expected worst cases
//
// Observability (see EXPERIMENTS.md "Tracing & metrics"):
//   --trace-out=<file>         write a Chrome trace-event JSON (Perfetto /
//                              chrome://tracing); in matrix mode the sim
//                              tracks show the first cell, the host tracks
//                              show every cell on its pool worker
//   --metrics-out=<file>       write the run's MetricsRegistry as JSON
//   --metrics-csv=<file>       same registry as kind,name,field,value CSV
//   --queue-sample-ms=<float>  queue-depth sampling period (default 1.0,
//                              active only with --metrics-out/--trace-out)
//   --episode-threshold-us=<float>
//                              arm the episode flight recorder + cause tool
//                              at this thread latency; prints the
//                              attribution-accuracy report after the run
//   --anatomy-out=<file>       attach the causal LatencyAnatomy sink and write
//                              exact per-episode stage decompositions as JSON
//                              (matrix mode: per-group stage totals); requires
//                              --episode-threshold-us
//   --sketch                   stream thread latencies through the mergeable
//                              QuantileSketch; prints exact-tail quantiles
//
// Fault injection (see EXPERIMENTS.md "Fault plans"):
//   --faults=NAME|FILE         drive a fault plan alongside the workload: a
//                              built-in plan (virus_scan, irq_storm,
//                              masked_window) or a JSON plan file
//   --differential             run the cell twice from the same seed —
//                              baseline without the plan, perturbed with it —
//                              and print per-quantile / tail / worst-case
//                              deltas and the KS statistic (single-cell only)
//   --diff-out=FILE            write the differential report as JSON
//                              (top-level keys: plan, baseline, perturbed,
//                              shifts)
//   --diff-csv=FILE            write the differential report as CSV
//
// Matrix mode (parallel experiment grid; see EXPERIMENTS.md):
//   --matrix                   run the paper's full {NT,98} x {4 loads} x
//                              {prio 28,24} grid instead of a single cell;
//                              --seed is the master seed, per-cell seeds are
//                              SplitMix64-derived from the grid coordinates
//   --jobs=<N>                 worker threads (default: hardware cores);
//                              merged results are bit-identical for any N
//   --trials=<N>               independent seeds per cell, histograms merged
//                              (default 1)
//
// Supervised runs (imply --matrix; see EXPERIMENTS.md "Supervised runs"):
//   --journal=FILE             checkpoint each finished cell to this record
//                              log; re-running the same command resumes:
//                              verified cells are restored bit-exactly,
//                              missing/failed cells re-run, and the merged
//                              result is bit-identical to a fresh run. A log
//                              written under different grid flags or --seed
//                              is refused (exit 2)
//   --cell-timeout-ms=<F>      host-clock deadline budget per cell attempt
//   --cell-retries=<N>         attempts for host-transient failures (def. 3)
//   --audit-every-s=<F>        run the kernel invariant auditor every F
//                              virtual seconds inside each cell
//   --max-cells=<N>            run only cells [0, N) this run (exit 4; re-run
//                              the same --journal command to resume)
//   --audit-fail-cell=<N> / --throw-cell=<N>
//                              CI fixtures: inject an invariant violation /
//                              an exception into cell N (exit 3, the other
//                              cells still complete)
//
// Exit codes: 0 success, 2 usage/config error, 3 failed cells,
// 4 interrupted (--max-cells hit; the --journal record log is resumable).

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/fault/fault.h"
#include "src/fault/plan_json.h"
#include "src/kernel/profile.h"
#include "src/lab/csv_export.h"
#include "src/lab/differential.h"
#include "src/lab/fleet.h"
#include "src/lab/host_chaos.h"
#include "src/lab/lab.h"
#include "src/lab/matrix.h"
#include "src/lab/record_log.h"
#include "src/obs/anatomy.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/report/loglog_plot.h"
#include "src/runtime/fleet_supervisor.h"
#include "src/runtime/shard_runner.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/thread_pool.h"
#include "src/stats/usage_model.h"
#include "src/workload/stress_profile.h"

namespace {

using namespace wdmlat;

// The complete flag table. --help prints this to stdout and exits 0; the
// CLI contract test greps it for every flag the parser accepts, so a flag
// added to the parser without a row here fails CI.
constexpr const char kHelpText[] =
    "usage: wdmlat_run [flags]\n"
    "\n"
    "Experiment cell:\n"
    "  --os=NAME                  OS personality (default win98): nt4|win98|\n"
    "                             w2kbeta, or an SMP variant nt_smp2|nt_smp4|\n"
    "                             nt_smp2_migrate|nt_smp4_migrate\n"
    "  --workload=office|workstation|games|web|idle            (default games)\n"
    "  --priority=N               measured RT thread priority 16..31 (default 28)\n"
    "  --minutes=F                virtual measurement minutes  (default 10)\n"
    "  --seed=N                   RNG seed                     (default 1999)\n"
    "  --scanner                  enable the Plus!98 virus scanner (98 only)\n"
    "  --sounds                   enable the default sound scheme  (98 only)\n"
    "  --cores=N                  simulate an N-core NT SMP machine (default 1;\n"
    "                             needs --os=nt4; with --matrix adds an NT-SMP\n"
    "                             column to the grid; fleet specs say os=nt_smp2)\n"
    "  --dpc-affinity=pinned|migrating\n"
    "                             SMP DPC routing (default pinned; migrating also\n"
    "                             round-robins IRQs and enables work stealing)\n"
    "\n"
    "Output:\n"
    "  --plot                     render the log-log distribution panel\n"
    "  --csv-dir=DIR              export distributions as CSV\n"
    "  --worst-cases              print hourly/daily/weekly expected worst cases\n"
    "\n"
    "Observability (EXPERIMENTS.md \"Tracing & metrics\"):\n"
    "  --trace-out=FILE           write a Chrome trace-event JSON (Perfetto)\n"
    "  --metrics-out=FILE         write the run's MetricsRegistry as JSON\n"
    "  --metrics-csv=FILE         same registry as kind,name,field,value CSV\n"
    "  --queue-sample-ms=F        queue-depth sampling period (default 1.0)\n"
    "  --episode-threshold-us=F   arm the episode flight recorder + cause tool\n"
    "                             at this thread latency\n"
    "  --anatomy-out=FILE         decompose each episode into exact causal stage\n"
    "                             cycles (requires --episode-threshold-us); prints\n"
    "                             the anatomy report and writes episode JSON (in\n"
    "                             matrix mode: per-group stage totals)\n"
    "  --sketch                   stream thread latencies through the mergeable\n"
    "                             quantile sketch; prints exact-tail P50/P99/\n"
    "                             P99.9/P99.99 after the run\n"
    "\n"
    "Fault injection (EXPERIMENTS.md \"Fault plans\"):\n"
    "  --faults=NAME|FILE         built-in plan (virus_scan, irq_storm,\n"
    "                             masked_window) or a JSON plan file\n"
    "  --differential             A/B the cell with/without the plan (single cell)\n"
    "  --diff-out=FILE            write the differential report as JSON\n"
    "  --diff-csv=FILE            write the differential report as CSV\n"
    "\n"
    "Matrix mode (parallel experiment grid):\n"
    "  --matrix                   run the full {NT,98} x {4 loads} x {prio 28,24}\n"
    "                             grid; merged results are bit-identical for any\n"
    "                             --jobs value\n"
    "  --jobs=N                   worker threads (default: hardware cores)\n"
    "  --trials=N                 independent seeds per cell (default 1)\n"
    "\n"
    "Supervised runs (imply --matrix; EXPERIMENTS.md \"Supervised runs\"):\n"
    "  --journal=FILE             checkpoint finished cells to a record log;\n"
    "                             re-running the same command resumes from it\n"
    "  --cell-timeout-ms=F        host-clock deadline budget per cell attempt\n"
    "  --cell-retries=N           attempts for host-transient failures (default 3)\n"
    "  --audit-every-s=F          run the invariant auditor every F virtual secs\n"
    "  --max-cells=N              run only cells [0, N) (exit 4; resumable)\n"
    "  --audit-fail-cell=N        CI fixture: inject an invariant violation\n"
    "  --throw-cell=N             CI fixture: inject an exception into cell N\n"
    "\n"
    "Fleet mode (population scale; EXPERIMENTS.md \"Fleet recipe\"):\n"
    "  --fleet=FILE               run a population spec (JSON): shard across\n"
    "                             worker processes, stream-merge, write\n"
    "                             <dir>/fleet.json; re-running resumes from the\n"
    "                             shard record files for free\n"
    "  --shards=N                 worker processes to split the population over\n"
    "                             (default 1); merged report is bit-identical\n"
    "                             for any value\n"
    "  --shard=K/N                worker mode: run only shard K of N into the\n"
    "                             shard record file (spawned by the orchestrator;\n"
    "                             --jobs threads within the shard)\n"
    "  --fleet-out=DIR            fleet artifact directory (default fleet_out)\n"
    "  --shard-timeout-s=F        supervisor liveness deadline: SIGKILL and retry\n"
    "                             a worker whose shard file stops growing for F\n"
    "                             host seconds (0 = off; classified host_transient)\n"
    "  --shard-retries=N          attempts per shard window before poisoned-cell\n"
    "                             bisection starts (default 3)\n"
    "  --speculate                re-dispatch the slowest shard's remaining cells\n"
    "                             to an idle slot near the end of the run\n"
    "  --chaos-seed=N             deterministic host-chaos harness: kill, truncate,\n"
    "                             bit-flip and delay workers; the run self-heals to\n"
    "                             a byte-identical fleet.json\n"
    "  --poison-cell=N            CI fixture: abort() the worker while it executes\n"
    "                             cell N (bisection isolates it into the\n"
    "                             quarantine manifest)\n"
    "  --cell-lo=N / --cell-hi=M  worker mode: restrict the shard to cells [N,M)\n"
    "                             (spawned by the supervisor's bisection probes)\n"
    "  --quarantine=FILE          worker mode: skip cells listed in this JSONL\n"
    "                             quarantine manifest\n"
    "  --shard-out=FILE           worker mode: write shard records to FILE instead\n"
    "                             of the canonical shard path (speculative copies)\n"
    "  --chaos-kill-after-cells=N worker mode: raise(SIGKILL) after executing N\n"
    "                             cells (chaos harness internals)\n"
    "  --chaos-delay-ms=F         worker mode: sleep F host ms before starting\n"
    "\n"
    "  --help, -h                 print this flag table and exit 0\n"
    "\n"
    "Exit codes: 0 success, 2 usage/config error, 3 failed cells,\n"
    "4 interrupted (--max-cells hit; the --journal record log is resumable).\n";

[[noreturn]] void Help() {
  std::fputs(kHelpText, stdout);
  std::exit(0);
}

[[noreturn]] void Usage(const char* bad = nullptr) {
  if (bad != nullptr) {
    std::fprintf(stderr, "wdmlat_run: unrecognized argument '%s'\n\n", bad);
  }
  std::fprintf(stderr, "usage: wdmlat_run [flags]  (see wdmlat_run --help)\n");
  std::exit(2);
}

// One-line diagnostic + usage exit code, per the CLI contract: a bad
// argument must never start a multi-minute run.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "wdmlat_run: %s\n", message.c_str());
  std::exit(2);
}

// Strict numeric flag parsing: the whole value must parse, so --jobs=4x or a
// missing value fails loudly instead of silently becoming 0.
long ParseIntFlag(const char* flag, const std::string& value) {
  if (value.empty()) {
    Die(std::string(flag) + " requires a value");
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) {
    Die(std::string(flag) + "=" + value + " is not an integer");
  }
  return parsed;
}

std::uint64_t ParseU64Flag(const char* flag, const std::string& value) {
  if (value.empty()) {
    Die(std::string(flag) + " requires a value");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) {
    Die(std::string(flag) + "=" + value + " is not an unsigned integer");
  }
  return static_cast<std::uint64_t>(parsed);
}

double ParseDoubleFlag(const char* flag, const std::string& value) {
  if (value.empty()) {
    Die(std::string(flag) + " requires a value");
  }
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size()) {
    Die(std::string(flag) + "=" + value + " is not a number");
  }
  return parsed;
}

const std::string& RequireValue(const char* flag, const std::string& value) {
  if (value.empty()) {
    Die(std::string(flag) + " requires a value");
  }
  return value;
}

// Write `text` to `path`, reporting (but not failing on) I/O errors.
void WriteTextFile(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path);
  if (out) {
    out << text;
  }
  if (out.good()) {
    std::printf("wrote %s to %s\n", what, path.c_str());
  } else {
    std::fprintf(stderr, "wdmlat_run: failed to write %s to %s\n", what, path.c_str());
  }
}

bool MatchFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  if (arg[len] == '\0') {
    value->clear();
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// Value-taking flag: accepts both --name=VALUE and --name VALUE.
bool MatchValueFlag(int argc, char** argv, int* i, const char* name, std::string* value) {
  if (!MatchFlag(argv[*i], name, value)) {
    return false;
  }
  if (value->empty() && *i + 1 < argc) {
    *value = argv[++*i];
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string os_name = "win98";
  int cores = 0;              // 0 = profile default (uniprocessor)
  std::string dpc_affinity;   // "" = profile default (pinned)
  std::string workload_name = "games";
  int priority = 28;
  double minutes = 10.0;
  std::uint64_t seed = 1999;
  bool scanner = false;
  bool sounds = false;
  bool plot = false;
  bool worst_cases = false;
  bool matrix_mode = false;
  int jobs = runtime::ThreadPool::HardwareThreads();
  int trials = 1;
  std::string csv_dir;
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_csv;
  double queue_sample_ms = 1.0;
  double episode_threshold_us = 0.0;
  std::string anatomy_out;
  bool sketch = false;
  std::string faults_arg;
  bool differential = false;
  std::string diff_out;
  std::string diff_csv;
  std::string journal_path;
  double cell_timeout_ms = 0.0;
  int cell_retries = 3;
  double audit_every_s = 0.0;
  std::uint64_t max_cells = 0;
  long audit_fail_cell = -1;
  long throw_cell = -1;
  std::string fleet_spec_path;
  std::string shard_arg;
  std::uint64_t shards = 1;
  std::string fleet_out = "fleet_out";
  double shard_timeout_s = 0.0;
  int shard_retries = 3;
  bool speculate = false;
  std::uint64_t chaos_seed = 0;
  bool have_chaos_seed = false;
  long poison_cell = -1;
  std::uint64_t cell_lo = 0;
  std::uint64_t cell_hi = 0;
  std::string quarantine_file;
  std::string shard_out;
  std::uint64_t chaos_kill_after_cells = 0;
  double chaos_delay_ms = 0.0;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (MatchFlag(argv[i], "--matrix", &value)) {
      matrix_mode = true;
    } else if (MatchValueFlag(argc, argv, &i, "--jobs", &value)) {
      jobs = static_cast<int>(ParseIntFlag("--jobs", value));
    } else if (MatchValueFlag(argc, argv, &i, "--fleet", &value)) {
      fleet_spec_path = RequireValue("--fleet", value);
    } else if (MatchValueFlag(argc, argv, &i, "--shards", &value)) {
      shards = ParseU64Flag("--shards", value);
    } else if (MatchValueFlag(argc, argv, &i, "--shard", &value)) {
      shard_arg = RequireValue("--shard", value);
    } else if (MatchValueFlag(argc, argv, &i, "--fleet-out", &value)) {
      fleet_out = RequireValue("--fleet-out", value);
    } else if (MatchValueFlag(argc, argv, &i, "--shard-timeout-s", &value)) {
      shard_timeout_s = ParseDoubleFlag("--shard-timeout-s", value);
    } else if (MatchValueFlag(argc, argv, &i, "--shard-retries", &value)) {
      shard_retries = static_cast<int>(ParseIntFlag("--shard-retries", value));
    } else if (MatchFlag(argv[i], "--speculate", &value)) {
      speculate = true;
    } else if (MatchValueFlag(argc, argv, &i, "--chaos-seed", &value)) {
      chaos_seed = ParseU64Flag("--chaos-seed", value);
      have_chaos_seed = true;
    } else if (MatchValueFlag(argc, argv, &i, "--poison-cell", &value)) {
      poison_cell = ParseIntFlag("--poison-cell", value);
    } else if (MatchValueFlag(argc, argv, &i, "--cell-lo", &value)) {
      cell_lo = ParseU64Flag("--cell-lo", value);
    } else if (MatchValueFlag(argc, argv, &i, "--cell-hi", &value)) {
      cell_hi = ParseU64Flag("--cell-hi", value);
    } else if (MatchValueFlag(argc, argv, &i, "--quarantine", &value)) {
      quarantine_file = RequireValue("--quarantine", value);
    } else if (MatchValueFlag(argc, argv, &i, "--shard-out", &value)) {
      shard_out = RequireValue("--shard-out", value);
    } else if (MatchValueFlag(argc, argv, &i, "--chaos-kill-after-cells", &value)) {
      chaos_kill_after_cells = ParseU64Flag("--chaos-kill-after-cells", value);
    } else if (MatchValueFlag(argc, argv, &i, "--chaos-delay-ms", &value)) {
      chaos_delay_ms = ParseDoubleFlag("--chaos-delay-ms", value);
    } else if (MatchValueFlag(argc, argv, &i, "--trials", &value)) {
      trials = static_cast<int>(ParseIntFlag("--trials", value));
    } else if (MatchValueFlag(argc, argv, &i, "--os", &value)) {
      os_name = RequireValue("--os", value);
    } else if (MatchValueFlag(argc, argv, &i, "--cores", &value)) {
      cores = static_cast<int>(ParseIntFlag("--cores", value));
    } else if (MatchValueFlag(argc, argv, &i, "--dpc-affinity", &value)) {
      dpc_affinity = RequireValue("--dpc-affinity", value);
    } else if (MatchValueFlag(argc, argv, &i, "--workload", &value)) {
      workload_name = RequireValue("--workload", value);
    } else if (MatchValueFlag(argc, argv, &i, "--priority", &value)) {
      priority = static_cast<int>(ParseIntFlag("--priority", value));
    } else if (MatchValueFlag(argc, argv, &i, "--minutes", &value)) {
      minutes = ParseDoubleFlag("--minutes", value);
    } else if (MatchValueFlag(argc, argv, &i, "--seed", &value)) {
      seed = ParseU64Flag("--seed", value);
    } else if (MatchValueFlag(argc, argv, &i, "--journal", &value)) {
      journal_path = RequireValue("--journal", value);
    } else if (MatchValueFlag(argc, argv, &i, "--cell-timeout-ms", &value)) {
      cell_timeout_ms = ParseDoubleFlag("--cell-timeout-ms", value);
    } else if (MatchValueFlag(argc, argv, &i, "--cell-retries", &value)) {
      cell_retries = static_cast<int>(ParseIntFlag("--cell-retries", value));
    } else if (MatchValueFlag(argc, argv, &i, "--audit-every-s", &value)) {
      audit_every_s = ParseDoubleFlag("--audit-every-s", value);
    } else if (MatchValueFlag(argc, argv, &i, "--max-cells", &value)) {
      max_cells = ParseU64Flag("--max-cells", value);
    } else if (MatchValueFlag(argc, argv, &i, "--audit-fail-cell", &value)) {
      audit_fail_cell = ParseIntFlag("--audit-fail-cell", value);
    } else if (MatchValueFlag(argc, argv, &i, "--throw-cell", &value)) {
      throw_cell = ParseIntFlag("--throw-cell", value);
    } else if (MatchFlag(argv[i], "--scanner", &value)) {
      scanner = true;
    } else if (MatchFlag(argv[i], "--sounds", &value)) {
      sounds = true;
    } else if (MatchFlag(argv[i], "--plot", &value)) {
      plot = true;
    } else if (MatchFlag(argv[i], "--worst-cases", &value)) {
      worst_cases = true;
    } else if (MatchValueFlag(argc, argv, &i, "--csv-dir", &value)) {
      csv_dir = RequireValue("--csv-dir", value);
    } else if (MatchValueFlag(argc, argv, &i, "--trace-out", &value)) {
      trace_out = RequireValue("--trace-out", value);
    } else if (MatchValueFlag(argc, argv, &i, "--metrics-out", &value)) {
      metrics_out = RequireValue("--metrics-out", value);
    } else if (MatchValueFlag(argc, argv, &i, "--metrics-csv", &value)) {
      metrics_csv = RequireValue("--metrics-csv", value);
    } else if (MatchValueFlag(argc, argv, &i, "--queue-sample-ms", &value)) {
      queue_sample_ms = ParseDoubleFlag("--queue-sample-ms", value);
    } else if (MatchValueFlag(argc, argv, &i, "--episode-threshold-us", &value)) {
      episode_threshold_us = ParseDoubleFlag("--episode-threshold-us", value);
    } else if (MatchValueFlag(argc, argv, &i, "--faults", &value)) {
      faults_arg = RequireValue("--faults", value);
    } else if (MatchFlag(argv[i], "--differential", &value)) {
      differential = true;
    } else if (MatchValueFlag(argc, argv, &i, "--diff-out", &value)) {
      diff_out = RequireValue("--diff-out", value);
    } else if (MatchValueFlag(argc, argv, &i, "--diff-csv", &value)) {
      diff_csv = RequireValue("--diff-csv", value);
    } else if (MatchValueFlag(argc, argv, &i, "--anatomy-out", &value)) {
      anatomy_out = RequireValue("--anatomy-out", value);
    } else if (MatchFlag(argv[i], "--sketch", &value)) {
      sketch = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      Help();
    } else {
      Usage(argv[i]);
    }
  }
  if (priority < kernel::kMinRealTimePriority || priority > kernel::kMaxPriority) {
    std::fprintf(stderr, "wdmlat_run: --priority must be a real-time priority (16..31)\n");
    return 2;
  }
  if (minutes <= 0.0) {
    std::fprintf(stderr, "wdmlat_run: --minutes must be positive\n");
    return 2;
  }
  if (jobs < 1) {
    std::fprintf(stderr, "wdmlat_run: --jobs must be at least 1\n");
    return 2;
  }
  if (trials < 1) {
    std::fprintf(stderr, "wdmlat_run: --trials must be at least 1\n");
    return 2;
  }
  if (cores != 0 && (cores < 1 || cores > 32)) {
    std::fprintf(stderr, "wdmlat_run: --cores must be in 1..32\n");
    return 2;
  }
  if (!dpc_affinity.empty() && dpc_affinity != "pinned" &&
      dpc_affinity != "migrating") {
    std::fprintf(stderr,
                 "wdmlat_run: --dpc-affinity must be pinned or migrating\n");
    return 2;
  }
  if (!dpc_affinity.empty() && cores <= 1) {
    std::fprintf(stderr,
                 "wdmlat_run: --dpc-affinity only applies to an SMP cell "
                 "(pass --cores=N with N > 1)\n");
    return 2;
  }
  if (cell_retries < 1) {
    std::fprintf(stderr, "wdmlat_run: --cell-retries must be at least 1\n");
    return 2;
  }
  if (cell_timeout_ms < 0.0 || audit_every_s < 0.0) {
    std::fprintf(stderr,
                 "wdmlat_run: --cell-timeout-ms and --audit-every-s must be >= 0\n");
    return 2;
  }
  if (!anatomy_out.empty() && episode_threshold_us <= 0.0) {
    std::fprintf(stderr,
                 "wdmlat_run: --anatomy-out requires --episode-threshold-us "
                 "(anatomy decomposes flight-recorder episodes)\n");
    return 2;
  }
  // Any supervision knob implies matrix mode — the supervisor exists to keep
  // a grid running, and the resume fingerprint is defined over a grid spec.
  // Fleet mode reuses --cell-timeout-ms/--cell-retries for its own workers
  // and resumes from its shard record files, so it opts out.
  const bool supervised = !journal_path.empty() || cell_timeout_ms > 0.0 ||
                          audit_every_s > 0.0 || max_cells > 0 || audit_fail_cell >= 0 ||
                          throw_cell >= 0;
  if (supervised && fleet_spec_path.empty()) {
    matrix_mode = true;
  }
  if (!fleet_spec_path.empty() &&
      (!journal_path.empty() || audit_every_s > 0.0 || max_cells > 0 ||
       audit_fail_cell >= 0 || throw_cell >= 0)) {
    std::fprintf(stderr,
                 "wdmlat_run: --fleet resumes from its shard record files; "
                 "--journal/--audit-every-s/--max-cells and the CI fixtures are "
                 "matrix-mode flags\n");
    return 2;
  }

  // --faults resolves to a built-in plan name first, then a JSON plan file.
  fault::FaultPlan fault_plan;
  const bool have_faults = !faults_arg.empty();
  if (have_faults && !fault::FindBuiltinPlan(faults_arg, &fault_plan)) {
    std::string error;
    if (!fault::LoadFaultPlanFile(faults_arg, &fault_plan, &error)) {
      std::string builtins;
      for (const std::string& name : fault::BuiltinPlanNames()) {
        builtins += (builtins.empty() ? "" : ", ") + name;
      }
      std::fprintf(stderr, "wdmlat_run: --faults=%s: %s (built-ins: %s)\n",
                   faults_arg.c_str(), error.c_str(), builtins.c_str());
      return 2;
    }
  }
  if (!diff_out.empty() || !diff_csv.empty()) {
    differential = true;
  }
  if (differential && !have_faults) {
    std::fprintf(stderr, "wdmlat_run: --differential requires --faults\n");
    return 2;
  }
  if (differential && matrix_mode) {
    std::fprintf(stderr, "wdmlat_run: --differential is single-cell only (drop --matrix)\n");
    return 2;
  }

  // --- Fleet mode ------------------------------------------------------------
  if (!shard_arg.empty() && fleet_spec_path.empty()) {
    std::fprintf(stderr, "wdmlat_run: --shard is a worker flag and requires --fleet\n");
    return 2;
  }
  const bool fleet_worker_flags = cell_lo != 0 || cell_hi != 0 ||
                                  !quarantine_file.empty() || !shard_out.empty() ||
                                  chaos_kill_after_cells > 0 || chaos_delay_ms > 0.0;
  const bool fleet_supervisor_flags = shard_timeout_s > 0.0 || shard_retries != 3 ||
                                      speculate || have_chaos_seed || poison_cell >= 0;
  if ((fleet_worker_flags || fleet_supervisor_flags) && fleet_spec_path.empty()) {
    std::fprintf(stderr,
                 "wdmlat_run: --shard-timeout-s/--shard-retries/--speculate/"
                 "--chaos-seed/--poison-cell/--cell-lo/--cell-hi/--quarantine/"
                 "--shard-out/--chaos-kill-after-cells/--chaos-delay-ms are fleet "
                 "flags and require --fleet\n");
    return 2;
  }
  if (fleet_worker_flags && shard_arg.empty()) {
    std::fprintf(stderr,
                 "wdmlat_run: --cell-lo/--cell-hi/--quarantine/--shard-out/"
                 "--chaos-kill-after-cells/--chaos-delay-ms are worker flags and "
                 "require --shard (the supervisor passes them)\n");
    return 2;
  }
  if (!shard_arg.empty() &&
      (shard_timeout_s > 0.0 || shard_retries != 3 || speculate || have_chaos_seed)) {
    std::fprintf(stderr,
                 "wdmlat_run: --shard-timeout-s/--shard-retries/--speculate/"
                 "--chaos-seed are supervisor flags; drop --shard\n");
    return 2;
  }
  if (shard_retries < 1) {
    std::fprintf(stderr, "wdmlat_run: --shard-retries must be at least 1\n");
    return 2;
  }
  if (shard_timeout_s < 0.0 || chaos_delay_ms < 0.0) {
    std::fprintf(stderr,
                 "wdmlat_run: --shard-timeout-s and --chaos-delay-ms must be >= 0\n");
    return 2;
  }
  if (cell_hi != 0 && cell_lo >= cell_hi) {
    std::fprintf(stderr, "wdmlat_run: --cell-lo must be below --cell-hi\n");
    return 2;
  }
  if (!fleet_spec_path.empty()) {
    if (matrix_mode || differential || have_faults) {
      std::fprintf(stderr,
                   "wdmlat_run: --fleet is a self-contained mode (drop --matrix/"
                   "--differential/--faults; the spec carries its own priors)\n");
      return 2;
    }
    if (cores != 0 || !dpc_affinity.empty()) {
      std::fprintf(stderr,
                   "wdmlat_run: --cores/--dpc-affinity are cell flags; fleet "
                   "cohorts pick SMP via os=nt_smp2|nt_smp4|nt_smp2_migrate|"
                   "nt_smp4_migrate in the spec\n");
      return 2;
    }
    lab::FleetSpec spec;
    std::string error;
    if (!lab::LoadFleetSpec(fleet_spec_path, &spec, &error)) {
      std::fprintf(stderr, "wdmlat_run: --fleet=%s: %s\n", fleet_spec_path.c_str(),
                   error.c_str());
      return 2;
    }
    const lab::Fleet fleet(std::move(spec));
    if (!fleet.error().empty()) {
      std::fprintf(stderr, "wdmlat_run: --fleet=%s: %s\n", fleet_spec_path.c_str(),
                   fleet.error().c_str());
      return 2;
    }

    if (!shard_arg.empty()) {
      // Worker: run shard K of N into the shard record file and exit.
      const std::size_t slash = shard_arg.find('/');
      if (slash == std::string::npos) {
        Die("--shard wants K/N, e.g. --shard=0/4");
      }
      const std::uint64_t worker_shard =
          ParseU64Flag("--shard", shard_arg.substr(0, slash));
      const std::uint64_t worker_shards = ParseU64Flag("--shard", shard_arg.substr(slash + 1));
      if (worker_shards == 0 || worker_shard >= worker_shards) {
        Die("--shard=" + shard_arg + " wants 0 <= K < N");
      }
      lab::FleetShardOptions options;
      options.shard = static_cast<std::size_t>(worker_shard);
      options.shards = static_cast<std::size_t>(worker_shards);
      options.jobs = jobs;
      options.out_path = shard_out.empty()
                             ? lab::FleetShardPath(fleet_out, options.shard, options.shards)
                             : shard_out;
      options.supervision.cell_timeout_ms = cell_timeout_ms;
      options.supervision.max_attempts = cell_retries;
      options.cell_lo = cell_lo;
      options.cell_hi = cell_hi;
      options.poison_cell = poison_cell;
      options.chaos_kill_after_cells = chaos_kill_after_cells;
      options.chaos_delay_ms = chaos_delay_ms;
      if (!quarantine_file.empty()) {
        std::vector<lab::FleetQuarantineEntry> manifest;
        std::string qerror;
        if (!lab::LoadFleetQuarantine(quarantine_file, &manifest, &qerror)) {
          std::fprintf(stderr, "wdmlat_run: --quarantine=%s: %s\n",
                       quarantine_file.c_str(), qerror.c_str());
          return 2;
        }
        for (const lab::FleetQuarantineEntry& entry : manifest) {
          options.skip_cells.push_back(entry.cell);
        }
      }
      const lab::FleetShardResult result = lab::RunFleetShard(fleet, options);
      for (const std::string& warning : result.warnings) {
        std::fprintf(stderr, "wdmlat_run: shard %llu: warning: %s\n",
                     static_cast<unsigned long long>(worker_shard), warning.c_str());
      }
      if (!result.error.empty()) {
        std::fprintf(stderr, "wdmlat_run: shard %llu: %s\n",
                     static_cast<unsigned long long>(worker_shard), result.error.c_str());
        return 2;
      }
      for (const runtime::CellFailure& failure : result.failures) {
        std::fprintf(stderr, "wdmlat_run: shard %llu: %s\n",
                     static_cast<unsigned long long>(worker_shard),
                     failure.Render().c_str());
      }
      std::printf("shard %llu/%llu: %llu cells (%llu restored, %llu executed) in %.2f s\n",
                  static_cast<unsigned long long>(worker_shard),
                  static_cast<unsigned long long>(worker_shards),
                  static_cast<unsigned long long>(result.cells_total),
                  static_cast<unsigned long long>(result.cells_restored),
                  static_cast<unsigned long long>(result.cells_executed),
                  result.wall_seconds);
      return result.failures.empty() ? 0 : 3;
    }

    // Orchestrator: spawn one worker process per shard (crash isolation —
    // a dead worker costs one shard's tail, and a re-run resumes it), then
    // stream-merge the shard record files.
    if (shards == 0) {
      Die("--shards must be at least 1");
    }
    if (shards > fleet.cell_count()) {
      shards = fleet.cell_count();
    }
    ::mkdir(fleet_out.c_str(), 0777);  // EEXIST is fine; open errors surface below
    std::string self = runtime::SelfExecutable();
    if (self.empty()) {
      self = argv[0];
    }

    // The quarantine manifest survives re-runs: cells isolated by a previous
    // invocation stay skipped, so resume converges instead of re-tripping.
    const std::string quarantine_manifest = fleet_out + "/quarantine.jsonl";
    std::vector<lab::FleetQuarantineEntry> quarantined;
    {
      std::ifstream probe(quarantine_manifest);
      if (probe) {
        std::string qerror;
        if (!lab::LoadFleetQuarantine(quarantine_manifest, &quarantined, &qerror)) {
          std::fprintf(stderr, "wdmlat_run: %s: %s\n", quarantine_manifest.c_str(),
                       qerror.c_str());
          return 2;
        }
      }
    }

    // The one resume rule: shard files written under another spec are
    // refused before any worker starts, and left untouched.
    for (std::uint64_t k = 0; k < shards; ++k) {
      std::string spec_error;
      if (!lab::CheckRecordLogSpec(lab::FleetShardPath(fleet_out, static_cast<std::size_t>(k),
                                                       static_cast<std::size_t>(shards)),
                                   fleet.fingerprint(), &spec_error)) {
        std::fprintf(stderr, "wdmlat_run: %s\n", spec_error.c_str());
        return 2;
      }
    }

    std::printf(
        "wdmlat_run --fleet: \"%s\", %llu cells in %zu cohort(s), fingerprint %016llx,\n"
        "%llu shard process(es) (max %d concurrent) -> %s\n\n",
        fleet.spec().name.c_str(), static_cast<unsigned long long>(fleet.cell_count()),
        fleet.spec().cohorts.size(), static_cast<unsigned long long>(fleet.fingerprint()),
        static_cast<unsigned long long>(shards), jobs, fleet_out.c_str());

    // Supervised fleet: per-shard liveness deadlines, bounded retry with
    // backoff, poisoned-cell bisection and (optionally) straggler
    // speculation and the deterministic host-chaos harness. --jobs bounds
    // concurrent worker *processes*; each worker runs its shard
    // single-threaded (the shard file contract is per-process anyway).
    const lab::HostChaos host_chaos(chaos_seed);
    const std::string canonical_quarantine = quarantine_manifest;
    runtime::FleetSupervisorOptions sup;
    sup.shards = static_cast<std::size_t>(shards);
    sup.cell_count = static_cast<std::size_t>(fleet.cell_count());
    sup.max_parallel = static_cast<std::size_t>(jobs);
    sup.shard_timeout_s = shard_timeout_s;
    sup.max_attempts = shard_retries;
    sup.speculate = speculate;
    if (!quarantined.empty()) {
      sup.quarantine_path = canonical_quarantine;
    }
    sup.shard_path = [&](std::size_t k) {
      return lab::FleetShardPath(fleet_out, k, static_cast<std::size_t>(shards));
    };
    sup.cell_seed = [&](std::size_t cell) { return fleet.CellAt(cell).seed; };
    if (have_chaos_seed) {
      sup.chaos = [&](std::size_t k, int attempt) { return host_chaos.PlanFor(k, attempt); };
    }
    sup.spawn = [&](const runtime::FleetWorkerRequest& request, pid_t* pid,
                    std::string* spawn_error) {
      runtime::ShardProcess process;
      process.argv = {self,
                      "--fleet=" + fleet_spec_path,
                      "--shard=" + std::to_string(request.shard) + "/" +
                          std::to_string(shards),
                      "--fleet-out=" + fleet_out,
                      "--jobs=1"};
      if (cell_timeout_ms > 0.0) {
        process.argv.push_back("--cell-timeout-ms=" + std::to_string(cell_timeout_ms));
      }
      if (cell_retries != 3) {
        process.argv.push_back("--cell-retries=" + std::to_string(cell_retries));
      }
      if (request.cell_lo != 0) {
        process.argv.push_back("--cell-lo=" + std::to_string(request.cell_lo));
      }
      if (request.cell_hi != 0 && request.cell_hi < fleet.cell_count()) {
        process.argv.push_back("--cell-hi=" + std::to_string(request.cell_hi));
      }
      if (!request.quarantine_path.empty()) {
        process.argv.push_back("--quarantine=" + request.quarantine_path);
      }
      const std::string canonical =
          lab::FleetShardPath(fleet_out, request.shard, static_cast<std::size_t>(shards));
      if (request.out_path != canonical) {
        process.argv.push_back("--shard-out=" + request.out_path);
      }
      if (poison_cell >= 0) {
        process.argv.push_back("--poison-cell=" + std::to_string(poison_cell));
      }
      if (request.chaos.kill_after_cells > 0) {
        process.argv.push_back("--chaos-kill-after-cells=" +
                               std::to_string(request.chaos.kill_after_cells));
      }
      if (request.chaos.delay_ms > 0.0) {
        process.argv.push_back("--chaos-delay-ms=" + std::to_string(request.chaos.delay_ms));
      }
      return runtime::SpawnShardProcess(process, pid, spawn_error);
    };
    sup.on_quarantine = [&](const runtime::QuarantinedCell& cell) {
      lab::FleetQuarantineEntry entry;
      entry.cell = cell.cell;
      entry.seed = cell.seed;
      entry.taxonomy = runtime::FailureKindName(cell.kind);
      entry.attempts = cell.attempts;
      quarantined.push_back(entry);
      std::sort(quarantined.begin(), quarantined.end(),
                [](const lab::FleetQuarantineEntry& a, const lab::FleetQuarantineEntry& b) {
                  return a.cell < b.cell;
                });
      std::string qerror;
      if (!lab::SaveFleetQuarantine(canonical_quarantine, quarantined, &qerror)) {
        std::fprintf(stderr, "wdmlat_run: quarantine manifest: %s\n", qerror.c_str());
      }
      return canonical_quarantine;
    };
    sup.stitch = [&](std::size_t k, const std::string& main_path,
                     const std::string& spec_path, std::string* stitch_error) {
      return lab::StitchShardFiles(fleet, k, static_cast<std::size_t>(shards), main_path,
                                   spec_path, stitch_error);
    };
    sup.log = [](const std::string& line) {
      std::fprintf(stderr, "wdmlat_run: supervisor: %s\n", line.c_str());
    };
    const runtime::FleetSupervisorResult supervision = runtime::SuperviseFleet(sup);
    if (supervision.spawns > shards || supervision.heartbeat_kills > 0 ||
        supervision.bisect_probes > 0 || supervision.speculative_spawns > 0) {
      std::printf(
          "supervisor: %llu spawn(s), %llu retr%s, %llu heartbeat kill(s), "
          "%llu bisect probe(s), %llu speculative (%llu won)\n",
          static_cast<unsigned long long>(supervision.spawns),
          static_cast<unsigned long long>(supervision.retries),
          supervision.retries == 1 ? "y" : "ies",
          static_cast<unsigned long long>(supervision.heartbeat_kills),
          static_cast<unsigned long long>(supervision.bisect_probes),
          static_cast<unsigned long long>(supervision.speculative_spawns),
          static_cast<unsigned long long>(supervision.speculative_wins));
    }
    if (!supervision.ok()) {
      std::fprintf(stderr, "wdmlat_run: %s\n", supervision.error.c_str());
      std::fprintf(stderr,
                   "wdmlat_run: fleet workers failed; completed shard records are kept — "
                   "re-run the same command to resume\n");
      return 3;
    }

    std::vector<std::string> shard_paths;
    for (std::uint64_t k = 0; k < shards; ++k) {
      shard_paths.push_back(lab::FleetShardPath(fleet_out, static_cast<std::size_t>(k),
                                                static_cast<std::size_t>(shards)));
    }
    // Always merge degraded: quarantined cells become explicit coverage gaps
    // in fleet.json instead of a fatal merge error, and a damaged record that
    // slipped past the supervisor is quarantined rather than sinking the run.
    lab::FleetMergeOptions merge_options;
    merge_options.quarantined = quarantined;
    merge_options.allow_degraded = true;
    lab::FleetReport report;
    if (!lab::MergeFleetShards(fleet, shard_paths, merge_options, &report, &error)) {
      std::fprintf(stderr, "wdmlat_run: fleet merge: %s\n", error.c_str());
      return 3;
    }
    for (const std::string& warning : report.merge_warnings) {
      std::fprintf(stderr, "wdmlat_run: merge: %s\n", warning.c_str());
    }
    const std::string report_path = fleet_out + "/fleet.json";
    WriteTextFile(report_path, lab::FleetReportToJson(report), "fleet report JSON");

    std::printf("\nMerged cohorts (grid-order fold; bit-identical for any --shards/--jobs):\n");
    std::printf("  %-16s %-8s %-4s %9s %11s %9s %9s %9s %9s\n", "cohort", "os", "prio",
                "cells", "samples", "p50 ms", "p99 ms", "p99.9 ms", "max ms");
    for (const lab::FleetCohortReport& cohort : report.cohorts) {
      std::printf("  %-16s %-8s %-4d %9llu %11llu %9.3f %9.3f %9.3f %9.3f\n",
                  cohort.name.c_str(), cohort.os.c_str(), cohort.priority,
                  static_cast<unsigned long long>(cohort.cells),
                  static_cast<unsigned long long>(cohort.counters.samples),
                  cohort.thread.QuantileMs(0.5), cohort.thread.QuantileMs(0.99),
                  cohort.thread.QuantileMs(0.999), cohort.thread.max_ms());
    }
    if (report.cells_quarantined > 0) {
      std::printf("\nQUARANTINED %llu cell(s) — coverage is degraded (manifest: %s):\n",
                  static_cast<unsigned long long>(report.cells_quarantined),
                  canonical_quarantine.c_str());
      for (const lab::FleetQuarantineEntry& entry : report.quarantine) {
        std::printf("  cell %llu (seed %llu): %s after %d attempt(s)\n",
                    static_cast<unsigned long long>(entry.cell),
                    static_cast<unsigned long long>(entry.seed), entry.taxonomy.c_str(),
                    entry.attempts);
      }
    }
    return 0;
  }

  obs::ChromeTraceWriter trace_writer;
  obs::MetricsRegistry metrics;
  const bool want_metrics = !metrics_out.empty() || !metrics_csv.empty();

  if (matrix_mode) {
    lab::MatrixSpec spec = lab::PaperMatrix();
    if (cores > 1) {
      // NT-UP vs NT-SMP: add an SMP column to the paper grid (EXPERIMENTS.md
      // "NT-UP vs NT-SMP" recipe).
      spec.oses.push_back(
          kernel::MakeNt4SmpProfile(cores, dpc_affinity == "migrating"));
    }
    spec.trials = trials;
    spec.stress_minutes = minutes;
    spec.master_seed = seed;
    spec.options.virus_scanner = scanner;
    spec.options.sound_scheme =
        sounds ? vmm98::SchemeKind::kDefault : vmm98::SchemeKind::kNoSounds;
    spec.collect_metrics = want_metrics;
    spec.queue_sample_ms = queue_sample_ms;
    spec.episode_threshold_us = episode_threshold_us;
    spec.anatomy = !anatomy_out.empty();
    spec.sketch = sketch;
    if (have_faults) {
      spec.faults = &fault_plan;
    }
    if (!trace_out.empty()) {
      spec.trace_sink = &trace_writer;
    }
    const lab::ExperimentMatrix matrix(spec);

    std::printf(
        "wdmlat_run --matrix: %zu cells (%zu OS x %zu workloads x %zu priorities x %d "
        "trials),\n%.1f virtual minutes per cell, master seed %llu, %d jobs\n\n",
        matrix.cells().size(), spec.oses.size(), spec.workloads.size(),
        spec.priorities.size(), spec.trials, minutes,
        static_cast<unsigned long long>(seed), jobs);

    lab::MatrixRunOptions run_options;
    run_options.jobs = jobs;
    run_options.supervision.cell_timeout_ms = cell_timeout_ms;
    run_options.supervision.max_attempts = cell_retries;
    run_options.audit_every_s = audit_every_s;
    run_options.audit_fail_cell = audit_fail_cell;
    run_options.throw_cell = throw_cell;
    run_options.max_cells = static_cast<std::size_t>(max_cells);
    run_options.journal_path = journal_path;
    run_options.on_cell_done = [](const lab::MatrixCell& cell, lab::CellStatus status) {
      std::printf("  %s: %-16s %-18s prio %2d  trial %d  (seed %016llx)\n",
                  lab::CellStatusName(status), cell.config.os.name.c_str(),
                  cell.config.stress.name.c_str(), cell.config.thread_priority, cell.trial,
                  static_cast<unsigned long long>(cell.seed));
    };
    run_options.on_cell_failed = [](const runtime::CellFailure& failure) {
      std::fprintf(stderr, "wdmlat_run: %s\n", failure.Render().c_str());
    };

    const lab::MatrixResult result = matrix.Run(run_options);
    if (!result.error.empty()) {
      std::fprintf(stderr, "wdmlat_run: %s\n", result.error.c_str());
      return 2;
    }
    for (const std::string& warning : result.warnings) {
      std::fprintf(stderr, "wdmlat_run: warning: %s\n", warning.c_str());
    }
    if (result.cells_restored > 0) {
      std::printf("resumed: %zu cell(s) restored from %s, %zu executed\n",
                  result.cells_restored, journal_path.c_str(), result.cells_executed);
    }
    if (result.retries > 0) {
      std::printf("supervisor: %llu host-transient retr%s\n",
                  static_cast<unsigned long long>(result.retries),
                  result.retries == 1 ? "y" : "ies");
    }

    std::printf("\nMerged distributions (per OS x workload x priority group):\n");
    std::printf("  %-16s %-18s %-4s %-7s %-9s %9s %9s %9s\n", "OS", "workload", "prio",
                "trials", "samples", "p50 ms", "p99 ms", "max ms");
    for (const lab::MergedCell& group : result.merged) {
      std::printf("  %-16s %-18s %-4d %-7d %-9llu %9.3f %9.3f %9.3f\n",
                  group.os_name.c_str(), group.workload_name.c_str(),
                  group.thread_priority, group.trials,
                  static_cast<unsigned long long>(group.samples()),
                  group.thread.QuantileMs(0.5), group.thread.QuantileMs(0.99),
                  group.thread.max_ms());
    }
    std::printf(
        "\n%zu cells in %.2f s wall (%.2f s summed cell time, %.2fx speedup at "
        "--jobs=%d)\n",
        matrix.cells().size(), result.wall_seconds, result.total_cell_seconds,
        result.Speedup(), jobs);
    std::printf(
        "determinism: merged histograms are bit-identical for any --jobs value under "
        "master seed %llu\n",
        static_cast<unsigned long long>(seed));

    if (have_faults) {
      std::printf("\nFault plan \"%s\" (seed %llu) activations per group:\n",
                  fault_plan.name.c_str(),
                  static_cast<unsigned long long>(fault_plan.seed));
      for (const lab::MergedCell& group : result.merged) {
        std::printf("  %-16s %-18s prio %-2d  %llu activations\n", group.os_name.c_str(),
                    group.workload_name.c_str(), group.thread_priority,
                    static_cast<unsigned long long>(group.fault_activations));
      }
    }

    if (episode_threshold_us > 0.0) {
      std::printf("\nFlight-recorder episodes (threshold %.0f us):\n", episode_threshold_us);
      for (const lab::MergedCell& group : result.merged) {
        if (group.episodes == 0) {
          continue;
        }
        std::printf("  %-16s %-18s prio %-2d  %llu episodes, %llu attributed, "
                    "%llu module matches\n",
                    group.os_name.c_str(), group.workload_name.c_str(),
                    group.thread_priority,
                    static_cast<unsigned long long>(group.episodes),
                    static_cast<unsigned long long>(group.episodes_attributed),
                    static_cast<unsigned long long>(group.episode_module_matches));
      }
    }
    if (!anatomy_out.empty()) {
      std::printf("\nCausal anatomy (stage cycles pooled per group):\n");
      std::string json = "{\n  \"groups\": [";
      bool first = true;
      for (const lab::MergedCell& group : result.merged) {
        if (group.anatomy_episodes == 0) {
          continue;
        }
        sim::Cycles total = 0;
        for (const sim::Cycles cycles : group.anatomy_stage_cycles) {
          total += cycles;
        }
        std::printf("  %-16s %-18s prio %-2d  %llu episodes\n", group.os_name.c_str(),
                    group.workload_name.c_str(), group.thread_priority,
                    static_cast<unsigned long long>(group.anatomy_episodes));
        json += first ? "\n" : ",\n";
        first = false;
        json += "    {\"os\": \"" + group.os_name + "\", \"workload\": \"" +
                group.workload_name +
                "\", \"priority\": " + std::to_string(group.thread_priority) +
                ",\n     \"episodes\": " + std::to_string(group.anatomy_episodes) +
                ", \"stage_cycles\": {";
        for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
          const auto stage = static_cast<obs::AnatomyStage>(s);
          const sim::Cycles cycles = group.anatomy_stage_cycles[s];
          json += std::string(s == 0 ? "" : ", ") + "\"" + obs::AnatomyStageName(stage) +
                  "\": " + std::to_string(cycles);
          if (cycles > 0 && total > 0) {
            std::printf("    %-14s %12llu cycles  (%5.1f%%)\n", obs::AnatomyStageName(stage),
                        static_cast<unsigned long long>(cycles),
                        100.0 * static_cast<double>(cycles) / static_cast<double>(total));
          }
        }
        json += "}}";
      }
      json += first ? "]\n}\n" : "\n  ]\n}\n";
      WriteTextFile(anatomy_out, json, "anatomy stage totals JSON");
    }
    if (sketch) {
      std::printf("\nQuantile sketch (grid-order merged; deep tail exact):\n");
      std::printf("  %-16s %-18s %-4s %9s %9s %9s %9s\n", "OS", "workload", "prio",
                  "p50 ms", "p99 ms", "p99.9 ms", "p99.99 ms");
      for (const lab::MergedCell& group : result.merged) {
        std::printf("  %-16s %-18s %-4d %9.3f %9.3f %9.3f %9.3f\n", group.os_name.c_str(),
                    group.workload_name.c_str(), group.thread_priority,
                    group.thread_sketch.QuantileMs(0.5), group.thread_sketch.QuantileMs(0.99),
                    group.thread_sketch.QuantileMs(0.999),
                    group.thread_sketch.QuantileMs(0.9999));
      }
    }
    if (!trace_out.empty()) {
      lab::AppendHostTrace(trace_writer, matrix, result);
      if (trace_writer.WriteFile(trace_out)) {
        std::printf("wrote Chrome trace (%zu events) to %s\n", trace_writer.event_count(),
                    trace_out.c_str());
      } else {
        std::fprintf(stderr, "wdmlat_run: failed to write trace to %s\n", trace_out.c_str());
      }
    }
    if (!metrics_out.empty()) {
      WriteTextFile(metrics_out, result.metrics.ToJson(), "metrics JSON");
    }
    if (!metrics_csv.empty()) {
      WriteTextFile(metrics_csv, result.metrics.ToCsv(), "metrics CSV");
    }

    // Exit contract: 3 = cells failed (structured failures printed above),
    // 4 = interrupted by --max-cells (record log resumable), 0 = complete.
    for (const std::string& violation : result.merge_violations) {
      std::fprintf(stderr, "wdmlat_run: merge audit: %s\n", violation.c_str());
    }
    if (!result.failures.empty() || !result.merge_violations.empty()) {
      std::fprintf(stderr, "wdmlat_run: %zu cell(s) failed out of %zu\n",
                   result.failures.size(), matrix.cells().size());
      return 3;
    }
    if (result.cells_skipped > 0) {
      std::printf("interrupted after %zu cell(s) (--max-cells); %zu skipped%s\n",
                  result.cells_executed, result.cells_skipped,
                  journal_path.empty() ? "" : "; re-run without --max-cells to resume");
      return 4;
    }
    return 0;
  }

  lab::LabConfig config;
  if (os_name == "nt4") {
    config.os = cores > 1
                    ? kernel::MakeNt4SmpProfile(cores, dpc_affinity == "migrating")
                    : kernel::MakeNt4Profile();
  } else if (os_name == "win98") {
    config.os = kernel::MakeWin98Profile();
  } else if (os_name == "w2kbeta") {
    config.os = kernel::MakeWin2000BetaProfile();
  } else if (os_name == "nt_smp2") {
    config.os = kernel::MakeNt4SmpProfile(2, false);
  } else if (os_name == "nt_smp4") {
    config.os = kernel::MakeNt4SmpProfile(4, false);
  } else if (os_name == "nt_smp2_migrate") {
    config.os = kernel::MakeNt4SmpProfile(2, true);
  } else if (os_name == "nt_smp4_migrate") {
    config.os = kernel::MakeNt4SmpProfile(4, true);
  } else {
    Usage(("--os=" + os_name).c_str());
  }
  if (cores > 1 && os_name != "nt4") {
    std::fprintf(stderr,
                 "wdmlat_run: --cores=%d needs --os=nt4 (only the NT kernel "
                 "model is SMP-capable; the nt_smp* aliases already fix a "
                 "core count)\n",
                 cores);
    return 2;
  }
  if (workload_name == "office") {
    config.stress = workload::OfficeStress();
  } else if (workload_name == "workstation") {
    config.stress = workload::WorkstationStress();
  } else if (workload_name == "games") {
    config.stress = workload::GamesStress();
  } else if (workload_name == "web") {
    config.stress = workload::WebStress();
  } else if (workload_name == "idle") {
    config.stress = workload::IdleStress();
  } else {
    Usage(("--workload=" + workload_name).c_str());
  }
  config.thread_priority = priority;
  config.stress_minutes = minutes;
  config.seed = seed;
  config.options.virus_scanner = scanner;
  config.options.sound_scheme =
      sounds ? vmm98::SchemeKind::kDefault : vmm98::SchemeKind::kNoSounds;
  if (!trace_out.empty()) {
    config.obs.trace_sink = &trace_writer;
  }
  if (want_metrics) {
    config.obs.metrics = &metrics;
  }
  config.obs.queue_sample_ms = queue_sample_ms;
  config.obs.episode_threshold_us = episode_threshold_us;
  config.obs.anatomy = !anatomy_out.empty();
  config.obs.sketch = sketch;

  if (differential) {
    std::printf("wdmlat_run: %s, %s, priority %d, %.1f virtual minutes, seed %llu\n",
                config.os.name.c_str(), config.stress.name.c_str(), priority, minutes,
                static_cast<unsigned long long>(seed));
    std::printf("differential A/B: baseline vs. fault plan \"%s\" from the same seed\n\n",
                fault_plan.name.c_str());
    const lab::DifferentialReport diff = lab::RunDifferential(config, fault_plan);
    std::fputs(lab::RenderDifferentialTables(diff).c_str(), stdout);
    if (!diff_out.empty()) {
      WriteTextFile(diff_out, lab::DifferentialToJson(diff), "differential JSON");
    }
    if (!diff_csv.empty()) {
      WriteTextFile(diff_csv, lab::DifferentialToCsv(diff), "differential CSV");
    }
    return 0;
  }
  if (have_faults) {
    config.faults = &fault_plan;
  }

  std::printf("wdmlat_run: %s, %s, priority %d, %.1f virtual minutes, seed %llu\n",
              config.os.name.c_str(), config.stress.name.c_str(), priority, minutes,
              static_cast<unsigned long long>(seed));
  const lab::LabReport report = lab::RunLatencyExperiment(config);
  if (have_faults) {
    std::printf("fault plan \"%s\": %llu activation(s)\n", fault_plan.name.c_str(),
                static_cast<unsigned long long>(report.fault_activations));
  }

  std::printf("\n%llu samples (%.0f per hour)\n",
              static_cast<unsigned long long>(report.samples), report.samples_per_hour);
  auto line = [](const char* name, const stats::LatencyHistogram& hist) {
    std::printf("  %-22s p50 %8.3f  p99 %8.3f  p99.99 %8.3f  max %8.3f ms\n", name,
                hist.QuantileMs(0.5), hist.QuantileMs(0.99), hist.QuantileMs(0.9999),
                hist.max_ms());
  };
  line("DPC interrupt latency", report.dpc_interrupt);
  line("thread latency", report.thread);
  line("thread int latency", report.thread_interrupt);
  if (report.has_interrupt_latency) {
    line("interrupt latency", report.interrupt);
    line("ISR to DPC", report.isr_to_dpc);
  }

  if (worst_cases) {
    std::printf("\nExpected worst cases (hourly / daily / weekly, ms) under the %s usage "
                "model:\n",
                report.usage.category.c_str());
    auto worst = [&](const char* name, const stats::LatencyHistogram& hist) {
      const auto wc = stats::ComputeWorstCases(hist, report.samples_per_hour, report.usage);
      std::printf("  %-22s %6.1f / %6.1f / %6.1f\n", name, wc.hourly_ms, wc.daily_ms,
                  wc.weekly_ms);
    };
    worst("DPC interrupt latency", report.dpc_interrupt);
    worst("thread latency", report.thread);
    worst("thread int latency", report.thread_interrupt);
    if (report.has_interrupt_latency) {
      worst("interrupt latency", report.interrupt);
    }
  }

  if (plot) {
    std::printf("\n");
    std::vector<report::LatencySeries> series{
        {"DPC interrupt latency", 'D', &report.dpc_interrupt},
        {"thread latency", 'T', &report.thread},
    };
    std::fputs(report::RenderLatencyLogLog(report.os_name + " / " + report.workload_name,
                                           series, 0.125, 128.0)
                   .c_str(),
               stdout);
  }

  if (!csv_dir.empty()) {
    const std::string prefix = lab::DefaultCsvPrefix(report);
    const int files = lab::WriteReportCsv(report, csv_dir, prefix);
    std::printf("\nwrote %d CSV files to %s/%s_*.csv\n", files, csv_dir.c_str(),
                prefix.c_str());
  }

  if (episode_threshold_us > 0.0) {
    std::printf("\n%s", obs::RenderAttributionReport(report.episodes).c_str());
  }
  if (!anatomy_out.empty()) {
    std::printf("\n%s", obs::RenderAnatomyReport(report.anatomy).c_str());
    WriteTextFile(anatomy_out, obs::AnatomyToJson(report.anatomy), "anatomy JSON");
  }
  if (sketch) {
    const stats::QuantileSketch& qs = report.thread_sketch;
    std::printf("\nQuantile sketch (thread latency, %llu samples; deep tail exact):\n",
                static_cast<unsigned long long>(qs.count()));
    std::printf("  p50 %8.3f  p99 %8.3f  p99.9 %8.3f  p99.99 %8.3f  max %8.3f ms\n",
                qs.QuantileMs(0.5), qs.QuantileMs(0.99), qs.QuantileMs(0.999),
                qs.QuantileMs(0.9999), qs.max_ms());
  }
  if (!trace_out.empty()) {
    if (trace_writer.WriteFile(trace_out)) {
      std::printf("wrote Chrome trace (%zu events) to %s\n", trace_writer.event_count(),
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "wdmlat_run: failed to write trace to %s\n", trace_out.c_str());
    }
  }
  if (!metrics_out.empty()) {
    WriteTextFile(metrics_out, metrics.ToJson(), "metrics JSON");
  }
  if (!metrics_csv.empty()) {
    WriteTextFile(metrics_csv, metrics.ToCsv(), "metrics CSV");
  }
  return 0;
}
