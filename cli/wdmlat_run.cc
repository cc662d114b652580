// wdmlat_run — command-line front end for the latency laboratory: one
// experiment cell, the paper's matrix, or a fleet population. `--help`
// prints the flag table below; the examples live in README.md and
// EXPERIMENTS.md.

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

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

// Every flag's value; defaults here are the documented defaults.
struct Flags {
  std::string os = "win98";
  std::string workload = "games";
  int priority = 28;
  double minutes = 10.0;
  std::uint64_t seed = 1999;
  bool scanner = false;
  bool sounds = false;
  int cores = 0;             // 0 = profile default (uniprocessor)
  std::string dpc_affinity;  // "" = profile default (pinned)
  bool plot = false;
  std::string csv_dir;
  bool worst_cases = false;
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_csv;
  double queue_sample_ms = 1.0;
  double episode_threshold_us = 0.0;
  std::string anatomy_out;
  bool sketch = false;
  std::string faults;
  bool differential = false;
  std::string diff_out;
  std::string diff_csv;
  bool matrix = false;
  int jobs = runtime::ThreadPool::HardwareThreads();
  int trials = 1;
  std::string journal;
  double cell_timeout_ms = 0.0;
  double audit_every_s = 0.0;
  std::uint64_t max_cells = 0;
  int audit_fail_cell = -1;
  int throw_cell = -1;
  std::string fleet;
  std::uint64_t shards = 1;
  std::string fleet_out = "fleet_out";
  double shard_timeout_s = 0.0;
  int shard_retries = 3;
  std::uint64_t chaos_seed = 0;
  int poison_cell = -1;
  std::string shard;
  std::uint64_t cell_lo = 0;
  std::uint64_t cell_hi = 0;
  std::string quarantine;
  std::uint64_t chaos_kill_after_cells = 0;
  double chaos_delay_ms = 0.0;
  bool help = false;

  std::set<std::string_view> given;  // names of the flags on the command line
  bool Given(std::string_view name) const { return given.count(name) > 0; }
};

// The modes a flag may be given in: bit i of FlagRow::modes is kModeNames[i].
enum Mode : unsigned { kCell = 1, kMatrix = 2, kFleet = 4, kWorker = 8 };
constexpr const char* kModeNames[] = {"cell", "matrix", "fleet", "fleet worker"};
constexpr unsigned kAllModes = kCell | kMatrix | kFleet | kWorker;

// --help section titles, printed before the first row of each section.
constexpr const char* kCellSection = "Experiment cell";
constexpr const char* kOutputSection = "Output (single cell)";
constexpr const char* kObsSection = "Observability (EXPERIMENTS.md \"Tracing & metrics\")";
constexpr const char* kFaultsSection = "Fault injection (EXPERIMENTS.md \"Fault plans\")";
constexpr const char* kMatrixSection = "Matrix mode (parallel experiment grid)";
constexpr const char* kSupervisedSection =
    "Supervised runs (imply --matrix; EXPERIMENTS.md \"Supervised runs\")";
constexpr const char* kFleetSection =
    "Fleet mode (population scale; EXPERIMENTS.md \"Fleet recipe\")";
constexpr const char* kWorkerSection =
    "Fleet worker (--fleet plus --shard; passed by the orchestrator)";
constexpr const char* kHelpSection = "Help";

// The value kind of a flag is the type of the Flags field it sets: bool
// flags are switches, the rest take --name=VALUE or --name VALUE.
using FlagField = std::variant<bool Flags::*, int Flags::*, std::uint64_t Flags::*,
                               double Flags::*, std::string Flags::*>;

struct FlagRow {
  const char* name;
  const char* metavar;  // "" for switches
  FlagField field;
  unsigned modes;       // Mode bits of the runs that read the flag
  bool implies_matrix;  // selects matrix mode unless --fleet is given
  const char* section;  // --help section title
  const char* help;     // '\n' continues the help on an indented line
};

// The flag table: parsing, --help and the mode rules all read it.
constexpr FlagRow kFlags[] = {
    {"--os", "NAME", &Flags::os, kCell, false, kCellSection,
     "OS personality (default win98): nt4|win98|w2kbeta,\n"
     "or SMP nt_smp2|nt_smp4|nt_smp2_migrate|nt_smp4_migrate"},
    {"--workload", "NAME", &Flags::workload, kCell, false, kCellSection,
     "office|workstation|games|web|idle (default games)"},
    {"--priority", "N", &Flags::priority, kCell, false, kCellSection,
     "measured RT thread priority 16..31 (default 28)"},
    {"--minutes", "F", &Flags::minutes, kCell | kMatrix, false, kCellSection,
     "virtual measurement minutes (default 10)"},
    {"--seed", "N", &Flags::seed, kCell | kMatrix, false, kCellSection,
     "RNG seed (default 1999); the matrix's master seed"},
    {"--scanner", "", &Flags::scanner, kCell | kMatrix, false, kCellSection,
     "enable the Plus!98 virus scanner (98 only)"},
    {"--sounds", "", &Flags::sounds, kCell | kMatrix, false, kCellSection,
     "enable the default sound scheme (98 only)"},
    {"--cores", "N", &Flags::cores, kCell | kMatrix, false, kCellSection,
     "simulate an N-core NT SMP machine (default 1; needs\n"
     "--os=nt4; with --matrix adds an NT-SMP grid column)"},
    {"--dpc-affinity", "pinned|migrating", &Flags::dpc_affinity, kCell | kMatrix, false,
     kCellSection,
     "SMP DPC routing (default pinned; migrating also\n"
     "round-robins IRQs and enables work stealing)"},
    {"--plot", "", &Flags::plot, kCell, false, kOutputSection,
     "render the log-log distribution panel"},
    {"--csv-dir", "DIR", &Flags::csv_dir, kCell, false, kOutputSection,
     "export distributions as CSV"},
    {"--worst-cases", "", &Flags::worst_cases, kCell, false, kOutputSection,
     "print hourly/daily/weekly expected worst cases"},
    {"--trace-out", "FILE", &Flags::trace_out, kCell | kMatrix, false, kObsSection,
     "write a Chrome trace-event JSON (Perfetto)"},
    {"--metrics-out", "FILE", &Flags::metrics_out, kCell | kMatrix, false, kObsSection,
     "write the run's MetricsRegistry as JSON"},
    {"--metrics-csv", "FILE", &Flags::metrics_csv, kCell | kMatrix, false, kObsSection,
     "same registry as kind,name,field,value CSV"},
    {"--queue-sample-ms", "F", &Flags::queue_sample_ms, kCell | kMatrix, false, kObsSection,
     "queue-depth sampling period (default 1.0)"},
    {"--episode-threshold-us", "F", &Flags::episode_threshold_us, kCell | kMatrix, false,
     kObsSection, "arm the episode flight recorder + cause tool"},
    {"--anatomy-out", "FILE", &Flags::anatomy_out, kCell | kMatrix, false, kObsSection,
     "write exact causal stage decompositions of each\n"
     "episode as JSON (needs --episode-threshold-us)"},
    {"--sketch", "", &Flags::sketch, kCell | kMatrix, false, kObsSection,
     "print exact-tail P50..P99.99 from the mergeable\n"
     "quantile sketch"},
    {"--faults", "NAME|FILE", &Flags::faults, kCell | kMatrix, false, kFaultsSection,
     "built-in plan (virus_scan, irq_storm,\n"
     "masked_window) or a JSON plan file"},
    {"--differential", "", &Flags::differential, kCell, false, kFaultsSection,
     "A/B the cell with/without the plan"},
    {"--diff-out", "FILE", &Flags::diff_out, kCell, false, kFaultsSection,
     "write the differential report as JSON"},
    {"--diff-csv", "FILE", &Flags::diff_csv, kCell, false, kFaultsSection,
     "write the differential report as CSV"},
    {"--matrix", "", &Flags::matrix, kMatrix, true, kMatrixSection,
     "run the {NT,98} x {4 loads} x {prio 28,24} grid;\n"
     "merged results are bit-identical for any --jobs"},
    {"--jobs", "N", &Flags::jobs, kMatrix | kFleet | kWorker, false, kMatrixSection,
     "worker threads (default: hardware cores); with\n"
     "--fleet, concurrent worker processes"},
    {"--trials", "N", &Flags::trials, kMatrix, false, kMatrixSection,
     "independent seeds per cell (default 1)"},
    {"--journal", "FILE", &Flags::journal, kMatrix, true, kSupervisedSection,
     "checkpoint finished cells to a record log;\n"
     "re-running the same command resumes from it"},
    {"--cell-timeout-ms", "F", &Flags::cell_timeout_ms, kMatrix | kFleet | kWorker, true,
     kSupervisedSection, "host-clock deadline budget per cell"},
    {"--audit-every-s", "F", &Flags::audit_every_s, kMatrix, true, kSupervisedSection,
     "run the invariant auditor every F virtual secs"},
    {"--max-cells", "N", &Flags::max_cells, kMatrix, true, kSupervisedSection,
     "run only cells [0, N) (exit 4; resumable)"},
    {"--audit-fail-cell", "N", &Flags::audit_fail_cell, kMatrix, true, kSupervisedSection,
     "CI fixture: inject an invariant violation"},
    {"--throw-cell", "N", &Flags::throw_cell, kMatrix, true, kSupervisedSection,
     "CI fixture: inject an exception into cell N"},
    {"--fleet", "FILE", &Flags::fleet, kFleet | kWorker, false, kFleetSection,
     "run a population spec (JSON) across worker\n"
     "processes into <dir>/fleet.json; re-running resumes"},
    {"--shards", "N", &Flags::shards, kFleet, false, kFleetSection,
     "worker processes to split the population over\n"
     "(default 1); fleet.json is bit-identical for any N"},
    {"--fleet-out", "DIR", &Flags::fleet_out, kFleet | kWorker, false, kFleetSection,
     "fleet artifact directory (default fleet_out)"},
    {"--shard-timeout-s", "F", &Flags::shard_timeout_s, kFleet, false, kFleetSection,
     "SIGKILL and retry a worker whose shard file stops\n"
     "growing for F host seconds (0 = off)"},
    {"--shard-retries", "N", &Flags::shard_retries, kFleet, false, kFleetSection,
     "attempts per shard window before poisoned-cell\n"
     "bisection starts (default 3)"},
    {"--chaos-seed", "N", &Flags::chaos_seed, kFleet, false, kFleetSection,
     "host-chaos harness: kill, truncate, bit-flip and\n"
     "delay workers; fleet.json stays byte-identical"},
    {"--poison-cell", "N", &Flags::poison_cell, kFleet | kWorker, false, kFleetSection,
     "CI fixture: abort() the worker running cell N\n"
     "(bisection quarantines it)"},
    {"--shard", "K/N", &Flags::shard, kWorker, false, kWorkerSection,
     "run only shard K of N into its shard record file"},
    {"--cell-lo", "N", &Flags::cell_lo, kWorker, false, kWorkerSection,
     "restrict the shard to cells [N, --cell-hi)"},
    {"--cell-hi", "M", &Flags::cell_hi, kWorker, false, kWorkerSection,
     "restrict the shard to cells [--cell-lo, M)"},
    {"--quarantine", "FILE", &Flags::quarantine, kWorker, false, kWorkerSection,
     "skip cells listed in this quarantine manifest"},
    {"--chaos-kill-after-cells", "N", &Flags::chaos_kill_after_cells, kWorker, false,
     kWorkerSection, "raise(SIGKILL) after executing N cells"},
    {"--chaos-delay-ms", "F", &Flags::chaos_delay_ms, kWorker, false, kWorkerSection,
     "sleep F host ms before starting"},
    {"--help", "", &Flags::help, kAllModes, false, kHelpSection,
     "print this flag table and exit 0 (also -h)"},
};

[[noreturn]] void Help() {
  std::printf(
      "usage: wdmlat_run [flags]\n\n"
      "Modes: one experiment cell (default); --matrix, or any supervised-run\n"
      "flag, runs the paper grid; --fleet FILE orchestrates a population and\n"
      "--fleet FILE --shard K/N is one of its workers. A flag given in a mode\n"
      "that does not read it is a usage error.\n");
  const std::string indent(29, ' ');
  const char* section = "";
  for (const FlagRow& row : kFlags) {
    if (std::strcmp(row.section, section) != 0) {
      section = row.section;
      std::printf("\n%s:\n", section);
    }
    std::string line = std::string("  ") + row.name;
    if (row.metavar[0] != '\0') {
      line += std::string("=") + row.metavar;
    }
    if (line.size() < indent.size()) {
      line.resize(indent.size(), ' ');
    } else {
      line += "\n" + indent;
    }
    for (const char* c = row.help; *c != '\0'; ++c) {
      line += *c == '\n' ? "\n" + indent : std::string(1, *c);
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf(
      "\nExit codes: 0 success, 2 usage/config error, 3 failed cells,\n"
      "4 interrupted (--max-cells hit; the --journal record log is resumable).\n");
  std::exit(0);
}

// One-line diagnostic + usage exit code, per the CLI contract: a bad
// argument must never start a multi-minute run.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "wdmlat_run: %s\n", message.c_str());
  std::exit(2);
}

// Strict numeric parsing: the whole value must parse, so --jobs=4x, --seed=-1
// or an out-of-range value fails loudly instead of silently becoming 0.
template <typename T>
T ParseNumber(std::string_view flag, const std::string& value) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) {
    Die(std::string(flag) + "=" + value + " is not a valid " +
        (std::is_floating_point_v<T> ? "number" : "integer"));
  }
  return parsed;
}

// Parse argv against kFlags: switches take no value, every other flag takes
// --name=VALUE or --name VALUE.
Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
    const std::size_t eq = arg.find('=');
    const FlagRow* row = std::find_if(std::begin(kFlags), std::end(kFlags), [&](const FlagRow& r) {
      return arg.substr(0, eq) == r.name;
    });
    if (row == std::end(kFlags)) {
      std::fprintf(stderr, "wdmlat_run: unrecognized argument '%s'\n\n", argv[i]);
      std::fprintf(stderr, "usage: wdmlat_run [flags]  (see wdmlat_run --help)\n");
      std::exit(2);
    }
    flags.given.insert(row->name);
    const bool is_switch = std::holds_alternative<bool Flags::*>(row->field);
    std::string value;
    if (eq != std::string_view::npos) {
      if (is_switch) {
        Die(std::string(row->name) + " takes no value");
      }
      value = arg.substr(eq + 1);
    } else if (!is_switch && i + 1 < argc) {
      value = argv[++i];
    }
    if (!is_switch && value.empty()) {
      Die(std::string(row->name) + " requires a value");
    }
    std::visit(
        [&](auto member) {
          auto& field = flags.*member;
          using T = std::remove_reference_t<decltype(field)>;
          if constexpr (std::is_same_v<T, bool>) {
            field = true;
          } else if constexpr (std::is_same_v<T, std::string>) {
            field = value;
          } else {
            field = ParseNumber<T>(row->name, value);
          }
        },
        row->field);
  }
  return flags;
}

// The run mode the flags select, and the one rule that keeps them honest: a
// flag given in a mode that does not read it is a usage error.
Mode SelectMode(const Flags& flags) {
  Mode mode = kCell;
  if (flags.Given("--fleet")) {
    mode = flags.Given("--shard") ? kWorker : kFleet;
  } else if (std::any_of(std::begin(kFlags), std::end(kFlags), [&](const FlagRow& row) {
               return row.implies_matrix && flags.Given(row.name);
             })) {
    mode = kMatrix;
  }
  for (const FlagRow& row : kFlags) {
    if (!flags.Given(row.name) || (row.modes & mode) != 0) {
      continue;
    }
    std::string readers;
    for (int bit = 0; bit < 4; ++bit) {
      if ((row.modes & (1u << bit)) != 0) {
        readers += std::string(readers.empty() ? "" : ", ") + kModeNames[bit];
      }
    }
    Die(std::string(row.name) + " is not read in " +
        kModeNames[std::countr_zero(static_cast<unsigned>(mode))] + " mode (it applies to: " +
        readers + ")");
  }
  return mode;
}

// Write `text` to `path`, reporting (but not failing on) I/O errors.
void WriteTextFile(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path);
  if (out) {
    out << text;
    out.close();  // flushes: a full disk fails here, not at operator<<
  }
  if (!out.fail()) {
    std::printf("wrote %s to %s\n", what, path.c_str());
  } else {
    std::fprintf(stderr, "wdmlat_run: failed to write %s to %s\n", what, path.c_str());
  }
}

// --faults resolves to a built-in plan name first, then a JSON plan file.
fault::FaultPlan LoadFaultPlan(const std::string& arg) {
  fault::FaultPlan plan;
  if (arg.empty() || fault::FindBuiltinPlan(arg, &plan)) {
    return plan;
  }
  std::string error;
  if (!fault::LoadFaultPlanFile(arg, &plan, &error)) {
    std::string builtins;
    for (const std::string& name : fault::BuiltinPlanNames()) {
      builtins += (builtins.empty() ? "" : ", ") + name;
    }
    Die("--faults=" + arg + ": " + error + " (built-ins: " + builtins + ")");
  }
  return plan;
}

void WriteTrace(const obs::ChromeTraceWriter& trace_writer, const std::string& path) {
  if (trace_writer.WriteFile(path)) {
    std::printf("wrote Chrome trace (%zu events) to %s\n", trace_writer.event_count(),
                path.c_str());
  } else {
    std::fprintf(stderr, "wdmlat_run: failed to write trace to %s\n", path.c_str());
  }
}

// The cell both modes run, from the flags they share: duration, seed,
// machine options and the obs knobs. The matrix takes each cell's os,
// workload, priority and seed from its grid instead.
lab::LabConfig CellConfigFromFlags(const Flags& f) {
  lab::LabConfig config;
  config.stress_minutes = f.minutes;
  config.seed = f.seed;
  config.options.virus_scanner = f.scanner;
  config.options.sound_scheme =
      f.sounds ? vmm98::SchemeKind::kDefault : vmm98::SchemeKind::kNoSounds;
  config.obs.queue_sample_ms = f.queue_sample_ms;
  config.obs.episode_threshold_us = f.episode_threshold_us;
  config.obs.anatomy = !f.anatomy_out.empty();
  config.obs.sketch = f.sketch;
  return config;
}

int RunCell(const Flags& f) {
  const bool differential = f.differential || !f.diff_out.empty() || !f.diff_csv.empty();
  if (differential && f.faults.empty()) {
    Die("--differential requires --faults");
  }
  const fault::FaultPlan fault_plan = LoadFaultPlan(f.faults);
  lab::LabConfig config = CellConfigFromFlags(f);
  if (!lab::OsProfileByName(f.os, &config.os)) {
    Die("--os=" + f.os + " is not an OS personality (" + lab::kOsNames + ")");
  }
  if (f.cores > 1 && f.os != "nt4") {
    Die("--cores=" + std::to_string(f.cores) +
        " needs --os=nt4 (only the NT kernel model is SMP-capable; the nt_smp* aliases "
        "already fix a core count)");
  }
  if (f.cores > 1) {
    config.os = kernel::MakeNt4SmpProfile(f.cores, f.dpc_affinity == "migrating");
  }
  if (!lab::WorkloadByName(f.workload, &config.stress)) {
    Die("--workload=" + f.workload + " is not a workload (" + lab::kWorkloadNames + ")");
  }
  config.thread_priority = f.priority;
  obs::ChromeTraceWriter trace_writer;
  if (!f.trace_out.empty()) {
    config.obs.trace_sink = &trace_writer;
  }
  obs::MetricsRegistry metrics;
  if (!f.metrics_out.empty() || !f.metrics_csv.empty()) {
    config.obs.metrics = &metrics;
  }

  if (differential) {
    std::printf("wdmlat_run: %s, %s, priority %d, %.1f virtual minutes, seed %llu\n",
                config.os.name.c_str(), config.stress.name.c_str(), f.priority, f.minutes,
                static_cast<unsigned long long>(f.seed));
    std::printf("differential A/B: baseline vs. fault plan \"%s\" from the same seed\n\n",
                fault_plan.name.c_str());
    const lab::DifferentialReport diff = lab::RunDifferential(config, fault_plan);
    std::fputs(lab::RenderDifferentialTables(diff).c_str(), stdout);
    if (!f.diff_out.empty()) {
      WriteTextFile(f.diff_out, lab::DifferentialToJson(diff), "differential JSON");
    }
    if (!f.diff_csv.empty()) {
      WriteTextFile(f.diff_csv, lab::DifferentialToCsv(diff), "differential CSV");
    }
    return 0;
  }
  if (!f.faults.empty()) {
    config.faults = &fault_plan;
  }

  std::printf("wdmlat_run: %s, %s, priority %d, %.1f virtual minutes, seed %llu\n",
              config.os.name.c_str(), config.stress.name.c_str(), f.priority, f.minutes,
              static_cast<unsigned long long>(f.seed));
  const lab::LabReport report = lab::RunLatencyExperiment(config);
  if (!f.faults.empty()) {
    std::printf("fault plan \"%s\": %llu activation(s)\n", fault_plan.name.c_str(),
                static_cast<unsigned long long>(report.fault_activations));
  }
  if (report.samples == 0) {
    std::fprintf(stderr, "wdmlat_run: the run kept no latency samples\n");
    return 3;
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

  if (f.worst_cases) {
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

  if (f.plot) {
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

  if (!f.csv_dir.empty()) {
    const std::string prefix = lab::DefaultCsvPrefix(report);
    const int files = lab::WriteReportCsv(report, f.csv_dir, prefix);
    std::printf("\nwrote %d CSV files to %s/%s_*.csv\n", files, f.csv_dir.c_str(),
                prefix.c_str());
  }

  if (f.episode_threshold_us > 0.0) {
    std::printf("\n%s", obs::RenderAttributionReport(report.episodes).c_str());
  }
  if (!f.anatomy_out.empty()) {
    std::printf("\n%s", obs::RenderAnatomyReport(report.anatomy).c_str());
    WriteTextFile(f.anatomy_out, obs::AnatomyToJson(report.anatomy), "anatomy JSON");
  }
  if (f.sketch) {
    const stats::QuantileSketch& qs = report.thread_sketch;
    std::printf("\nQuantile sketch (thread latency, %llu samples; deep tail exact):\n",
                static_cast<unsigned long long>(qs.count()));
    std::printf("  p50 %8.3f  p99 %8.3f  p99.9 %8.3f  p99.99 %8.3f  max %8.3f ms\n",
                qs.QuantileMs(0.5), qs.QuantileMs(0.99), qs.QuantileMs(0.999),
                qs.QuantileMs(0.9999), qs.max_ms());
  }
  if (!f.trace_out.empty()) {
    WriteTrace(trace_writer, f.trace_out);
  }
  if (!f.metrics_out.empty()) {
    WriteTextFile(f.metrics_out, metrics.ToJson(), "metrics JSON");
  }
  if (!f.metrics_csv.empty()) {
    WriteTextFile(f.metrics_csv, metrics.ToCsv(), "metrics CSV");
  }
  return 0;
}

int RunMatrix(const Flags& f) {
  const fault::FaultPlan fault_plan = LoadFaultPlan(f.faults);
  obs::ChromeTraceWriter trace_writer;
  lab::MatrixSpec spec = lab::PaperMatrix();
  if (f.cores > 1) {
    // NT-UP vs NT-SMP: add an SMP column to the paper grid (EXPERIMENTS.md
    // "NT-UP vs NT-SMP" recipe).
    spec.oses.push_back(
        kernel::MakeNt4SmpProfile(f.cores, f.dpc_affinity == "migrating"));
  }
  spec.trials = f.trials;
  spec.master_seed = f.seed;
  spec.cell = CellConfigFromFlags(f);
  spec.collect_metrics = !f.metrics_out.empty() || !f.metrics_csv.empty();
  if (!f.faults.empty()) {
    spec.cell.faults = &fault_plan;
  }
  if (!f.trace_out.empty()) {
    spec.trace_sink = &trace_writer;
  }
  const lab::ExperimentMatrix matrix(spec);

  std::printf(
      "wdmlat_run --matrix: %zu cells (%zu OS x %zu workloads x %zu priorities x %d "
      "trials),\n%.1f virtual minutes per cell, master seed %llu, %d jobs\n\n",
      matrix.cells().size(), spec.oses.size(), spec.workloads.size(),
      spec.priorities.size(), spec.trials, f.minutes,
      static_cast<unsigned long long>(f.seed), f.jobs);

  lab::MatrixRunOptions run_options;
  run_options.jobs = f.jobs;
  run_options.cell_timeout_ms = f.cell_timeout_ms;
  run_options.audit_every_s = f.audit_every_s;
  run_options.audit_fail_cell = f.audit_fail_cell;
  run_options.throw_cell = f.throw_cell;
  run_options.max_cells = static_cast<std::size_t>(f.max_cells);
  run_options.journal_path = f.journal;
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
  const lab::CellLogResult& run = result.run;
  if (!run.error.empty()) {
    std::fprintf(stderr, "wdmlat_run: %s\n", run.error.c_str());
    return 2;
  }
  for (const std::string& warning : run.warnings) {
    std::fprintf(stderr, "wdmlat_run: warning: %s\n", warning.c_str());
  }
  if (run.cells_restored > 0) {
    std::printf("resumed: %llu cell(s) restored from %s, %llu executed\n",
                static_cast<unsigned long long>(run.cells_restored), f.journal.c_str(),
                static_cast<unsigned long long>(run.cells_executed));
  }

  std::printf("\nMerged distributions (per OS x workload x priority group):\n");
  std::printf("  %-16s %-18s %-4s %-7s %-9s %9s %9s %9s\n", "OS", "workload", "prio",
              "trials", "samples", "p50 ms", "p99 ms", "max ms");
  for (const lab::MergedCell& group : result.merged) {
    std::printf("  %-16s %-18s %-4d %-7d %-9llu %9.3f %9.3f %9.3f\n",
                group.os_name.c_str(), group.workload_name.c_str(),
                group.thread_priority, static_cast<int>(group.cells),
                static_cast<unsigned long long>(group.samples()),
                group.thread.QuantileMs(0.5), group.thread.QuantileMs(0.99),
                group.thread.max_ms());
  }
  std::printf(
      "\n%zu cells in %.2f s wall (%.2f s summed cell time, %.2fx speedup at "
      "--jobs=%d)\n",
      matrix.cells().size(), result.wall_seconds, result.total_cell_seconds,
      result.Speedup(), f.jobs);
  std::printf(
      "determinism: merged histograms are bit-identical for any --jobs value under "
      "master seed %llu\n",
      static_cast<unsigned long long>(f.seed));

  if (!f.faults.empty()) {
    std::printf("\nFault plan \"%s\" (seed %llu) activations per group:\n",
                fault_plan.name.c_str(),
                static_cast<unsigned long long>(fault_plan.seed));
    for (const lab::MergedCell& group : result.merged) {
      std::printf("  %-16s %-18s prio %-2d  %llu activations\n", group.os_name.c_str(),
                  group.workload_name.c_str(), group.thread_priority,
                  static_cast<unsigned long long>(group.fault_activations));
    }
  }

  if (f.episode_threshold_us > 0.0) {
    std::printf("\nFlight-recorder episodes (threshold %.0f us):\n", f.episode_threshold_us);
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
  if (!f.anatomy_out.empty()) {
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
    WriteTextFile(f.anatomy_out, json, "anatomy stage totals JSON");
  }
  if (f.sketch) {
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
  if (!f.trace_out.empty()) {
    lab::AppendHostTrace(trace_writer, matrix, result);
    WriteTrace(trace_writer, f.trace_out);
  }
  if (!f.metrics_out.empty()) {
    WriteTextFile(f.metrics_out, result.metrics.ToJson(), "metrics JSON");
  }
  if (!f.metrics_csv.empty()) {
    WriteTextFile(f.metrics_csv, result.metrics.ToCsv(), "metrics CSV");
  }

  // Exit contract: 3 = cells failed (structured failures printed above) or
  // kept no samples, 4 = interrupted by --max-cells (record log resumable),
  // 0 = complete.
  for (const std::string& violation : result.merge_violations) {
    std::fprintf(stderr, "wdmlat_run: merge audit: %s\n", violation.c_str());
  }
  std::size_t empty_cells = 0;
  for (const lab::MatrixCell& cell : matrix.cells()) {
    const lab::CellStatus status = result.statuses[cell.index];
    if ((status == lab::CellStatus::kOk || status == lab::CellStatus::kRestored) &&
        result.reports[cell.index].samples == 0) {
      ++empty_cells;
      std::fprintf(stderr,
                   "wdmlat_run: cell %zu (%s, %s, prio %d, trial %d) kept no latency "
                   "samples\n",
                   cell.index, cell.config.os.name.c_str(), cell.config.stress.name.c_str(),
                   cell.config.thread_priority, cell.trial);
    }
  }
  const bool failed = !run.failures.empty() || !result.merge_violations.empty();
  if (failed) {
    std::fprintf(stderr, "wdmlat_run: %zu cell(s) failed out of %zu\n", run.failures.size(),
                 matrix.cells().size());
  }
  if (empty_cells > 0) {
    std::fprintf(stderr, "wdmlat_run: %zu cell(s) kept no samples out of %zu\n", empty_cells,
                 matrix.cells().size());
  }
  if (failed || empty_cells > 0) {
    return 3;
  }
  if (result.cells_skipped > 0) {
    std::printf("interrupted after %llu cell(s) (--max-cells); %zu skipped%s\n",
                static_cast<unsigned long long>(run.cells_executed), result.cells_skipped,
                f.journal.empty() ? "" : "; re-run without --max-cells to resume");
    return 4;
  }
  return 0;
}

// Orchestrator: spawn one worker process per shard (crash isolation — a
// dead worker costs one shard's tail, and a re-run resumes it), then
// stream-merge the shard record files.
int RunFleet(const Flags& f, const lab::Fleet& fleet, const char* argv0) {
  if (f.shards == 0) {
    Die("--shards must be at least 1");
  }
  const std::uint64_t shards = std::min<std::uint64_t>(f.shards, fleet.cell_count());
  ::mkdir(f.fleet_out.c_str(), 0777);  // EEXIST is fine; open errors surface below
  std::string self = runtime::SelfExecutable();
  if (self.empty()) {
    self = argv0;
  }

  // The quarantine manifest survives re-runs: cells isolated by a previous
  // invocation stay skipped, so resume converges instead of re-tripping.
  const std::string quarantine_manifest = f.fleet_out + "/quarantine.jsonl";
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
    if (!lab::CheckRecordLogSpec(lab::FleetShardPath(f.fleet_out, static_cast<std::size_t>(k),
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
      static_cast<unsigned long long>(shards), f.jobs, f.fleet_out.c_str());

  // Supervised fleet: per-shard liveness deadlines, bounded retry with
  // backoff, poisoned-cell bisection and (optionally) the deterministic
  // host-chaos harness. --jobs bounds
  // concurrent worker *processes*; each worker runs its shard
  // single-threaded (the shard file contract is per-process anyway).
  const lab::HostChaos host_chaos(f.chaos_seed);
  runtime::FleetSupervisorOptions sup;
  sup.shards = static_cast<std::size_t>(shards);
  sup.cell_count = static_cast<std::size_t>(fleet.cell_count());
  sup.max_parallel = static_cast<std::size_t>(f.jobs);
  sup.shard_timeout_s = f.shard_timeout_s;
  sup.max_attempts = f.shard_retries;
  if (!quarantined.empty()) {
    sup.quarantine_path = quarantine_manifest;
  }
  sup.shard_path = [&](std::size_t k) {
    return lab::FleetShardPath(f.fleet_out, k, static_cast<std::size_t>(shards));
  };
  sup.cell_seed = [&](std::size_t cell) { return fleet.CellAt(cell).seed; };
  if (f.Given("--chaos-seed")) {
    sup.chaos = [&](std::size_t k, int attempt) { return host_chaos.PlanFor(k, attempt); };
  }
  sup.spawn = [&](const runtime::FleetWorkerRequest& request, pid_t* pid,
                  std::string* spawn_error) {
    runtime::ShardProcess process;
    process.argv = {self,
                    "--fleet=" + f.fleet,
                    "--shard=" + std::to_string(request.shard) + "/" +
                        std::to_string(shards),
                    "--fleet-out=" + f.fleet_out,
                    "--jobs=1"};
    if (f.cell_timeout_ms > 0.0) {
      process.argv.push_back("--cell-timeout-ms=" + std::to_string(f.cell_timeout_ms));
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
    if (f.poison_cell >= 0) {
      process.argv.push_back("--poison-cell=" + std::to_string(f.poison_cell));
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
    if (!lab::SaveFleetQuarantine(quarantine_manifest, quarantined, &qerror)) {
      std::fprintf(stderr, "wdmlat_run: quarantine manifest: %s\n", qerror.c_str());
    }
    return quarantine_manifest;
  };
  sup.log = [](const std::string& line) {
    std::fprintf(stderr, "wdmlat_run: supervisor: %s\n", line.c_str());
  };
  const runtime::FleetSupervisorResult supervision = runtime::SuperviseFleet(sup);
  if (supervision.spawns > shards || supervision.heartbeat_kills > 0 ||
      supervision.bisect_probes > 0) {
    std::printf(
        "supervisor: %llu spawn(s), %llu retr%s, %llu heartbeat kill(s), "
        "%llu bisect probe(s)\n",
        static_cast<unsigned long long>(supervision.spawns),
        static_cast<unsigned long long>(supervision.retries),
        supervision.retries == 1 ? "y" : "ies",
        static_cast<unsigned long long>(supervision.heartbeat_kills),
        static_cast<unsigned long long>(supervision.bisect_probes));
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
    shard_paths.push_back(lab::FleetShardPath(f.fleet_out, static_cast<std::size_t>(k),
                                              static_cast<std::size_t>(shards)));
  }
  // Always merge degraded: quarantined cells become explicit coverage gaps
  // in fleet.json instead of a fatal merge error, and a damaged record that
  // slipped past the supervisor is quarantined rather than sinking the run.
  lab::FleetMergeOptions merge_options;
  merge_options.quarantined = quarantined;
  merge_options.allow_degraded = true;
  lab::FleetReport report;
  std::string error;
  if (!lab::MergeFleetShards(fleet, shard_paths, merge_options, &report, &error)) {
    std::fprintf(stderr, "wdmlat_run: fleet merge: %s\n", error.c_str());
    return 3;
  }
  for (const std::string& warning : report.merge_warnings) {
    std::fprintf(stderr, "wdmlat_run: merge: %s\n", warning.c_str());
  }
  const std::string report_path = f.fleet_out + "/fleet.json";
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
                quarantine_manifest.c_str());
    for (const lab::FleetQuarantineEntry& entry : report.quarantine) {
      std::printf("  cell %llu (seed %llu): %s after %d attempt(s)\n",
                  static_cast<unsigned long long>(entry.cell),
                  static_cast<unsigned long long>(entry.seed), entry.taxonomy.c_str(),
                  entry.attempts);
    }
  }
  return 0;
}

// Worker: run shard K of N into the shard record file and exit.
int RunFleetWorker(const Flags& f, const lab::Fleet& fleet) {
  const std::size_t slash = f.shard.find('/');
  if (slash == std::string::npos) {
    Die("--shard wants K/N, e.g. --shard=0/4");
  }
  const std::uint64_t worker_shard =
      ParseNumber<std::uint64_t>("--shard", f.shard.substr(0, slash));
  const std::uint64_t worker_shards =
      ParseNumber<std::uint64_t>("--shard", f.shard.substr(slash + 1));
  if (worker_shards == 0 || worker_shard >= worker_shards) {
    Die("--shard=" + f.shard + " wants 0 <= K < N");
  }
  lab::FleetShardOptions options;
  options.shard = static_cast<std::size_t>(worker_shard);
  options.shards = static_cast<std::size_t>(worker_shards);
  options.jobs = f.jobs;
  options.out_path = lab::FleetShardPath(f.fleet_out, options.shard, options.shards);
  options.cell_timeout_ms = f.cell_timeout_ms;
  options.cell_lo = f.cell_lo;
  options.cell_hi = f.cell_hi;
  options.poison_cell = f.poison_cell;
  options.chaos_kill_after_cells = f.chaos_kill_after_cells;
  options.chaos_delay_ms = f.chaos_delay_ms;
  if (!f.quarantine.empty()) {
    std::vector<lab::FleetQuarantineEntry> manifest;
    std::string qerror;
    if (!lab::LoadFleetQuarantine(f.quarantine, &manifest, &qerror)) {
      std::fprintf(stderr, "wdmlat_run: --quarantine=%s: %s\n",
                   f.quarantine.c_str(), qerror.c_str());
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

}  // namespace

int main(int argc, char** argv) {
  const Flags f = ParseFlags(argc, argv);
  if (f.help) {
    Help();
  }
  const Mode mode = SelectMode(f);
  if (f.priority < kernel::kMinRealTimePriority || f.priority > kernel::kMaxPriority) {
    Die("--priority must be a real-time priority (16..31)");
  }
  if (f.minutes <= 0.0) {
    Die("--minutes must be positive");
  }
  if (f.jobs < 1 || f.trials < 1 || f.shard_retries < 1) {
    Die("--jobs, --trials and --shard-retries must be at least 1");
  }
  if (f.cores != 0 && (f.cores < 1 || f.cores > 32)) {
    Die("--cores must be in 1..32");
  }
  if (!f.dpc_affinity.empty() && f.dpc_affinity != "pinned" && f.dpc_affinity != "migrating") {
    Die("--dpc-affinity must be pinned or migrating");
  }
  if (!f.dpc_affinity.empty() && f.cores <= 1) {
    Die("--dpc-affinity only applies to an SMP cell (pass --cores=N with N > 1)");
  }
  if (f.cell_timeout_ms < 0.0 || f.audit_every_s < 0.0 || f.shard_timeout_s < 0.0 ||
      f.chaos_delay_ms < 0.0) {
    Die("--cell-timeout-ms, --audit-every-s, --shard-timeout-s and --chaos-delay-ms must be "
        ">= 0");
  }
  if (!f.anatomy_out.empty() && f.episode_threshold_us <= 0.0) {
    Die("--anatomy-out requires --episode-threshold-us (anatomy decomposes flight-recorder "
        "episodes)");
  }
  if (f.cell_hi != 0 && f.cell_lo >= f.cell_hi) {
    Die("--cell-lo must be below --cell-hi");
  }

  if (mode == kCell) {
    return RunCell(f);
  }
  if (mode == kMatrix) {
    return RunMatrix(f);
  }
  lab::FleetSpec spec;
  std::string error;
  if (!lab::LoadFleetSpec(f.fleet, &spec, &error)) {
    Die("--fleet=" + f.fleet + ": " + error);
  }
  const lab::Fleet fleet(std::move(spec));
  if (!fleet.error().empty()) {
    Die("--fleet=" + f.fleet + ": " + fleet.error());
  }
  return mode == kWorker ? RunFleetWorker(f, fleet) : RunFleet(f, fleet, argv[0]);
}
