// The four benchmark workloads. Each is a closed batch in this process: a
// set-up phase (timed several times, median reported), an untraced pass that
// repeats the workload's unit of work until its share of the measuring time
// is spent (medians over repetitions), and — with tracing on — a traced pass
// of the same unit of work plus the per-layer measurements.
//
// Correctness is checked in the same run: every repetition must reproduce
// the first one's output checksum, the traced pass must reproduce the
// untraced pass's, the fleet merged at jobs=1 must equal the one merged at
// jobs=N, and at the default seed the checksum must equal the expected value
// kept below. Each check is an attempted operation; a mismatch is a failed
// one.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/kernel/dispatcher.h"
#include "src/kernel/kernel.h"
#include "src/kernel/profile.h"
#include "src/kernel/smp.h"
#include "src/kernel/trace.h"
#include "src/lab/fleet.h"
#include "src/lab/lab.h"
#include "src/lab/report_io.h"
#include "src/lab/test_system.h"
#include "src/obs/anatomy.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/engine.h"
#include "src/stats/histogram.h"
#include "src/stats/quantile_sketch.h"
#include "src/workload/stress_profile.h"

namespace perfbench {
namespace {

using namespace wdmlat;
namespace fs = std::filesystem;

// Output checksums at the default seed, one per workload. A change that is
// meant only to speed up the simulator must leave them unchanged.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kExpectedPaperCells = 0x47eeafe8e97960afull;
constexpr std::uint64_t kExpectedFleetScreen = 0x8b8ed53e8677558aull;
constexpr std::uint64_t kExpectedObservedCell = 0xa69181354f1319dfull;
constexpr std::uint64_t kExpectedTraceExport = 0xd42254eb524f3c9full;

// Workload shape.
constexpr int kCellsPerProfile = 4;
constexpr double kPaperMeasureS = 60.0;  // per paper_cells cell, after warmup
constexpr double kPaperWarmupS = 5.0;
constexpr double kObservedMeasureS = 15.0;
constexpr double kObservedWarmupS = 1.0;
constexpr double kEpisodeThresholdUs = 4000.0;
constexpr double kQueueSampleMs = 1.0;
constexpr double kTraceMeasureS = 5.0;
// Short traced cells ride their seed's load mix more (nt4 ±7%), so
// trace_export averages over twice as many machines.
constexpr int kTraceCellsPerProfile = 8;
constexpr double kTraceWarmupS = 1.0;
constexpr double kProbeMeasureS = 10.0;
constexpr double kProbeWarmupS = 1.0;
constexpr int kFleetCellsPerCohort = 100;
constexpr double kFleetMeasureS = 0.4;
constexpr double kFleetWarmupS = 0.25;
constexpr double kFleetPitHz = 8000.0;
constexpr std::uint64_t kMinSamplesPerFleetCell = 1000;

// Measurement shape.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 10000;
// With tracing on, each of the two passes gets this share of --seconds; the
// per-layer measurements after them take the rest.
constexpr double kPassShareTraced = 0.4;
constexpr int kProbeRepeats = 3;

// --- Small helpers -----------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// SplitMix64 over (seed, index): per-cell seeds derived from the run seed.
std::uint64_t CellSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Incremental FNV-1a 64 over a stream of byte ranges.
class Fnv {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

bool WriteText(const fs::path& path, std::string_view text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(file);
}

// Stream a file's bytes into `fnv`; returns its size, or -1 when unreadable.
std::int64_t HashFile(const fs::path& path, Fnv* fnv) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return -1;
  }
  std::vector<char> buf(1 << 20);
  std::int64_t total = 0;
  while (file) {
    file.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::streamsize got = file.gcount();
    fnv->Add(std::string_view(buf.data(), static_cast<std::size_t>(got)));
    total += got;
  }
  return total;
}

std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Run `body` until `seconds` have passed and at least kMinReps times.
template <typename F>
void RepeatFor(double seconds, F&& body) {
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && SecondsBetween(start, Clock::now()) >= seconds) {
      break;
    }
    body();
  }
}

double CellVirtualSeconds(const lab::LabConfig& config) {
  return config.warmup_seconds + config.stress_minutes * 60.0;
}

lab::LabConfig CellConfig(kernel::KernelProfile os, workload::StressProfile stress,
                          double measure_s, double warmup_s, std::uint64_t seed) {
  lab::LabConfig config;
  config.os = std::move(os);
  config.stress = std::move(stress);
  config.thread_priority = 28;
  config.stress_minutes = measure_s / 60.0;
  config.warmup_seconds = warmup_s;
  config.seed = seed;
  return config;
}

struct Cell {
  std::string profile;  // metric suffix: win98 / nt4 / smp2
  lab::LabConfig config;
};

// The three profiles, driving the dispatcher three ways: Win98 games
// (lockouts + USB audio), NT4 office (uniprocessor) and nt_smp2 office (per-
// core queues + IPIs). The two NT cells share a workload, so .smp2 against
// .nt4 isolates the SMP kernel's cost. (Web load is avoided here: its
// heavy-tailed downloads make a cell's event rate vary ~2.5x by seed.) Each
// profile gets `per_profile` cells on distinct seeds. Cell seeds depend only
// on (run seed, profile, k), so the Win98 cells of every single-cell
// workload are the same simulated machines.
std::vector<Cell> ProfileCells(std::uint64_t seed, int per_profile, double measure_s,
                               double warmup_s) {
  std::vector<Cell> cells;
  for (int k = 0; k < per_profile; ++k) {
    const std::uint64_t base = 3 * static_cast<std::uint64_t>(k);
    cells.push_back({"win98", CellConfig(kernel::MakeWin98Profile(), workload::GamesStress(),
                                         measure_s, warmup_s, CellSeed(seed, base))});
    cells.push_back({"nt4", CellConfig(kernel::MakeNt4Profile(), workload::OfficeStress(),
                                       measure_s, warmup_s, CellSeed(seed, base + 1))});
    cells.push_back({"smp2", CellConfig(kernel::MakeNt4SmpProfile(2, false),
                                        workload::OfficeStress(), measure_s, warmup_s,
                                        CellSeed(seed, base + 2))});
  }
  return cells;
}

// Benchmark-owned trace sink: counts the dispatcher's trace events and
// optionally forwards them to a ChromeTraceWriter, timing each forwarded
// call when asked.
class ForwardingSink : public kernel::TraceSink {
 public:
  explicit ForwardingSink(obs::ChromeTraceWriter* writer = nullptr, bool timed = false)
      : writer_(writer), timed_(timed) {}

  void OnTraceEvent(const kernel::TraceEvent& event) override {
    ++events_;
    if (writer_ == nullptr) {
      return;
    }
    if (!timed_) {
      writer_->OnTraceEvent(event);
      return;
    }
    const Clock::time_point start = Clock::now();
    writer_->OnTraceEvent(event);
    forward_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                       .count();
  }

  std::uint64_t events() const { return events_; }
  std::int64_t forward_ns() const { return forward_ns_; }

 private:
  obs::ChromeTraceWriter* writer_;
  bool timed_;
  std::uint64_t events_ = 0;
  std::int64_t forward_ns_ = 0;
};

// Cost of one back-to-back pair of steady_clock reads, subtracted from the
// per-event sink timing.
double ClockPairNs() {
  std::vector<double> samples;
  for (int round = 0; round < 5; ++round) {
    constexpr int kPairs = 100000;
    std::int64_t inner_ns = 0;
    for (int i = 0; i < kPairs; ++i) {
      const Clock::time_point a = Clock::now();
      inner_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - a).count();
    }
    samples.push_back(static_cast<double>(inner_ns) / kPairs);
  }
  return Median(samples);
}

// Simulated work summed over cells: engine, dispatcher (all cores), SMP and
// driver counts. Deterministic for a given seed.
struct Counters {
  double vsec = 0.0;
  double cells = 0.0;
  double events = 0.0;
  double compactions = 0.0;
  double interrupts = 0.0;
  double dpcs = 0.0;
  double context_switches = 0.0;
  double sections = 0.0;
  double ipis = 0.0;
  double spin_contentions = 0.0;
  double trace_events = 0.0;
  double samples = 0.0;
  double fault_activations = 0.0;
  double min_samples = -1.0;

  void Add(lab::TestSystem& system, const lab::LabReport& report, double cell_vsec,
           const ForwardingSink& sink) {
    vsec += cell_vsec;
    cells += 1.0;
    events += static_cast<double>(system.engine().events_processed());
    compactions += static_cast<double>(system.engine().compactions());
    kernel::Kernel& k = system.kernel();
    for (int core = 0; core < k.core_count(); ++core) {
      const kernel::Dispatcher& d = k.dispatcher(core);
      interrupts += static_cast<double>(d.interrupts_accepted());
      dpcs += static_cast<double>(d.dpcs_dispatched());
      context_switches += static_cast<double>(d.context_switches());
      sections += static_cast<double>(d.sections_run());
    }
    if (const kernel::Smp* smp = k.smp()) {
      ipis += static_cast<double>(smp->ipis_delivered());
      spin_contentions += static_cast<double>(smp->dispatcher_lock().contentions());
      for (int core = 0; core < smp->core_count(); ++core) {
        spin_contentions += static_cast<double>(smp->dpc_lock(core).contentions());
      }
    }
    trace_events += static_cast<double>(sink.events());
    samples += static_cast<double>(report.samples);
    fault_activations += static_cast<double>(report.fault_activations);
    const double s = static_cast<double>(report.samples);
    min_samples = min_samples < 0.0 ? s : std::min(min_samples, s);
  }

  void Publish(Outcome& out) const {
    const double v = std::max(vsec, 1e-9);
    out.Set("sim.events_per_vsec", events / v);
    out.Set("sim.compactions_per_vsec", compactions / v);
    out.Set("kernel.interrupts_per_vsec", interrupts / v);
    out.Set("kernel.dpcs_per_vsec", dpcs / v);
    out.Set("kernel.context_switches_per_vsec", context_switches / v);
    out.Set("kernel.sections_per_vsec", sections / v);
    out.Set("kernel.ipis_per_vsec", ipis / v);
    out.Set("kernel.spin_contentions_per_vsec", spin_contentions / v);
    out.Set("kernel.trace_events_per_vsec", trace_events / v);
    out.Set("drivers.samples_per_vsec", samples / v);
    out.Set("fault.activations_per_cell", cells > 0.0 ? fault_activations / cells : 0.0);
    out.Set("lab.samples_per_cell.min", std::max(min_samples, 0.0));
  }
};

// Engine-only schedule/fire loop: a fixed population of self-rescheduling
// events with delays spread over the calendar's near horizon, as the
// dispatcher's traffic is. Host ns per fired event is the calendar floor.
double CalendarFloorNs(SpanRecorder& spans) {
  struct Chain {
    sim::Engine* engine;
    std::uint64_t* rng;
    std::uint64_t* fired;
    std::uint64_t limit;
    void operator()() const {
      if (++*fired >= limit) {
        engine->RequestStop();
        return;
      }
      std::uint64_t x = *rng;
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      *rng = x;
      engine->ScheduleAfter(1 + (x & ((sim::Cycles{1} << 18) - 1)), *this);
    }
  };
  std::vector<double> ns_per_event;
  for (int round = 0; round < 3; ++round) {
    auto span = spans.Span("sim.Engine.schedule_fire");
    constexpr std::uint64_t kEvents = 1u << 21;
    constexpr int kPending = 256;
    sim::Engine engine;
    std::uint64_t rng = 0x2545F4914F6CDD1Dull;
    std::uint64_t fired = 0;
    for (int i = 0; i < kPending; ++i) {
      engine.ScheduleAfter(static_cast<sim::Cycles>(i) * 997, Chain{&engine, &rng, &fired, kEvents});
    }
    const Clock::time_point start = Clock::now();
    engine.RunUntil(~sim::Cycles{0} >> 2);
    const double wall = SecondsBetween(start, Clock::now());
    ns_per_event.push_back(wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(fired, 1)));
  }
  return Median(ns_per_event);
}

// Time T::Merge (LatencyHistogram or QuantileSketch) over `items`, folded
// into a fresh accumulator and repeated until a few ms have passed; µs per
// Merge call.
template <typename T>
double MergeMicros(const std::vector<const T*>& items, SpanRecorder& spans, const char* name) {
  if (items.empty()) {
    return 0.0;
  }
  auto span = spans.Span(name);
  std::uint64_t merges = 0;
  const Clock::time_point start = Clock::now();
  do {
    T accumulator;
    for (const T* item : items) {
      accumulator.Merge(*item);
      ++merges;
    }
  } while (SecondsBetween(start, Clock::now()) < 0.005);
  return SecondsBetween(start, Clock::now()) * 1e6 / static_cast<double>(merges);
}

std::vector<const stats::LatencyHistogram*> ReportHistograms(const lab::LabReport& r) {
  return {&r.dpc_interrupt, &r.thread, &r.thread_interrupt, &r.interrupt, &r.isr_to_dpc,
          &r.true_pit_interrupt_latency};
}

// Trials-style fold of one cell's report into its accumulator.
void FoldReport(const lab::LabReport& from, lab::LabReport* into) {
  into->dpc_interrupt.Merge(from.dpc_interrupt);
  into->thread.Merge(from.thread);
  into->thread_interrupt.Merge(from.thread_interrupt);
  into->interrupt.Merge(from.interrupt);
  into->isr_to_dpc.Merge(from.isr_to_dpc);
  into->true_pit_interrupt_latency.Merge(from.true_pit_interrupt_latency);
  into->thread_sketch.Merge(from.thread_sketch);
  into->samples += from.samples;
}

// The report with every observability product removed: what a passive sink
// must leave unchanged.
std::string SimulatedOutput(lab::LabReport report) {
  report.episodes.clear();
  report.anatomy.clear();
  report.thread_sketch.Reset();
  return lab::ReportToJson(report);
}

// --- Observability probe -----------------------------------------------------
//
// One overhead row per observability feature: the Win98 games cell, run on
// the same seed with only that feature on, timed against the plain cell
// (RunLatencyExperimentOn only). Run in every workload's traced pass.

void RunObsProbe(const Options& options, SpanRecorder& spans, Outcome& out,
                 std::vector<stats::QuantileSketch>* sketches) {
  auto probe_span = spans.Span("bench.obs_probe");
  const lab::LabConfig base = CellConfig(kernel::MakeWin98Profile(), workload::GamesStress(),
                                         kProbeMeasureS, kProbeWarmupS, CellSeed(options.seed, 0));
  const double vsec = CellVirtualSeconds(base);
  lab::TestSystem system(base.os, base.seed, base.options);
  std::error_code ec;
  enum Variant { kPlain, kMetrics, kAnatomy, kSketch, kTrace, kVariants };
  std::array<std::vector<double>, kVariants> wall;
  std::vector<double> metrics_export_ms;
  std::vector<double> anatomy_export_ms;
  std::vector<double> trace_write_ms;
  double trace_events_per_vsec = 0.0;
  std::string plain_output;
  const fs::path trace_path = fs::path(options.out_dir) / "probe.trace.json";

  const auto run = [&](Variant variant) {
    system.Reset(base.os, base.seed, base.options);
    lab::LabConfig config = base;
    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::ChromeTraceWriter> writer;
    switch (variant) {
      case kMetrics:
        config.obs.metrics = &metrics;
        config.obs.queue_sample_ms = kQueueSampleMs;
        break;
      case kAnatomy:
        config.obs.episode_threshold_us = kEpisodeThresholdUs;
        config.obs.anatomy = true;
        break;
      case kSketch:
        config.obs.sketch = true;
        break;
      case kTrace:
        writer = std::make_unique<obs::ChromeTraceWriter>();
        config.obs.trace_sink = writer.get();
        break;
      default:
        break;
    }
    const Clock::time_point start = Clock::now();
    lab::LabReport report;
    {
      auto span = spans.Span("lab.RunLatencyExperimentOn");
      report = lab::RunLatencyExperimentOn(system, config);
    }
    wall[variant].push_back(SecondsBetween(start, Clock::now()));
    if (variant == kMetrics) {
      auto span = spans.Span("obs.MetricsRegistry::ToJson");
      const Clock::time_point t = Clock::now();
      out.Check(!metrics.ToJson().empty(), "probe metrics export");
      metrics_export_ms.push_back(SecondsBetween(t, Clock::now()) * 1e3);
    } else if (variant == kAnatomy) {
      auto span = spans.Span("obs.AnatomyToJson");
      const Clock::time_point t = Clock::now();
      out.Check(!obs::AnatomyToJson(report.anatomy).empty(), "probe anatomy export");
      anatomy_export_ms.push_back(SecondsBetween(t, Clock::now()) * 1e3);
    } else if (variant == kSketch) {
      sketches->push_back(report.thread_sketch);
    } else if (variant == kTrace) {
      fs::remove(trace_path, ec);  // fresh file: see CellWorkload::RunRep
      auto span = spans.Span("obs.ChromeTraceWriter::WriteFile");
      const Clock::time_point t = Clock::now();
      out.Check(writer->WriteFile(trace_path.string()), "probe trace write");
      trace_write_ms.push_back(SecondsBetween(t, Clock::now()) * 1e3);
      trace_events_per_vsec = static_cast<double>(writer->event_count()) / vsec;
    }
    const std::string output = SimulatedOutput(report);
    if (variant == kPlain && plain_output.empty()) {
      plain_output = output;
    }
    out.Check(output == plain_output, "obs probe: attaching a sink changed the simulated output");
  };

  for (int round = 0; round < kProbeRepeats; ++round) {
    for (int v = 0; v < kVariants; ++v) {
      run(static_cast<Variant>(v));
    }
  }
  // Per-event sink cost: one more traced run through a timing forwarder.
  double sink_ns = 0.0;
  {
    obs::ChromeTraceWriter writer;
    ForwardingSink sink(&writer, /*timed=*/true);
    system.Reset(base.os, base.seed, base.options);
    lab::LabConfig config = base;
    config.obs.trace_sink = &sink;
    {
      auto span = spans.Span("lab.RunLatencyExperimentOn");
      const lab::LabReport report = lab::RunLatencyExperimentOn(system, config);
      out.Check(SimulatedOutput(report) == plain_output,
                "obs probe: timed trace sink changed the simulated output");
    }
    const double events = static_cast<double>(std::max<std::uint64_t>(sink.events(), 1));
    sink_ns = std::max(0.0, static_cast<double>(sink.forward_ns()) / events - ClockPairNs());
  }
  fs::remove(trace_path, ec);

  const double plain = Median(wall[kPlain]);
  out.Set("obs.metrics.overhead", Median(wall[kMetrics]) / plain);
  out.Set("obs.anatomy.overhead", Median(wall[kAnatomy]) / plain);
  out.Set("stats.sketch.overhead", Median(wall[kSketch]) / plain);
  out.Set("obs.trace.overhead", Median(wall[kTrace]) / plain);
  out.Set("obs.export_ms", Median(metrics_export_ms) + Median(anatomy_export_ms));
  out.Set("obs.trace_write_ms", Median(trace_write_ms));
  out.Set("obs.trace_events_per_vsec", trace_events_per_vsec);
  out.Set("obs.trace_sink_ns_per_event", sink_ns);
}

// Layer metrics every workload reports the same way.
void PublishCommonLayers(const Options& options, SpanRecorder& spans, Outcome& out,
                         double host_ns_per_event,
                         std::vector<stats::QuantileSketch>* probe_sketches) {
  RunObsProbe(options, spans, out, probe_sketches);
  const double floor_ns = CalendarFloorNs(spans);
  out.Set("sim.host_ns_per_event", host_ns_per_event);
  out.Set("sim.calendar_floor_ns", floor_ns);
  // Estimate: assumes every simulated event pays the bare calendar cost.
  out.Set("sim.calendar_share", host_ns_per_event > 0.0 ? floor_ns / host_ns_per_event : 0.0);
}

void SetEndToEnd(Outcome& out, double setup_s, double cells_per_s, double output_bytes,
                 double vsec) {
  out.Set("setup_s", setup_s);
  out.Set("cells_per_s", cells_per_s);
  out.Set("output_mb_per_vmin", output_bytes / 1e6 / (vsec / 60.0));
  out.Set("peak_rss_mb", PeakRssMb());
}

void SetOkFrac(Outcome& out) {
  out.Set("ok_frac", 1.0 - static_cast<double>(out.failed()) /
                               static_cast<double>(std::max<std::uint64_t>(out.attempted(), 1)));
}

void CheckChecksum(const char* workload, const Options& options, std::uint64_t checksum,
                   std::uint64_t expected, Outcome& out) {
  std::printf("%s seed %llu output checksum %s\n", workload,
              static_cast<unsigned long long>(options.seed), Hex(checksum).c_str());
  if (options.seed == kDefaultSeed) {
    out.Check(checksum == expected, std::string(workload) + ": output checksum " + Hex(checksum) +
                                        " != expected " + Hex(expected));
  }
}

// --- Single-cell workloads (paper_cells, observed_cell, trace_export) ------

enum class Kind { kPlain, kObserved, kTraced };

struct CellTiming {
  std::string profile;
  double vsec = 0.0;
  double reset_s = 0.0;
  double sim_s = 0.0;  // RunLatencyExperimentOn alone
  double run_s = 0.0;  // run call until the cell's artifacts are written
};

struct Rep {
  double wall_s = 0.0;
  std::vector<CellTiming> cells;
  std::uint64_t checksum = 0;
  double bytes = 0.0;
};

using CellSet = std::vector<Cell> (*)(std::uint64_t seed);

class CellWorkload {
 public:
  CellWorkload(const char* name, Kind kind, CellSet make_cells, std::uint64_t expected)
      : name_(name), kind_(kind), make_cells_(make_cells), expected_(expected) {}

  void Run(const Options& options, SpanRecorder& spans, Outcome& out);

 private:
  // Set-up: build the cells' configs and construct their TestSystems.
  double SetUp(std::uint64_t seed, std::vector<Cell>* cells,
               std::vector<std::unique_ptr<lab::TestSystem>>* systems) const;
  // `counters`/`artifacts` non-null in the traced pass.
  Rep RunRep(const Options& options, SpanRecorder& spans, Outcome& out, Counters* counters,
             std::vector<std::string>* artifacts);

  const char* name_;
  Kind kind_;
  CellSet make_cells_;
  std::vector<Cell> cells_;
  std::uint64_t expected_;
  std::vector<std::unique_ptr<lab::TestSystem>> systems_;
  std::uint64_t cells_failed_ = 0;
};

double CellWorkload::SetUp(std::uint64_t seed, std::vector<Cell>* cells,
                          std::vector<std::unique_ptr<lab::TestSystem>>* systems) const {
  const Clock::time_point start = Clock::now();
  *cells = make_cells_(seed);
  for (const Cell& cell : *cells) {
    systems->push_back(std::make_unique<lab::TestSystem>(cell.config.os, cell.config.seed,
                                                         cell.config.options));
  }
  return SecondsBetween(start, Clock::now());
}

Rep CellWorkload::RunRep(const Options& options, SpanRecorder& spans, Outcome& out,
                         Counters* counters, std::vector<std::string>* artifacts) {
  auto rep_span = spans.Span("bench.rep");
  const Clock::time_point rep_start = Clock::now();
  Rep rep;
  Fnv fnv;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& cell = cells_[i];
    lab::TestSystem& system = *systems_[i];
    CellTiming timing;
    timing.profile = cell.profile;
    timing.vsec = CellVirtualSeconds(cell.config);
    {
      auto span = spans.Span("lab.TestSystem::Reset");
      const Clock::time_point start = Clock::now();
      system.Reset(cell.config.os, cell.config.seed, cell.config.options);
      timing.reset_s = SecondsBetween(start, Clock::now());
    }
    lab::LabConfig config = cell.config;
    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::ChromeTraceWriter> writer;
    if (kind_ == Kind::kObserved) {
      config.obs.metrics = &metrics;
      config.obs.queue_sample_ms = kQueueSampleMs;
      config.obs.episode_threshold_us = kEpisodeThresholdUs;
      config.obs.anatomy = true;
      config.obs.sketch = true;
    } else if (kind_ == Kind::kTraced) {
      writer = std::make_unique<obs::ChromeTraceWriter>();
      config.obs.trace_sink = writer.get();
    }
    ForwardingSink sink(writer.get());
    if (counters != nullptr) {
      config.obs.trace_sink = &sink;
    }
    const fs::path stem = fs::path(options.out_dir) / (std::string(name_) + "." + cell.profile);
    // Write fresh files: on ext4, truncating and rewriting an existing file
    // forces a writeback on close (auto_da_alloc) that would dominate the
    // artifact cost.
    for (const char* suffix : {".report.json", ".metrics.json", ".anatomy.json", ".trace.json"}) {
      std::error_code ec;
      fs::remove(stem.string() + suffix, ec);
    }
    std::string report_json;
    std::string metrics_json;
    std::string anatomy_json;
    bool written = true;

    const Clock::time_point start = Clock::now();
    lab::LabReport report;
    {
      auto span = spans.Span("lab.RunLatencyExperimentOn");
      report = lab::RunLatencyExperimentOn(system, config);
    }
    timing.sim_s = SecondsBetween(start, Clock::now());
    {
      auto span = spans.Span("lab.ReportToJson");
      report_json = lab::ReportToJson(report);
    }
    {
      auto span = spans.Span("bench.write_file");
      written &= WriteText(stem.string() + ".report.json", report_json);
    }
    if (kind_ == Kind::kObserved) {
      {
        auto span = spans.Span("obs.MetricsRegistry::ToJson");
        metrics_json = metrics.ToJson();
      }
      {
        auto span = spans.Span("obs.AnatomyToJson");
        anatomy_json = obs::AnatomyToJson(report.anatomy);
      }
      auto span = spans.Span("bench.write_file");
      written &= WriteText(stem.string() + ".metrics.json", metrics_json);
      written &= WriteText(stem.string() + ".anatomy.json", anatomy_json);
    } else if (kind_ == Kind::kTraced) {
      auto span = spans.Span("obs.ChromeTraceWriter::WriteFile");
      written &= writer->WriteFile(stem.string() + ".trace.json");
    }
    timing.run_s = SecondsBetween(start, Clock::now());

    // Untimed: checksum and account the artifacts.
    fnv.Add(report_json);
    fnv.Add(metrics_json);
    fnv.Add(anatomy_json);
    rep.bytes += static_cast<double>(report_json.size() + metrics_json.size() +
                                     anatomy_json.size());
    if (kind_ == Kind::kTraced) {
      const std::int64_t size = HashFile(stem.string() + ".trace.json", &fnv);
      written &= size > 0;
      rep.bytes += static_cast<double>(std::max<std::int64_t>(size, 0));
    }
    const std::uint64_t events = system.engine().events_processed();
    const bool cell_ok = written && events > 0 && report.samples > 0;
    out.Check(cell_ok, std::string(name_) + "/" + cell.profile +
                           (events == 0 ? ": simulated zero engine events"
                                        : ": no samples or artifacts not written"));
    cells_failed_ += cell_ok ? 0 : 1;
    if (counters != nullptr) {
      counters->Add(system, report, timing.vsec, sink);
    }
    if (artifacts != nullptr) {
      artifacts->push_back(std::move(report_json));
    }
    rep.cells.push_back(timing);
  }
  rep.checksum = fnv.value();
  rep.wall_s = SecondsBetween(rep_start, Clock::now());
  return rep;
}

void CellWorkload::Run(const Options& options, SpanRecorder& spans, Outcome& out) {
  // The set-up that builds this run's machines, then one more (discarded)
  // after every untraced repetition; the median is reported.
  std::vector<double> setup_s{SetUp(options.seed, &cells_, &systems_)};

  // Untraced pass.
  std::vector<Rep> reps;
  RepeatFor(options.trace ? kPassShareTraced * options.seconds : options.seconds, [&] {
    reps.push_back(RunRep(options, spans, out, nullptr, nullptr));
    std::vector<Cell> cells;
    std::vector<std::unique_ptr<lab::TestSystem>> systems;
    setup_s.push_back(SetUp(options.seed, &cells, &systems));
  });
  const std::uint64_t checksum = reps.front().checksum;
  for (const Rep& rep : reps) {
    out.Check(rep.checksum == checksum, std::string(name_) + ": repetition output differs");
  }
  CheckChecksum(name_, options, checksum, expected_, out);

  double vsec = 0.0;
  for (const Cell& cell : cells_) {
    vsec += CellVirtualSeconds(cell.config);
  }
  std::vector<double> cells_per_s;
  std::vector<double> rep_wall;
  std::vector<double> rep_sim_s;
  std::map<std::string, std::vector<double>> vsec_per_s;
  for (const Rep& rep : reps) {
    double run_s = 0.0;
    double sim_s = 0.0;
    std::map<std::string, std::pair<double, double>> per_profile;  // vsec, host s
    for (const CellTiming& cell : rep.cells) {
      per_profile[cell.profile].first += cell.vsec;
      per_profile[cell.profile].second += cell.run_s;
      run_s += cell.run_s;
      sim_s += cell.sim_s;
    }
    for (const auto& [profile, work] : per_profile) {
      vsec_per_s[profile].push_back(work.first / work.second);
    }
    cells_per_s.push_back(static_cast<double>(rep.cells.size()) / run_s);
    rep_wall.push_back(rep.wall_s);
    rep_sim_s.push_back(sim_s);
  }
  for (const auto& [profile, values] : vsec_per_s) {
    out.Set("vsec_per_s." + profile, Median(values));
  }
  SetEndToEnd(out, Median(setup_s), Median(cells_per_s), reps.front().bytes, vsec);
  if (!options.trace) {
    SetOkFrac(out);
    return;
  }

  // Traced pass: the same repetitions with spans and a counting sink.
  spans.Start();
  Counters counters;
  std::vector<std::string> artifacts;
  std::vector<Rep> traced;
  RepeatFor(kPassShareTraced * options.seconds, [&] {
    traced.push_back(RunRep(options, spans, out, &counters, &artifacts));
  });
  std::vector<double> traced_wall;
  std::vector<double> cell_ms;
  std::vector<double> reset_us;
  for (const Rep& rep : traced) {
    out.Check(rep.checksum == checksum, std::string(name_) + ": traced pass output differs");
    traced_wall.push_back(rep.wall_s);
    for (const CellTiming& cell : rep.cells) {
      cell_ms.push_back((cell.reset_s + cell.run_s) * 1e3);
      reset_us.push_back(cell.reset_s * 1e6);
    }
  }
  counters.Publish(out);
  out.Set("bench.trace_overhead", Median(traced_wall) / Median(rep_wall));
  out.Set("lab.setup_ms", Median(setup_s) * 1e3);
  out.Set("lab.reset_us", Median(reset_us));
  out.Set("lab.cell_ms.p50", Quantile(cell_ms, 0.5));
  out.Set("lab.cell_ms.p90", Quantile(cell_ms, 0.9));

  // Record codec (report_io, the per-cell artifact format) and the
  // trials-style fold of every traced repetition's artifacts per profile.
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  double record_bytes = 0.0;
  std::vector<lab::LabReport> decoded(artifacts.size());
  const Clock::time_point merge_start = Clock::now();
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    auto span = spans.Span("lab.ReportFromJson");
    const Clock::time_point start = Clock::now();
    std::string error;
    const bool ok = lab::ReportFromJson(artifacts[i], &decoded[i], &error);
    decode_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
    out.Check(ok, std::string(name_) + ": artifact does not decode: " + error);
  }
  // Artifacts are in (repetition, cell) order: cell i % cells folds into
  // accumulator i % cells, as the matrix folds trials of one cell.
  std::vector<lab::LabReport> folded(cells_.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    FoldReport(decoded[i], &folded[i % cells_.size()]);
  }
  const double merge_ms = SecondsBetween(merge_start, Clock::now()) * 1e3;
  const Clock::time_point report_start = Clock::now();
  for (const lab::LabReport& acc : folded) {
    auto span = spans.Span("lab.ReportToJson");
    out.Check(!lab::ReportToJson(acc).empty(), std::string(name_) + ": merged report is empty");
  }
  const double report_ms = SecondsBetween(report_start, Clock::now()) * 1e3;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    auto span = spans.Span("lab.ReportToJson");
    const Clock::time_point start = Clock::now();
    const std::string json = lab::ReportToJson(decoded[i]);
    encode_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
    out.Check(json == artifacts[i], std::string(name_) + ": artifact does not round-trip");
    record_bytes += static_cast<double>(json.size());
  }
  out.Set("lab.record_encode_us", Median(encode_us));
  out.Set("lab.record_decode_us", Median(decode_us));
  out.Set("lab.record_kb", record_bytes / static_cast<double>(decoded.size()) / 1024.0);
  out.Set("lab.merge_ms", merge_ms);
  out.Set("lab.report_json_ms", report_ms);
  double traced_total_s = 0.0;
  for (const double wall : traced_wall) {
    traced_total_s += wall;
  }
  out.Set("lab.merge_share", (merge_ms + report_ms) / 1e3 / traced_total_s);

  std::vector<const stats::LatencyHistogram*> hists;
  for (const lab::LabReport& report : decoded) {
    for (const stats::LatencyHistogram* h : ReportHistograms(report)) {
      hists.push_back(h);
    }
  }
  out.Set("stats.hist_merge_us",
          MergeMicros(hists, spans, "stats.LatencyHistogram::Merge"));

  std::vector<stats::QuantileSketch> probe_sketches;
  const double events_per_rep = counters.events / static_cast<double>(traced.size());
  PublishCommonLayers(options, spans, out, Median(rep_sim_s) * 1e9 / events_per_rep,
                      &probe_sketches);
  std::vector<const stats::QuantileSketch*> sketches;
  for (const lab::LabReport& report : decoded) {
    if (report.thread_sketch.count() > 0) {
      sketches.push_back(&report.thread_sketch);
    }
  }
  if (sketches.empty()) {
    for (const stats::QuantileSketch& sketch : probe_sketches) {
      sketches.push_back(&sketch);
    }
  }
  out.Set("stats.sketch_merge_us", MergeMicros(sketches, spans, "stats.QuantileSketch::Merge"));
  out.Set("runtime.parallel_efficiency", 0.0);  // single-threaded workload
  out.Set("runtime.cells_failed", static_cast<double>(cells_failed_));
  SetOkFrac(out);
}

// --- fleet_screen ------------------------------------------------------------

std::string FleetSpecJson(std::uint64_t seed) {
  char buf[2048];
  const double minutes = kFleetMeasureS / 60.0;
  std::snprintf(
      buf, sizeof(buf),
      "{\"name\": \"fleet_screen\", \"master_seed\": %llu, \"cohorts\": [\n"
      " {\"name\": \"nt4-office-web\", \"os\": \"nt4\", \"workloads\": [\"office\", \"web\"],"
      " \"count\": %d, \"stress_minutes\": %.17g, \"warmup_seconds\": %.17g, \"pit_hz\": %.17g,"
      " \"speed_mhz\": [150, 450], \"sketch\": true},\n"
      " {\"name\": \"win98-games-storm\", \"os\": \"win98\", \"workloads\": [\"games\"],"
      " \"count\": %d, \"stress_minutes\": %.17g, \"warmup_seconds\": %.17g, \"pit_hz\": %.17g,"
      " \"speed_mhz\": [200, 400], \"fault_plan\": \"irq_storm\", \"fault_prob\": 0.5,"
      " \"sketch\": true},\n"
      " {\"name\": \"smp2-web\", \"os\": \"nt_smp2\", \"workloads\": [\"web\"],"
      " \"count\": %d, \"stress_minutes\": %.17g, \"warmup_seconds\": %.17g, \"pit_hz\": %.17g,"
      " \"speed_mhz\": [300, 600], \"sketch\": true}]}\n",
      static_cast<unsigned long long>(seed), kFleetCellsPerCohort, minutes, kFleetWarmupS,
      kFleetPitHz, kFleetCellsPerCohort, minutes, kFleetWarmupS, kFleetPitHz,
      kFleetCellsPerCohort, minutes, kFleetWarmupS, kFleetPitHz);
  return buf;
}

std::string FleetProfile(const std::string& os) {
  return os == "nt_smp2" ? "smp2" : os;
}

// Parse the spec, build the Fleet and expand every cell's LabConfig.
std::unique_ptr<lab::Fleet> SetUpFleet(const std::string& spec_json, Outcome& out) {
  lab::FleetSpec spec;
  std::string error;
  if (!lab::FleetSpecFromJson(spec_json, &spec, &error)) {
    out.Check(false, "fleet spec: " + error);
    return nullptr;
  }
  auto fleet = std::make_unique<lab::Fleet>(std::move(spec));
  if (!fleet->error().empty()) {
    out.Check(false, "fleet: " + fleet->error());
    return nullptr;
  }
  double guard = 0.0;
  for (std::uint64_t i = 0; i < fleet->cell_count(); ++i) {
    guard += fleet->CellConfig(fleet->CellAt(i)).stress_minutes;
  }
  return guard > 0.0 ? std::move(fleet) : nullptr;
}

struct Pipeline {
  double shard_s = 0.0;
  double merge_s = 0.0;
  double json_s = 0.0;
  double total_s = 0.0;  // RunFleetShard start until the fleet.json bytes are in hand
  double cells_per_s = 0.0;
  double bytes = 0.0;
  std::uint64_t cells_failed = 0;
  std::string json;
  std::string shard_path;
  // jobs=1 only: per-profile virtual seconds and host seconds of its cells.
  std::map<std::string, std::pair<double, double>> per_profile;
};

Pipeline RunPipeline(const lab::Fleet& fleet, int jobs, const fs::path& dir, SpanRecorder& spans,
                     Outcome& out) {
  auto pipeline_span = spans.Span(jobs == 1 ? "bench.fleet_jobs1" : "bench.fleet_jobsN");
  Pipeline p;
  std::error_code ec;
  fs::remove_all(dir, ec);  // a leftover shard file would resume, not re-run
  fs::create_directories(dir, ec);
  p.shard_path = lab::FleetShardPath(dir.string(), 0, 1);

  lab::FleetShardOptions options;
  options.jobs = jobs;
  options.out_path = p.shard_path;
  Clock::time_point last_done;
  if (jobs == 1) {
    options.on_cell_done = [&](const lab::FleetCell& cell, bool) {
      const Clock::time_point now = Clock::now();
      const lab::FleetCohort& cohort = fleet.spec().cohorts[cell.cohort];
      auto& [vsec, host_s] = p.per_profile[FleetProfile(cohort.os)];
      vsec += cohort.warmup_seconds + cohort.stress_minutes * 60.0;
      host_s += SecondsBetween(last_done, now);
      last_done = now;
    };
  }
  const Clock::time_point start = Clock::now();
  last_done = start;
  lab::FleetShardResult shard;
  {
    auto span = spans.Span("lab.RunFleetShard");
    shard = lab::RunFleetShard(fleet, options);
  }
  const Clock::time_point shard_end = Clock::now();
  lab::FleetReport report;
  std::string error;
  bool merged = false;
  {
    auto span = spans.Span("lab.MergeFleetShards");
    merged = lab::MergeFleetShards(fleet, {p.shard_path}, &report, &error);
  }
  const Clock::time_point merge_end = Clock::now();
  {
    auto span = spans.Span("lab.FleetReportToJson");
    p.json = lab::FleetReportToJson(report);
  }
  const Clock::time_point end = Clock::now();
  p.shard_s = SecondsBetween(start, shard_end);
  p.merge_s = SecondsBetween(shard_end, merge_end);
  p.json_s = SecondsBetween(merge_end, end);
  p.total_s = SecondsBetween(start, end);
  p.cells_per_s = static_cast<double>(fleet.cell_count()) / p.total_s;

  // Every executed cell is an attempted operation.
  p.cells_failed = shard.failures.size();
  out.Succeeded(shard.cells_executed - std::min<std::uint64_t>(shard.cells_executed,
                                                               p.cells_failed));
  for (const runtime::CellFailure& failure : shard.failures) {
    out.Check(false, "fleet cell " + std::to_string(failure.cell) + " failed");
  }
  out.Check(shard.error.empty() && shard.cells_total == fleet.cell_count(),
            "RunFleetShard: " + shard.error);
  out.Check(merged && report.cells_completed == fleet.cell_count(), "MergeFleetShards: " + error);
  {
    auto span = spans.Span("bench.write_file");
    out.Check(WriteText(dir / "fleet.json", p.json), "fleet.json not written");
  }
  p.bytes = static_cast<double>(fs::file_size(p.shard_path, ec) + p.json.size());
  return p;
}

struct DecodedShard {
  std::vector<std::string> lines;
  std::vector<lab::FleetCellRecord> records;
  std::vector<double> decode_us;
};

DecodedShard DecodeShard(const std::string& path, SpanRecorder& spans, Outcome& out) {
  DecodedShard shard;
  std::ifstream file(path, std::ios::binary);
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty()) {
      shard.lines.push_back(line);
    }
  }
  shard.records.resize(shard.lines.size());
  for (std::size_t i = 0; i < shard.lines.size(); ++i) {
    auto span = spans.Span("lab.FleetRecordFromLine");
    const Clock::time_point start = Clock::now();
    std::string error;
    const bool ok = lab::FleetRecordFromLine(shard.lines[i], &shard.records[i], &error);
    shard.decode_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
    if (!ok) {
      out.Check(false, "shard record " + std::to_string(i) + ": " + error);
    }
  }
  return shard;
}

}  // namespace

void RunFleetScreen(const Options& options, SpanRecorder& spans, Outcome& out) {
  const std::string spec_json = FleetSpecJson(options.seed);
  // As for the single-cell workloads: the real set-up, then one more after
  // every untraced repetition.
  std::vector<double> setup_s;
  std::unique_ptr<lab::Fleet> fleet;
  const auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<lab::Fleet> built = SetUpFleet(spec_json, out);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    return built;
  };
  fleet = set_up();
  if (fleet == nullptr) {
    SetOkFrac(out);
    return;
  }
  const int jobs = static_cast<int>(
      std::clamp<unsigned>(std::thread::hardware_concurrency(), 1u, 4u));
  const fs::path dir1 = fs::path(options.out_dir) / "fleet_jobs1";
  const fs::path dirn = fs::path(options.out_dir) / "fleet_jobsN";
  double vsec = 0.0;
  for (const lab::FleetCohort& cohort : fleet->spec().cohorts) {
    vsec += static_cast<double>(cohort.count) *
            (cohort.warmup_seconds + cohort.stress_minutes * 60.0);
  }

  // One repetition: the whole pipeline at jobs=1, then at jobs=N; the two
  // fleet.json documents must be byte-identical.
  std::string first_json;
  std::uint64_t cells_failed = 0;
  const auto rep = [&](std::vector<Pipeline>* ones, std::vector<Pipeline>* ns,
                       const char* pass) {
    Pipeline one = RunPipeline(*fleet, 1, dir1, spans, out);
    Pipeline n = RunPipeline(*fleet, jobs, dirn, spans, out);
    cells_failed += one.cells_failed + n.cells_failed;
    out.Check(one.json == n.json, std::string(pass) + ": fleet.json at jobs=1 differs from jobs=" +
                                      std::to_string(jobs));
    if (first_json.empty()) {
      first_json = n.json;
    }
    out.Check(n.json == first_json, std::string(pass) + ": repetition fleet.json differs");
    ones->push_back(std::move(one));
    ns->push_back(std::move(n));
  };

  std::vector<Pipeline> ones;
  std::vector<Pipeline> ns;
  RepeatFor(options.trace ? kPassShareTraced * options.seconds : options.seconds, [&] {
    rep(&ones, &ns, "untraced pass");
    out.Check(set_up() != nullptr, "fleet set-up");
  });
  CheckChecksum("fleet_screen", options, lab::Fnv1a64(first_json), kExpectedFleetScreen, out);

  // Vacuous-regime guard: every screening cell must keep real samples.
  DecodedShard decoded = DecodeShard(ns.back().shard_path, spans, out);
  std::uint64_t min_samples = decoded.records.empty() ? 0 : ~std::uint64_t{0};
  for (const lab::FleetCellRecord& record : decoded.records) {
    min_samples = std::min(min_samples, record.samples);
  }
  out.Check(decoded.records.size() == fleet->cell_count() &&
                min_samples >= kMinSamplesPerFleetCell,
            "fleet_screen: a cell kept " + std::to_string(min_samples) + " samples (< " +
                std::to_string(kMinSamplesPerFleetCell) + ": vacuous regime)");

  std::vector<double> cells_per_s;
  std::vector<double> cells_per_s_1;
  std::vector<double> shard1_s;
  std::map<std::string, std::vector<double>> vsec_per_s;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    cells_per_s.push_back(ns[i].cells_per_s);
    cells_per_s_1.push_back(ones[i].cells_per_s);
    shard1_s.push_back(ones[i].shard_s);
    for (const auto& [profile, work] : ones[i].per_profile) {
      vsec_per_s[profile].push_back(work.first / work.second);
    }
  }
  for (const auto& [profile, values] : vsec_per_s) {
    out.Set("vsec_per_s." + profile, Median(values));
  }
  SetEndToEnd(out, Median(setup_s), Median(cells_per_s), ns.front().bytes, vsec);
  if (!options.trace) {
    SetOkFrac(out);
    return;
  }

  spans.Start();
  std::vector<Pipeline> traced_ones;
  std::vector<Pipeline> traced_ns;
  RepeatFor(kPassShareTraced * options.seconds,
            [&] { rep(&traced_ones, &traced_ns, "traced pass"); });
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  std::vector<double> merge_ms;
  std::vector<double> json_ms;
  std::vector<double> merge_share;
  for (std::size_t i = 0; i < traced_ns.size(); ++i) {
    traced_wall.push_back(traced_ones[i].total_s + traced_ns[i].total_s);
    merge_ms.push_back(traced_ns[i].merge_s * 1e3);
    json_ms.push_back(traced_ns[i].json_s * 1e3);
    merge_share.push_back((traced_ns[i].merge_s + traced_ns[i].json_s) / traced_ns[i].total_s);
  }
  for (std::size_t i = 0; i < ns.size(); ++i) {
    untraced_wall.push_back(ones[i].total_s + ns[i].total_s);
  }
  out.Set("bench.trace_overhead", Median(traced_wall) / Median(untraced_wall));
  out.Set("lab.setup_ms", Median(setup_s) * 1e3);
  out.Set("lab.merge_ms", Median(merge_ms));
  out.Set("lab.report_json_ms", Median(json_ms));
  out.Set("lab.merge_share", Median(merge_share));
  out.Set("runtime.parallel_efficiency",
          Median(cells_per_s) / (static_cast<double>(jobs) * Median(cells_per_s_1)));

  // Record codec: decode every record of the traced jobs=N shard, re-encode
  // it, and require the identical line back.
  decoded = DecodeShard(traced_ns.back().shard_path, spans, out);
  std::vector<double> encode_us;
  double record_bytes = 0.0;
  for (std::size_t i = 0; i < decoded.records.size(); ++i) {
    auto span = spans.Span("lab.FleetRecordToLine");
    const Clock::time_point start = Clock::now();
    const std::string line = lab::FleetRecordToLine(decoded.records[i]);
    encode_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
    out.Check(line == decoded.lines[i], "shard record " + std::to_string(i) +
                                            " does not round-trip");
    record_bytes += static_cast<double>(line.size() + 1);
  }
  out.Set("lab.record_encode_us", Median(encode_us));
  out.Set("lab.record_decode_us", Median(decoded.decode_us));
  out.Set("lab.record_kb",
          record_bytes / static_cast<double>(std::max<std::size_t>(decoded.records.size(), 1)) /
              1024.0);
  std::vector<const stats::LatencyHistogram*> hists;
  std::vector<const stats::QuantileSketch*> sketches;
  for (const lab::FleetCellRecord& record : decoded.records) {
    hists.push_back(&record.thread);
    hists.push_back(&record.dpc_interrupt);
    sketches.push_back(&record.thread_sketch);
  }
  out.Set("stats.hist_merge_us", MergeMicros(hists, spans, "stats.LatencyHistogram::Merge"));
  out.Set("stats.sketch_merge_us", MergeMicros(sketches, spans, "stats.QuantileSketch::Merge"));

  // jobs=1 sweep on the benchmark's own warm machine (what WarmCellRunner
  // does: Reset, then RunLatencyExperimentOn) with a counting sink, for the
  // simulated-work counters and per-cell times. Each cell must reproduce
  // its shard record's sample count.
  Counters counters;
  std::vector<double> reset_us;
  std::vector<double> cell_ms;
  {
    auto sweep_span = spans.Span("bench.fleet_sweep");
    std::unique_ptr<lab::TestSystem> system;
    for (std::uint64_t i = 0; i < fleet->cell_count(); ++i) {
      lab::LabConfig config = fleet->CellConfig(fleet->CellAt(i));
      ForwardingSink sink;
      config.obs.trace_sink = &sink;
      const Clock::time_point start = Clock::now();
      if (system == nullptr) {
        system = std::make_unique<lab::TestSystem>(config.os, config.seed, config.options);
      } else {
        auto span = spans.Span("lab.TestSystem::Reset");
        system->Reset(config.os, config.seed, config.options);
      }
      const Clock::time_point reset_end = Clock::now();
      lab::LabReport report;
      {
        auto span = spans.Span("lab.RunLatencyExperimentOn");
        report = lab::RunLatencyExperimentOn(*system, config);
      }
      if (i > 0) {
        reset_us.push_back(SecondsBetween(start, reset_end) * 1e6);
      }
      cell_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
      counters.Add(*system, report, CellVirtualSeconds(config), sink);
      const bool match = i < decoded.records.size() && decoded.records[i].samples == report.samples;
      out.Check(match && system->engine().events_processed() > 0,
                "fleet cell " + std::to_string(i) + ": sweep differs from its shard record");
    }
  }
  counters.Publish(out);
  out.Set("lab.reset_us", Median(reset_us));
  out.Set("lab.cell_ms.p50", Quantile(cell_ms, 0.5));
  out.Set("lab.cell_ms.p90", Quantile(cell_ms, 0.9));

  std::vector<stats::QuantileSketch> probe_sketches;
  PublishCommonLayers(options, spans, out, Median(shard1_s) * 1e9 / counters.events,
                      &probe_sketches);
  out.Set("runtime.cells_failed", static_cast<double>(cells_failed));
  SetOkFrac(out);
}

void RunPaperCells(const Options& options, SpanRecorder& spans, Outcome& out) {
  CellWorkload(
      "paper_cells", Kind::kPlain,
      [](std::uint64_t seed) { return ProfileCells(seed, kCellsPerProfile, kPaperMeasureS, kPaperWarmupS); },
      kExpectedPaperCells)
      .Run(options, spans, out);
}

void RunObservedCell(const Options& options, SpanRecorder& spans, Outcome& out) {
  CellWorkload(
      "observed_cell", Kind::kObserved,
      [](std::uint64_t seed) { return ProfileCells(seed, kCellsPerProfile, kObservedMeasureS,
                                                     kObservedWarmupS); },
      kExpectedObservedCell)
      .Run(options, spans, out);
}

void RunTraceExport(const Options& options, SpanRecorder& spans, Outcome& out) {
  CellWorkload(
      "trace_export", Kind::kTraced,
      [](std::uint64_t seed) {
        return ProfileCells(seed, kTraceCellsPerProfile, kTraceMeasureS, kTraceWarmupS);
      },
      kExpectedTraceExport)
      .Run(options, spans, out);
}

}  // namespace perfbench
