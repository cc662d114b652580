// wdmlat end-to-end benchmark program.
//
//   wdmlat_perfbench --workload paper_cells --seed 1 --seconds 10 --trace 0
//       --out-dir .bench_build/work [--spans-out spans.json]
//
// Runs one workload (paper_cells, fleet_screen, observed_cell,
// trace_export) as a closed batch in this process and prints, as the last
// line of stdout, one JSON object:
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// With --trace 0 the metrics are the end-to-end set, measured with tracing
// off. With --trace 1 they are the per-layer set: the run adds a traced pass
// (spans around every call into a layer, a counting trace sink on the
// simulated kernel) and prints each span's self time above the JSON line.
// perfbench/README.md documents every workload and metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"vsec_per_s.win98", "vsec/s"},
    {"vsec_per_s.nt4", "vsec/s"},
    {"vsec_per_s.smp2", "vsec/s"},
    {"cells_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"output_mb_per_vmin", "MB/vmin"},
    {"ok_frac", "ratio"},
};

// Must match "per_layer" in BENCHMARK.json.
constexpr MetricDecl kPerLayer[] = {
    {"sim.events_per_vsec", "1/vsec"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.compactions_per_vsec", "1/vsec"},
    {"sim.calendar_floor_ns", "ns"},
    {"sim.calendar_share", "ratio"},
    {"kernel.interrupts_per_vsec", "1/vsec"},
    {"kernel.dpcs_per_vsec", "1/vsec"},
    {"kernel.context_switches_per_vsec", "1/vsec"},
    {"kernel.sections_per_vsec", "1/vsec"},
    {"kernel.ipis_per_vsec", "1/vsec"},
    {"kernel.spin_contentions_per_vsec", "1/vsec"},
    {"kernel.trace_events_per_vsec", "1/vsec"},
    {"drivers.samples_per_vsec", "1/vsec"},
    {"fault.activations_per_cell", "count"},
    {"stats.hist_merge_us", "us"},
    {"stats.sketch_merge_us", "us"},
    {"stats.sketch.overhead", "x"},
    {"obs.metrics.overhead", "x"},
    {"obs.anatomy.overhead", "x"},
    {"obs.export_ms", "ms"},
    {"obs.trace.overhead", "x"},
    {"obs.trace_sink_ns_per_event", "ns"},
    {"obs.trace_events_per_vsec", "1/vsec"},
    {"obs.trace_write_ms", "ms"},
    {"lab.setup_ms", "ms"},
    {"lab.reset_us", "us"},
    {"lab.cell_ms.p50", "ms"},
    {"lab.cell_ms.p90", "ms"},
    {"lab.record_encode_us", "us"},
    {"lab.record_decode_us", "us"},
    {"lab.record_kb", "KiB"},
    {"lab.merge_ms", "ms"},
    {"lab.report_json_ms", "ms"},
    {"lab.merge_share", "ratio"},
    {"lab.samples_per_cell.min", "count"},
    {"runtime.parallel_efficiency", "ratio"},
    {"runtime.cells_failed", "count"},
    {"bench.trace_overhead", "x"},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "wdmlat_perfbench: %s\n"
               "usage: wdmlat_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--out-dir DIR [--spans-out FILE]\n"
               "workloads: paper_cells fleet_screen observed_cell trace_export\n",
               problem.c_str());
  std::exit(2);
}

std::string EscapeJson(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
  if (recorder_ != nullptr) {
    index_ = recorder_->Open(name);
  }
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) {
    recorder_->Close(index_);
  }
}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

int SpanRecorder::Open(const char* name) {
  spans_.push_back(Record{name, NowNs(), -1, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void SpanRecorder::Close(int index) {
  spans_[index].end_ns = NowNs();
  open_ = spans_[index].parent;
}

std::vector<SpanRecorder::SelfTime> SpanRecorder::SelfTimes() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Record& span : spans_) {
    if (span.parent >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& row = by_name[spans_[i].name];
    row.name = spans_[i].name;
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    ++row.count;
    row.total_ms += static_cast<double>(total) / 1e6;
    row.self_ms += static_cast<double>(total - child_ns[i]) / 1e6;
  }
  std::vector<SelfTime> rows;
  for (auto& [name, row] : by_name) {
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.self_ms > b.self_ms; });
  return rows;
}

std::string SpanRecorder::ToJson() const {
  std::string out = "{\"spans\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"parent\": %d}",
                  i == 0 ? "" : ",\n", EscapeJson(spans_[i].name).c_str(),
                  static_cast<double>(spans_[i].start_ns) / 1e3,
                  static_cast<double>(spans_[i].end_ns) / 1e3, spans_[i].parent);
    out += buf;
  }
  out += "],\n\"self_ms\": {";
  bool first = true;
  for (const SelfTime& row : SelfTimes()) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f", first ? "" : ", ",
                  EscapeJson(row.name).c_str(), row.self_ms);
    out += buf;
    first = false;
  }
  out += "}}\n";
  return out;
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string spans_out;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(flag + " needs a value");
    }
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.out_dir.empty()) {
    Usage("--seed, --seconds, --trace and --out-dir are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    Usage("cannot create --out-dir " + options.out_dir);
  }

  SpanRecorder spans;
  Outcome out;
  if (options.workload == "paper_cells") {
    RunPaperCells(options, spans, out);
  } else if (options.workload == "fleet_screen") {
    RunFleetScreen(options, spans, out);
  } else if (options.workload == "observed_cell") {
    RunObservedCell(options, spans, out);
  } else if (options.workload == "trace_export") {
    RunTraceExport(options, spans, out);
  } else {
    Usage("unknown --workload '" + options.workload + "'");
  }

  for (const std::string& failure : out.failures()) {
    std::fprintf(stderr, "wdmlat_perfbench: FAILED: %s\n", failure.c_str());
  }
  if (options.trace) {
    std::printf("span self time (traced pass):\n  %-40s %8s %12s %12s\n", "span", "count",
                "total ms", "self ms");
    for (const SpanRecorder::SelfTime& row : spans.SelfTimes()) {
      std::printf("  %-40s %8llu %12.3f %12.3f\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms, row.self_ms);
    }
    if (!spans_out.empty()) {
      std::ofstream file(spans_out, std::ios::binary | std::ios::trunc);
      file << spans.ToJson();
      if (!file) {
        std::fprintf(stderr, "wdmlat_perfbench: cannot write %s\n", spans_out.c_str());
        return 3;
      }
    }
  }

  const MetricDecl* first = options.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDecl* last = options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string metrics;
  char buf[512];
  for (const MetricDecl* decl = first; decl != last; ++decl) {
    const auto it = out.values().find(decl->name);
    if (it == out.values().end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "wdmlat_perfbench: metric %s was not measured\n", decl->name);
      return 3;
    }
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", decl->name, it->second, decl->unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted()),
              static_cast<unsigned long long>(out.failed()), metrics.c_str());
  return 0;
}
