// Shared pieces of the end-to-end benchmark program: run options, the
// in-memory span recorder of the traced pass, the metric/outcome sink every
// workload reports into, and the workload entry points.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // false: the untraced pass only (end-to-end metrics). true: an untraced
  // pass, then a traced pass plus the per-layer measurements.
  bool trace = false;
  // Scratch directory for the artifacts (shard files, reports, traces).
  std::string out_dir;
};

// Spans around the benchmark's own calls into each layer's public entry
// points: name, start, end and parent, kept in memory and written out once
// the run ends. Until Start() the recorder hands out inert scopes, so the
// untraced pass pays one branch per call. Single-threaded: every span is
// opened on the program's main thread.
class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  // Begin recording (the traced pass); span times count from here.
  void Start() {
    enabled_ = true;
    origin_ = Clock::now();
  }
  Scope Span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    // Span duration minus the part covered by its direct children.
    double self_ms = 0.0;
  };
  // One row per span name, sorted by self time, largest first.
  std::vector<SelfTime> SelfTimes() const;
  // {"spans": [{"name", "start_us", "end_us", "parent"}...], "self_ms": {...}}
  std::string ToJson() const;

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  int Open(const char* name);
  void Close(int index);
  std::int64_t NowNs() const;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  int open_ = -1;
};

// Everything a workload reports: attempted/failed operations, failure
// reasons, and metric values by name (units come from the declared lists in
// perfbench.cc, which mirror BENCHMARK.json).
class Outcome {
 public:
  // Count one operation; a false `ok` counts it failed and keeps `what`.
  void Check(bool ok, const std::string& what);
  // Count `count` operations that succeeded.
  void Succeeded(std::uint64_t count) { attempted_ += count; }
  void Set(const std::string& name, double value) { values_[name] = value; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> values_;
};

// Workloads (workloads.cc). Each runs its untraced pass for the run's
// measuring time and fills the end-to-end metrics; with options.trace it
// also runs the traced pass and fills the per-layer metrics.
void RunPaperCells(const Options& options, SpanRecorder& spans, Outcome& out);
void RunFleetScreen(const Options& options, SpanRecorder& spans, Outcome& out);
void RunObservedCell(const Options& options, SpanRecorder& spans, Outcome& out);
void RunTraceExport(const Options& options, SpanRecorder& spans, Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
