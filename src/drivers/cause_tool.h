// The latency cause tool (paper Section 2.3).
//
// "We began by modifying our thread latency tool to hook the Pentium
// processor Interrupt Descriptor Table (IDT) entry for the Programmable
// Interval Timer (PIT) interrupt. [...] The hook function updates a circular
// buffer with the current instruction pointer, code segment and time stamp
// and then jumps to the OS PIT ISR. We then modified the thread latency tool
// to report only latencies in excess of a preset threshold and to dump the
// contents of the circular buffer when it reported a long latency. Post
// mortem analysis produces a set of traces of active modules and functions."
//
// Our IDT hook samples the simulator's interrupted-activity label (module +
// function) instead of an instruction pointer resolved via symbol files; the
// architecture and the Table-4 style episode reports are the same.

#ifndef SRC_DRIVERS_CAUSE_TOOL_H_
#define SRC_DRIVERS_CAUSE_TOOL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/drivers/latency_driver.h"
#include "src/kernel/kernel.h"
#include "src/kernel/label.h"

namespace wdmlat::drivers {

class CauseTool {
 public:
  enum class Sampling {
    // Hook the PIT IDT vector: one sample per clock tick, maskable — a long
    // cli section appears as a gap followed by one sample (the paper's
    // original tool).
    kPitHook,
    // Section 6.1 future work: "we plan to enhance it to hook non-maskable
    // interrupts caused by the Pentium II performance monitoring counters
    // [...] configuring the performance counter to the CPU_CLOCKS_UNHALTED
    // event we will be able to get sub-millisecond resolution during both
    // thread and interrupt latencies." NMIs sample even inside
    // interrupt-masked sections.
    kPerfCounterNmi,
  };

  struct Config {
    std::size_t ring_size = 64;
    // Report only thread latencies at or above this threshold.
    double threshold_ms = 8.0;
    std::size_t max_episodes = 256;
    Sampling sampling = Sampling::kPitHook;
    // NMI sampling period (sub-millisecond resolution).
    double nmi_period_ms = 0.2;
    // "Post mortem analysis produces a set of traces of active modules and,
    // if symbol files are available, functions" (Section 2.3, via an MSDN
    // subscription). Without symbols the report shows module+offset only.
    bool symbol_files_available = true;
  };

  struct Sample {
    kernel::Label label;
    sim::Cycles tsc = 0;
  };

  struct Episode {
    double latency_ms = 0.0;
    sim::Cycles reported_at = 0;
    std::vector<Sample> samples;  // ring contents within the latency window
  };

  CauseTool(kernel::Kernel& kernel, LatencyDriver& driver, Config config);
  // Its timer's callable captures `this`.
  CauseTool(const CauseTool&) = delete;
  CauseTool& operator=(const CauseTool&) = delete;

  // Patch the PIT IDT entry (or program the performance-counter NMI) and
  // arm the long-latency dump.
  void Start();

  const std::vector<Episode>& episodes() const { return episodes_; }
  std::uint64_t hook_samples() const { return hook_samples_; }

  // Post-mortem analysis: per-episode module+function sample counts in the
  // format of the paper's Table 4.
  std::string AnalysisReport(std::size_t max_episodes = 10) const;

 private:
  void OnPitHook();
  void OnNmi();
  void OnLongLatency(double ms);

  kernel::Kernel& kernel_;
  LatencyDriver& driver_;
  Config cfg_;

  std::vector<Sample> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t hook_samples_ = 0;
  std::vector<Episode> episodes_;
  sim::Timer nmi_timer_;
};

}  // namespace wdmlat::drivers

#endif  // SRC_DRIVERS_CAUSE_TOOL_H_
