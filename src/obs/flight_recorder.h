// EpisodeFlightRecorder: a black-box recorder for long-latency episodes.
//
// The paper's cause tool (Section 2.3) attributes long thread latencies to
// modules by sampling the instruction pointer on every PIT tick — an
// *outside* view that can only see what the clock interrupt happened to
// land on. The simulator also has the *inside* view: the dispatcher's trace
// stream says exactly which ISRs, raised-IRQL sections, DPCs and dispatch
// lockouts ran. This recorder reads the run's trailing kernel::TraceRing
// and, when the latency tool reports a sample over the threshold, sums the
// window's blame in place (kernel::TopBlame) and tallies the cause tool's
// sample buffer, into an episode summary carrying ground-truth blame — which
// makes the Table-4 methodology *scorable*: did IP sampling finger the module
// that actually consumed the episode's raised-IRQL time?

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/drivers/cause_tool.h"
#include "src/drivers/latency_driver.h"
#include "src/kernel/kernel.h"
#include "src/kernel/trace.h"

namespace wdmlat::obs {

// Thread-safe to copy across matrix workers: plain values only.
struct EpisodeSummary {
  double latency_ms = 0.0;
  double reported_at_ms = 0.0;  // virtual time of the report
  // Ground truth: the label whose ISR/section/DPC/lockout wall time dominates
  // the episode window, and how much of the window it consumed.
  std::string true_module;
  std::string true_function;
  double true_ms = 0.0;
  // The cause tool's verdict: its most-sampled label in the dumped ring.
  std::string cause_module;
  std::string cause_function;
  std::uint64_t cause_samples = 0;
  bool attributed = false;    // the tool dumped at least one sample
  bool module_match = false;  // attributed && cause_module == true_module
};

// Aggregate attribution-accuracy score over a run's episodes.
struct AttributionScore {
  std::uint64_t episodes = 0;
  std::uint64_t attributed = 0;
  std::uint64_t module_matches = 0;
  std::uint64_t function_matches = 0;
  // Fraction of attributed episodes whose top cause-tool module matches the
  // ground-truth module (0 when nothing was attributed).
  double ModuleAccuracy() const {
    return attributed == 0 ? 0.0
                           : static_cast<double>(module_matches) / static_cast<double>(attributed);
  }
};

AttributionScore ScoreAttribution(const std::vector<EpisodeSummary>& episodes);

// Attribution scoring against *injected* ground truth: when a fault plan is
// driven by fault::Injector, every injected activity is labelled with a known
// module ("FAULTINJ"), so — unlike the emergent ground truth above, which is
// itself derived from the trace — the experimenter knows a priori which
// episodes the injector caused. This score asks: of the episodes whose
// blame-dominant module is the injected one, how often did the cause tool's
// IP sampling agree?
struct InjectedGroundTruthScore {
  std::uint64_t episodes = 0;         // all episodes examined
  std::uint64_t injected_blamed = 0;  // ground-truth top module == injected module
  std::uint64_t attributed = 0;       // ... and the cause tool had samples
  std::uint64_t tool_agreed = 0;      // ... and its top module agreed
  // Of the injected-and-attributed episodes, the fraction the tool pinned on
  // the injector (0 when none were attributed).
  double ToolAccuracy() const {
    return attributed == 0 ? 0.0
                           : static_cast<double>(tool_agreed) / static_cast<double>(attributed);
  }
  // Fraction of all episodes the injected faults dominate.
  double InjectedShare() const {
    return episodes == 0 ? 0.0
                         : static_cast<double>(injected_blamed) / static_cast<double>(episodes);
  }
};

InjectedGroundTruthScore ScoreInjectedGroundTruth(const std::vector<EpisodeSummary>& episodes,
                                                  std::string_view module = "FAULTINJ");

// Table-style text report of the score plus per-episode verdict lines.
std::string RenderAttributionReport(const std::vector<EpisodeSummary>& episodes);

class EpisodeFlightRecorder {
 public:
  struct Config {
    // Thread latencies at or above this threshold summarize an episode.
    double threshold_ms = 8.0;
    std::size_t max_episodes = 64;
  };

  // `ring` (borrowed) is the run's trailing trace ring: the caller attaches
  // it (typically via TraceFanout) to the dispatcher so it sees every
  // transition, and keeps it alive as long as the recorder.
  EpisodeFlightRecorder(kernel::Kernel& kernel, const kernel::TraceRing& ring, Config config);

  // Register the snapshot callback on the driver (appended, so an earlier
  // CauseTool registration keeps firing first and its episode dump is
  // already available when the recorder snapshots). `cause_tool` may be
  // null: episodes then carry ground truth only.
  void Arm(drivers::LatencyDriver& driver, drivers::CauseTool* cause_tool);

  const std::vector<EpisodeSummary>& Summaries() const { return summaries_; }

 private:
  void OnLongLatency(double latency_ms);

  kernel::Kernel& kernel_;
  const kernel::TraceRing& ring_;
  Config cfg_;
  drivers::CauseTool* cause_tool_ = nullptr;
  std::size_t cause_episodes_seen_ = 0;
  std::vector<EpisodeSummary> summaries_;
};

}  // namespace wdmlat::obs

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
