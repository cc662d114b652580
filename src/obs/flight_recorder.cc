#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace wdmlat::obs {

namespace {

// Which trace events carry blame: the "exit" events whose duration is the
// wall time an activity held the CPU above PASSIVE, plus dispatch lockouts
// (labelled with the code path that took the lockout). kContextSwitch and
// kThreadReady are scheduler bookkeeping, not culprits.
bool CarriesBlame(kernel::TraceEventType type) {
  using kernel::TraceEventType;
  return type == TraceEventType::kIsrExit || type == TraceEventType::kSectionEnd ||
         type == TraceEventType::kDpcEnd || type == TraceEventType::kDispatchLockout;
}

struct LabelCycles {
  kernel::Label label;
  sim::Cycles total = 0;
};

}  // namespace

AttributionScore ScoreAttribution(const std::vector<EpisodeSummary>& episodes) {
  AttributionScore score;
  score.episodes = episodes.size();
  for (const EpisodeSummary& episode : episodes) {
    if (!episode.attributed) {
      continue;
    }
    ++score.attributed;
    if (episode.module_match) {
      ++score.module_matches;
      if (episode.cause_function == episode.true_function) {
        ++score.function_matches;
      }
    }
  }
  return score;
}

InjectedGroundTruthScore ScoreInjectedGroundTruth(const std::vector<EpisodeSummary>& episodes,
                                                  std::string_view module) {
  InjectedGroundTruthScore score;
  score.episodes = episodes.size();
  for (const EpisodeSummary& episode : episodes) {
    if (episode.true_module != module) {
      continue;
    }
    ++score.injected_blamed;
    if (!episode.attributed) {
      continue;
    }
    ++score.attributed;
    if (episode.cause_module == module) {
      ++score.tool_agreed;
    }
  }
  return score;
}

std::string RenderAttributionReport(const std::vector<EpisodeSummary>& episodes) {
  std::ostringstream out;
  const AttributionScore score = ScoreAttribution(episodes);
  out << "Attribution accuracy: cause-tool top module vs. flight-recorder ground truth\n";
  char line[160];
  std::snprintf(line, sizeof(line),
                "  episodes %llu, attributed %llu, module matches %llu, function matches "
                "%llu, module accuracy %.0f%%\n",
                static_cast<unsigned long long>(score.episodes),
                static_cast<unsigned long long>(score.attributed),
                static_cast<unsigned long long>(score.module_matches),
                static_cast<unsigned long long>(score.function_matches),
                100.0 * score.ModuleAccuracy());
  out << line;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const EpisodeSummary& e = episodes[i];
    std::snprintf(line, sizeof(line), "  episode %zu (%.1f ms): truth %s!%s (%.1f ms), tool %s",
                  i, e.latency_ms, e.true_module.c_str(), e.true_function.c_str(), e.true_ms,
                  e.attributed ? (e.cause_module + "!" + e.cause_function).c_str()
                               : "(no samples)");
    out << line << (e.module_match ? "  [match]" : e.attributed ? "  [MISS]" : "") << "\n";
  }
  return out.str();
}

EpisodeFlightRecorder::EpisodeFlightRecorder(kernel::Kernel& kernel, Config config)
    : kernel_(kernel), cfg_(config), ring_(config.ring_capacity) {}

void EpisodeFlightRecorder::Arm(drivers::LatencyDriver& driver,
                                drivers::CauseTool* cause_tool) {
  cause_tool_ = cause_tool;
  cause_episodes_seen_ = cause_tool_ != nullptr ? cause_tool_->episodes().size() : 0;
  driver.AddLongLatencyCallback(cfg_.threshold_ms, [this](double ms) { OnLongLatency(ms); });
}

void EpisodeFlightRecorder::OnLongLatency(double latency_ms) {
  if (episodes_.size() >= cfg_.max_episodes) {
    return;
  }
  Episode episode;
  episode.latency_ms = latency_ms;
  episode.reported_at = kernel_.GetCycleCount();

  // The latency window, with one PIT period of slack on each side (the same
  // slack the cause tool uses for its ring dump).
  const sim::Cycles slack = kernel_.pit().period();
  const sim::Cycles window = sim::MsToCycles(latency_ms) + 2 * slack;
  const sim::Cycles window_start =
      episode.reported_at > window ? episode.reported_at - window : 0;
  ring_.ForEach([&](const kernel::TraceEvent& event) {
    if (event.tsc >= window_start) {
      episode.trace.push_back(event);
    }
  });

  // Ground truth: per-label wall time of blame-carrying activities in the
  // window; the top label is what actually consumed the episode.
  std::vector<LabelCycles> blame;
  for (const kernel::TraceEvent& event : episode.trace) {
    if (!CarriesBlame(event.type) || event.duration == 0) {
      continue;
    }
    auto it = std::find_if(blame.begin(), blame.end(),
                           [&](const LabelCycles& entry) { return entry.label == event.label; });
    if (it == blame.end()) {
      blame.push_back(LabelCycles{event.label, event.duration});
    } else {
      it->total += event.duration;
    }
  }
  EpisodeSummary& summary = episode.summary;
  summary.latency_ms = latency_ms;
  summary.reported_at_ms = sim::CyclesToMs(episode.reported_at);
  if (!blame.empty()) {
    const auto top = std::max_element(
        blame.begin(), blame.end(),
        [](const LabelCycles& a, const LabelCycles& b) { return a.total < b.total; });
    summary.true_module = top->label.module;
    summary.true_function = top->label.function;
    summary.true_ms = sim::CyclesToMs(top->total);
  }

  // The cause tool's callback ran before ours (it registered first), so its
  // episode dump for this same latency report — if its cap was not hit — is
  // the newest entry.
  if (cause_tool_ != nullptr && cause_tool_->episodes().size() > cause_episodes_seen_) {
    cause_episodes_seen_ = cause_tool_->episodes().size();
    episode.cause_samples = cause_tool_->episodes().back().samples;
  }
  if (!episode.cause_samples.empty()) {
    std::vector<std::pair<kernel::Label, std::uint64_t>> counts;
    for (const drivers::CauseTool::Sample& sample : episode.cause_samples) {
      auto it = std::find_if(counts.begin(), counts.end(), [&](const auto& entry) {
        return entry.first == sample.label;
      });
      if (it == counts.end()) {
        counts.emplace_back(sample.label, 1);
      } else {
        ++it->second;
      }
    }
    const auto top = std::max_element(
        counts.begin(), counts.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    summary.cause_module = top->first.module;
    summary.cause_function = top->first.function;
    summary.cause_samples = top->second;
    summary.attributed = true;
    summary.module_match = !summary.true_module.empty() &&
                           summary.cause_module == summary.true_module;
  }
  episodes_.push_back(std::move(episode));
}

std::vector<EpisodeSummary> EpisodeFlightRecorder::Summaries() const {
  std::vector<EpisodeSummary> out;
  out.reserve(episodes_.size());
  for (const Episode& episode : episodes_) {
    out.push_back(episode.summary);
  }
  return out;
}

AttributionScore EpisodeFlightRecorder::Score() const { return ScoreAttribution(Summaries()); }

}  // namespace wdmlat::obs
