#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace wdmlat::obs {

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

EpisodeFlightRecorder::EpisodeFlightRecorder(kernel::Kernel& kernel,
                                             const kernel::TraceRing& ring, Config config)
    : kernel_(kernel), ring_(ring), cfg_(config) {}

void EpisodeFlightRecorder::Arm(drivers::LatencyDriver& driver,
                                drivers::CauseTool* cause_tool) {
  cause_tool_ = cause_tool;
  cause_episodes_seen_ = cause_tool_ != nullptr ? cause_tool_->episodes().size() : 0;
  driver.AddLongLatencyCallback(cfg_.threshold_ms, [this](double ms) { OnLongLatency(ms); });
}

void EpisodeFlightRecorder::OnLongLatency(double latency_ms) {
  if (summaries_.size() >= cfg_.max_episodes) {
    return;
  }
  const sim::Cycles reported_at = kernel_.GetCycleCount();
  EpisodeSummary& summary = summaries_.emplace_back();
  summary.latency_ms = latency_ms;
  summary.reported_at_ms = sim::CyclesToMs(reported_at);

  // Ground truth: the label whose blame-carrying wall time dominates the
  // latency window, with one PIT period of slack on each side (the same
  // slack the cause tool uses for its ring dump).
  const sim::Cycles slack = kernel_.pit().period();
  const sim::Cycles window = sim::MsToCycles(latency_ms) + 2 * slack;
  const sim::Cycles window_start = reported_at > window ? reported_at - window : 0;
  const std::vector<kernel::LabelTime> top = kernel::TopBlame(ring_, window_start, 1);
  if (!top.empty()) {
    summary.true_module = top.front().label.module;
    summary.true_function = top.front().label.function;
    summary.true_ms = sim::CyclesToMs(top.front().total);
  }

  // The cause tool's callback ran before ours (it registered first), so its
  // episode dump for this same latency report — if its cap was not hit — is
  // the newest entry.
  if (cause_tool_ == nullptr || cause_tool_->episodes().size() == cause_episodes_seen_) {
    return;
  }
  cause_episodes_seen_ = cause_tool_->episodes().size();
  const std::vector<drivers::CauseTool::Sample>& samples = cause_tool_->episodes().back().samples;
  if (samples.empty()) {
    return;
  }
  std::vector<std::pair<kernel::Label, std::uint64_t>> counts;
  for (const drivers::CauseTool::Sample& sample : samples) {
    auto it = std::find_if(counts.begin(), counts.end(),
                           [&](const auto& entry) { return entry.first == sample.label; });
    if (it == counts.end()) {
      counts.emplace_back(sample.label, 1);
    } else {
      ++it->second;
    }
  }
  const auto top_sample = std::max_element(
      counts.begin(), counts.end(), [](const auto& a, const auto& b) { return a.second < b.second; });
  summary.cause_module = top_sample->first.module;
  summary.cause_function = top_sample->first.function;
  summary.cause_samples = top_sample->second;
  summary.attributed = true;
  summary.module_match =
      !summary.true_module.empty() && summary.cause_module == summary.true_module;
}

}  // namespace wdmlat::obs
