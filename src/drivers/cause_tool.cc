#include "src/drivers/cause_tool.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

namespace wdmlat::drivers {

CauseTool::CauseTool(kernel::Kernel& kernel, LatencyDriver& driver, Config config)
    : kernel_(kernel),
      driver_(driver),
      cfg_(config),
      nmi_timer_(kernel.engine(), [this] { OnNmi(); }) {
  ring_.resize(cfg_.ring_size);
}

void CauseTool::Start() {
  if (cfg_.sampling == Sampling::kPitHook) {
    // Patch the PIT timer Interrupt Descriptor Table entry to point to our
    // hook function; the hook samples what the interrupt interrupted and
    // then "jumps to the OS PIT ISR".
    kernel_.clock_interrupt()->AddPreHook([this] { OnPitHook(); });
  } else {
    // Program the Pentium II performance counter to CPU_CLOCKS_UNHALTED and
    // deliver an NMI every nmi_period_ms: non-maskable, so it samples even
    // inside interrupt-masked sections.
    OnNmi();
  }
  driver_.SetLongLatencyCallback(cfg_.threshold_ms, [this](double ms) { OnLongLatency(ms); });
}

void CauseTool::OnPitHook() {
  Sample& slot = ring_[ring_next_];
  slot.label = kernel_.dispatcher().InterruptedLabel();
  slot.tsc = kernel_.GetCycleCount();
  ring_next_ = (ring_next_ + 1) % ring_.size();
  ++hook_samples_;
}

void CauseTool::OnNmi() {
  // The NMI handler records what the CPU is executing right now, raised
  // IRQL or not.
  Sample& slot = ring_[ring_next_];
  slot.label = kernel_.dispatcher().CurrentLabel();
  slot.tsc = kernel_.GetCycleCount();
  ring_next_ = (ring_next_ + 1) % ring_.size();
  ++hook_samples_;
  nmi_timer_.ArmAfter(sim::MsToCycles(cfg_.nmi_period_ms));
}

void CauseTool::OnLongLatency(double ms) {
  if (episodes_.size() >= cfg_.max_episodes) {
    return;
  }
  Episode episode;
  episode.latency_ms = ms;
  episode.reported_at = kernel_.GetCycleCount();
  // Keep the ring samples that fall inside the latency window (plus one PIT
  // period of slack on each side).
  const sim::Cycles slack = kernel_.pit().period();
  const sim::Cycles window = sim::MsToCycles(ms) + 2 * slack;
  const sim::Cycles window_start =
      episode.reported_at > window ? episode.reported_at - window : 0;
  // Oldest-first dump of the circular buffer.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Sample& sample = ring_[(ring_next_ + i) % ring_.size()];
    if (sample.tsc >= window_start && sample.tsc != 0) {
      episode.samples.push_back(sample);
    }
  }
  episodes_.push_back(std::move(episode));
}

std::string CauseTool::AnalysisReport(std::size_t max_episodes) const {
  std::ostringstream out;
  const std::size_t n = std::min(max_episodes, episodes_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Episode& episode = episodes_[i];
    out << "Analysis of latency episode number " << i << " (" << episode.latency_ms
        << " ms)\n";
    // Aggregate samples by module+function, preserving first-seen order.
    std::vector<std::pair<kernel::Label, int>> counts;
    for (const Sample& sample : episode.samples) {
      auto it = std::find_if(counts.begin(), counts.end(), [&](const auto& entry) {
        return entry.first == sample.label;
      });
      if (it == counts.end()) {
        counts.emplace_back(sample.label, 1);
      } else {
        ++it->second;
      }
    }
    int total = 0;
    for (const auto& [label, count] : counts) {
      if (cfg_.symbol_files_available) {
        out << "  " << count << " samples in " << label.module << " function "
            << label.function << "\n";
      } else {
        // No symbols: module plus a synthetic offset, as a raw IP sample
        // would resolve.
        out << "  " << count << " samples in " << label.module << " (no symbols, +0x"
            << std::hex << (std::hash<std::string>{}(label.function) & 0xffff) << std::dec
            << ")\n";
      }
      total += count;
    }
    out << "  -------------------------------------------\n";
    out << "  " << total << " total samples in episode\n\n";
  }
  if (episodes_.size() > n) {
    out << "(" << (episodes_.size() - n) << " further episodes omitted)\n";
  }
  return out.str();
}

}  // namespace wdmlat::drivers
