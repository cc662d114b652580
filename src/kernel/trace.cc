#include "src/kernel/trace.h"

#include <algorithm>
#include <sstream>

namespace wdmlat::kernel {

std::vector<TraceEvent> TraceRing::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  ForEach([&out](const TraceEvent& event) { out.push_back(event); });
  return out;
}

void TraceSession::OnTraceEvent(const TraceEvent& event) {
  ring_.OnTraceEvent(event);
  ++total_;
  ++counts_[static_cast<std::size_t>(event.type)];

  // Time accounting for the "exit" style events that carry a duration. Keyed
  // by literal address; TopTimeConsumers folds entries with equal text.
  if (event.type == TraceEventType::kIsrExit || event.type == TraceEventType::kSectionEnd ||
      event.type == TraceEventType::kDpcEnd) {
    auto it = std::find_if(label_times_.begin(), label_times_.end(), [&](const LabelTime& entry) {
      return SameAddress(entry.label, event.label);
    });
    if (it == label_times_.end()) {
      label_times_.push_back(LabelTime{event.label, event.duration, 1});
    } else {
      it->total += event.duration;
      ++it->occurrences;
    }
  }
}

std::vector<TraceSession::LabelTime> TraceSession::TopTimeConsumers(
    std::size_t max_entries) const {
  // Fold same-text entries into the first of them, keeping first-appearance
  // order: the table content-keyed accounting would have built.
  std::vector<LabelTime> sorted;
  for (const LabelTime& entry : label_times_) {
    auto it = std::find_if(sorted.begin(), sorted.end(),
                           [&](const LabelTime& folded) { return folded.label == entry.label; });
    if (it == sorted.end()) {
      sorted.push_back(entry);
    } else {
      it->total += entry.total;
      it->occurrences += entry.occurrences;
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const LabelTime& a, const LabelTime& b) { return a.total > b.total; });
  if (sorted.size() > max_entries) {
    sorted.resize(max_entries);
  }
  return sorted;
}

std::string TraceSession::Summary(std::size_t recent_events) const {
  std::ostringstream out;
  out << "Trace session: " << total_ << " events\n";
  for (std::size_t t = 0; t < kNumTraceEventTypes; ++t) {
    const auto type = static_cast<TraceEventType>(t);
    if (count(type) > 0) {
      out << "  " << TraceEventName(type) << ": " << count(type) << "\n";
    }
  }
  const auto top = TopTimeConsumers();
  if (!top.empty()) {
    out << "Top raised-IRQL time consumers:\n";
    for (const LabelTime& entry : top) {
      out << "  " << ToString(entry.label) << ": " << sim::CyclesToMs(entry.total)
          << " ms over " << entry.occurrences << " occurrences\n";
    }
  }
  if (recent_events > 0) {
    const auto events = Snapshot();
    const std::size_t begin = events.size() > recent_events ? events.size() - recent_events : 0;
    out << "Most recent events:\n";
    for (std::size_t i = begin; i < events.size(); ++i) {
      const TraceEvent& event = events[i];
      out << "  [" << sim::CyclesToMs(event.tsc) << " ms] " << TraceEventName(event.type)
          << " " << ToString(event.label);
      if (event.duration > 0) {
        out << " (" << sim::CyclesToUs(event.duration) << " us)";
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace wdmlat::kernel
