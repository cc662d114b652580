#include "src/kernel/trace.h"

#include <algorithm>

namespace wdmlat::kernel {

std::vector<LabelTime> TopBlame(const TraceRing& ring, sim::Cycles since,
                                std::size_t max_entries) {
  // kContextSwitch and kThreadReady are scheduler bookkeeping, not culprits;
  // a lockout is labelled with the code path that took it.
  std::vector<LabelTime> blame;
  ring.ForEach([&](const TraceEvent& event) {
    if (event.tsc < since || event.duration == 0 ||
        (event.type != TraceEventType::kIsrExit && event.type != TraceEventType::kSectionEnd &&
         event.type != TraceEventType::kDpcEnd &&
         event.type != TraceEventType::kDispatchLockout)) {
      return;
    }
    auto it = std::find_if(blame.begin(), blame.end(),
                           [&](const LabelTime& entry) { return entry.label == event.label; });
    if (it == blame.end()) {
      blame.push_back(LabelTime{event.label, event.duration, 1});
    } else {
      it->total += event.duration;
      ++it->occurrences;
    }
  });
  // A stable insertion sort, largest total first: a tally holds tens of
  // labels, and unlike std::stable_sort it needs no scratch buffer.
  for (std::size_t i = 1; i < blame.size(); ++i) {
    for (std::size_t j = i; j > 0 && blame[j - 1].total < blame[j].total; --j) {
      std::swap(blame[j - 1], blame[j]);
    }
  }
  if (blame.size() > max_entries) {
    blame.resize(max_entries);
  }
  return blame;
}

}  // namespace wdmlat::kernel
