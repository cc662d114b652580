// TraceFanout: dispatches each kernel::TraceEvent to several sinks, so a
// single run can feed a Chrome trace writer, the metrics collector and the
// run's trace ring at once. The dispatcher still sees exactly one
// TraceSink pointer (null when no sink is registered, keeping the hot path
// zero-cost).

#ifndef SRC_OBS_TRACE_FANOUT_H_
#define SRC_OBS_TRACE_FANOUT_H_

#include <vector>

#include "src/kernel/trace.h"

namespace wdmlat::obs {

class TraceFanout : public kernel::TraceSink {
 public:
  // Null sinks are ignored, so callers can Add unconditionally.
  void Add(kernel::TraceSink* sink) {
    if (sink != nullptr) {
      sinks_.push_back(sink);
    }
  }
  bool empty() const { return sinks_.empty(); }

  void OnTraceEvent(const kernel::TraceEvent& event) override {
    for (kernel::TraceSink* sink : sinks_) {
      sink->OnTraceEvent(event);
    }
  }

 private:
  std::vector<kernel::TraceSink*> sinks_;
};

}  // namespace wdmlat::obs

#endif  // SRC_OBS_TRACE_FANOUT_H_
