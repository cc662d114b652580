// Kernel event tracing (ETW-flavoured, fittingly for a Windows model).
//
// A TraceSink receives structured callbacks for every dispatcher transition:
// ISR enter/exit, DPC start/end, context switches, kernel sections and
// dispatch lockouts. TraceRing is the one raw-event store of a run: a fixed
// ring of the most recent events, the paper's circular buffer (Section 2.3).
// TopBlame reads it as the "who is stealing my CPU at raised IRQL" view that
// the paper's cause tool approximates from the outside with IP sampling.

#ifndef SRC_KERNEL_TRACE_H_
#define SRC_KERNEL_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/kernel/label.h"
#include "src/sim/time.h"

namespace wdmlat::kernel {

class KThread;

enum class TraceEventType : std::uint8_t {
  kIsrEnter,
  kIsrExit,
  kDpcStart,
  kDpcEnd,
  kContextSwitch,
  kSectionStart,
  kSectionEnd,
  kDispatchLockout,
  kThreadReady,
  // Causal-anatomy boundary events (PR 7): the fine-grained phase
  // transitions LatencyAnatomy needs to partition CPU time exactly.
  kIsrAccept,   // interrupt taken, trap-dispatch overhead begins
  kDpcFetch,    // DPC dequeued, dispatch overhead begins (before kDpcStart)
  kThreadRun,   // context-switch overhead done, thread body begins
  kThreadStop,  // thread left the CPU (blocked, exited, or preempted)
  // SMP events (only emitted with cores > 1): both are "completion" events
  // whose duration is the wait they report, so UP traces never contain them.
  kSpinlockWait,  // spinlock granted; duration = cycles spent spinning
  kIpi,           // inter-processor interrupt delivered; duration = flight time
  // Sentinel — keep last. Sizes every per-type array (the metrics
  // collector's series, exporter tables), so adding an event type above
  // cannot silently under-count.
  kTraceEventTypeCount,
};

inline constexpr std::size_t kNumTraceEventTypes =
    static_cast<std::size_t>(TraceEventType::kTraceEventTypeCount);

constexpr const char* TraceEventName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kIsrEnter:
      return "isr-enter";
    case TraceEventType::kIsrExit:
      return "isr-exit";
    case TraceEventType::kDpcStart:
      return "dpc-start";
    case TraceEventType::kDpcEnd:
      return "dpc-end";
    case TraceEventType::kContextSwitch:
      return "context-switch";
    case TraceEventType::kSectionStart:
      return "section-start";
    case TraceEventType::kSectionEnd:
      return "section-end";
    case TraceEventType::kDispatchLockout:
      return "dispatch-lockout";
    case TraceEventType::kThreadReady:
      return "thread-ready";
    case TraceEventType::kIsrAccept:
      return "isr-accept";
    case TraceEventType::kDpcFetch:
      return "dpc-fetch";
    case TraceEventType::kThreadRun:
      return "thread-run";
    case TraceEventType::kThreadStop:
      return "thread-stop";
    case TraceEventType::kSpinlockWait:
      return "spinlock-wait";
    case TraceEventType::kIpi:
      return "ipi";
    case TraceEventType::kTraceEventTypeCount:
      break;
  }
  return "?";
}

struct TraceEvent {
  TraceEventType type{};
  sim::Cycles tsc = 0;
  Label label{};
  // kIsrEnter/kIsrExit/kIsrAccept: interrupt line; kContextSwitch/
  // kThreadReady/kThreadRun/kThreadStop: thread priority; otherwise unused.
  int arg = -1;
  // kIsrExit/kSectionEnd/kDpcEnd: wall duration since the matching start;
  // kDispatchLockout: requested lockout length; kThreadRun: wake-to-run
  // latency (signal to body start) on a fresh dispatch, 0 on a resume;
  // kSpinlockWait: cycles spent spinning; kIpi: cross-core flight time.
  sim::Cycles duration = 0;
  // Core the event happened on. Always 0 on uniprocessor profiles, so UP
  // trace bytes are unchanged by the SMP refactor.
  int core = 0;
};

// Abstract sink; all methods optional.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnTraceEvent(const TraceEvent& event) = 0;
};

// Fixed-capacity ring of the most recent events (capacity > 0): each event
// overwrites the oldest once the ring is full. Nothing else is kept per
// event.
class TraceRing : public TraceSink {
 public:
  explicit TraceRing(std::size_t capacity = 4096) : events_(capacity) {}

  void OnTraceEvent(const TraceEvent& event) override {
    events_[next_] = event;
    if (++next_ == events_.size()) {
      next_ = 0;
      wrapped_ = true;
    }
  }

  std::size_t size() const { return wrapped_ ? events_.size() : next_; }

  // Calls visit(const TraceEvent&) on the retained events, oldest first.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    if (wrapped_) {
      for (std::size_t i = next_; i < events_.size(); ++i) {
        visit(events_[i]);
      }
    }
    for (std::size_t i = 0; i < next_; ++i) {
      visit(events_[i]);
    }
  }

 private:
  std::vector<TraceEvent> events_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
};

struct LabelTime {
  Label label;
  sim::Cycles total = 0;
  std::uint64_t occurrences = 0;
};

// The blame rule of the flight recorder and the supervision black box: the
// wall time of every ISR, section and DPC exit and every dispatch lockout
// with a nonzero duration at or after `since`, summed per label (labels
// compare by text, and an entry keeps the first address seen). Returns at
// most `max_entries` labels, largest total first; ties keep first-appearance
// order, so the first entry is the first label to reach the maximum.
std::vector<LabelTime> TopBlame(const TraceRing& ring, sim::Cycles since,
                                std::size_t max_entries);

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_TRACE_H_
