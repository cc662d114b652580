// ChromeTraceWriter: converts kernel::TraceEvent streams (and host-side
// matrix-runner activity) into Chrome trace-event JSON, viewable in Perfetto
// or chrome://tracing.
//
// Track layout: the simulated machine is one "process" with one track per
// CPU context, mirroring the dispatcher's privilege stack —
//   interrupt-stack   ISRs and raised-IRQL kernel sections (B/E slices nest
//                     exactly like the dispatcher's interrupt stack)
//   dpc               the running DPC
//   thread            the scheduled thread (context switches close one slice
//                     and open the next; thread-ready marks are instants)
//   dispatch-lockout  Win16Mutex/VMM lockout windows, spinlock spins and IPI
//                     flights as complete events
// On SMP profiles each core gets its own four tracks (tid = base + 10*core,
// named lazily on the core's first event); core 0 keeps the base tids, so a
// uniprocessor run serializes byte-identically to the pre-SMP writer.
// Cause→effect is drawn with Perfetto flow arrows ('s'/'f' event pairs):
// every DPC start gets a "dpc-queue" flow from its enqueue instant on the
// interrupt track, and every fresh thread dispatch gets a "thread-wake" flow
// from the signalling instant on the dpc track — the visual form of the
// anatomy's dpc_queue_wait and ready_wait stages.
// The matrix runner adds a second "process" with one track per host worker
// thread, one complete event per experiment cell (see lab::AppendHostTrace).
//
// The writer stores what it is given and maps it to Chrome records only at
// export. OnTraceEvent appends the kernel::TraceEvent as emitted to
// segments whose size doubles: an event is never moved or copied once
// stored, and a run of n events allocates O(log n) times. The generic calls
// (host slices, counters, track names) are kept as text entries in arrival
// order among those events. One render pass behind WriteJson, ToJson and
// event_count does all the mapping: per-core tracks and their names, names
// and args, flow ids, the thread slices and the closing E events. Its state
// lives in the pass, so every render of the same records gives the same
// bytes.
//
// The JSON is rendered through a raw char* cursor into one buffer and
// handed to the stream in blocks of about 1 MiB. Numbers go through
// AppendFixed6, which prints exactly what printf("%.6f") prints.
//
// The writer is a passive kernel::TraceSink: attaching it never changes
// simulation results, and with no sink attached the dispatcher's emit path
// stays zero-cost.

#ifndef SRC_OBS_CHROME_TRACE_H_
#define SRC_OBS_CHROME_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/kernel/trace.h"

namespace wdmlat::obs {

// Appends `value` exactly as printf("%.6f") renders it; NaN and infinities
// append "0", which keeps the trace valid JSON. Finite normal values below
// 2^43 in magnitude take an exact integer path; zero, subnormals and larger
// values go through std::to_chars.
void AppendFixed6(std::string& out, double value);

class ChromeTraceWriter : public kernel::TraceSink {
 public:
  // Process ids.
  static constexpr int kSimPid = 1;
  static constexpr int kHostPid = 2;
  // Simulated-CPU track ids within kSimPid (core 0; core c adds kCoreTidStride*c).
  static constexpr int kInterruptTid = 1;
  static constexpr int kDpcTid = 2;
  static constexpr int kThreadTid = 3;
  static constexpr int kLockoutTid = 4;
  static constexpr int kCoreTidStride = 10;

  ChromeTraceWriter();
  // Events live in the writer's own segments.
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  // kernel::TraceSink: stores the event as emitted.
  void OnTraceEvent(const kernel::TraceEvent& event) override;

  // Host/generic API (used by the matrix runner and the queue sampler).
  void CompleteSlice(int pid, int tid, double ts_us, double dur_us, std::string name,
                     std::vector<std::pair<std::string, std::string>> string_args = {},
                     std::vector<std::pair<std::string, double>> number_args = {});
  // Counter track: one 'C' event per sample; Perfetto renders a step chart.
  void Counter(int pid, double ts_us, std::string name, double value);
  void SetProcessName(int pid, const std::string& name);
  void SetThreadName(int pid, int tid, const std::string& name);

  // The number of objects in "traceEvents" apart from the closing E events.
  // Runs the render pass without writing.
  std::size_t event_count() const;

  // Serialize as {"traceEvents": [...], "displayTimeUnit": "ms"}. Slices
  // still open at the last event are closed at the last seen timestamp,
  // so B/E nesting in the output always matches.
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;
  // Returns false when the file cannot be opened or any write to it fails
  // (checked after the file is flushed and closed).
  bool WriteFile(const std::string& path) const;

 private:
  // A generic-API call, rendered after the first `at` stored events.
  struct Text {
    std::size_t at = 0;
    char phase = 'M';  // X, C or M
    int pid = kSimPid;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;  // X only
    std::string name;
    std::vector<std::pair<std::string, std::string>> string_args;
    std::vector<std::pair<std::string, double>> number_args;
  };

  // Segment s holds kFirstSegment << s events. 40 segments hold 2^48
  // events, far past any trace that fits in memory.
  static constexpr std::size_t kFirstSegment = 256;
  static constexpr std::size_t kMaxSegments = 40;
  static constexpr std::size_t SegmentCapacity(std::size_t s) { return kFirstSegment << s; }
  struct FreeSegment {
    void operator()(kernel::TraceEvent* segment) const { ::operator delete(segment); }
  };

  // Allocates the next segment, uninitialized; the constructor allocates
  // the first.
  void AddSegment();
  // Maps the stored events and texts to Chrome records, in order, and hands
  // each to `out` (see the sinks in chrome_trace.cc).
  template <typename Out>
  void Render(Out& out) const;

  // Filled front to back; [next_, segment_end_) is the unused rest of the
  // last segment.
  std::array<std::unique_ptr<kernel::TraceEvent, FreeSegment>, kMaxSegments> segments_;
  std::size_t segment_count_ = 0;
  std::size_t size_ = 0;
  kernel::TraceEvent* next_ = nullptr;
  kernel::TraceEvent* segment_end_ = nullptr;
  std::vector<Text> texts_;
};

static_assert(std::is_trivially_copyable_v<kernel::TraceEvent> &&
                  std::is_trivially_destructible_v<kernel::TraceEvent>,
              "events are copied into raw segments and freed without destructors");

}  // namespace wdmlat::obs

#endif  // SRC_OBS_CHROME_TRACE_H_
