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
// Events are stored as compact 48-byte records: a dispatcher event keeps
// its label (two static pointers) and integer arg plus a small enum naming
// the form of its name ("lockout: " + label, "thread prio N", ...), so the
// sink neither formats nor allocates per event. Names are rendered only at
// write time. Strings passed to the generic API (host slices, counters,
// track names) live in a side table that the record indexes. Records are
// appended to segments whose size doubles: a record is never moved or
// copied once written, and a run of n events allocates O(log n) times.
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

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/kernel/label.h"
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

  // How a record's name is rendered at write time (N is the record's arg).
  enum class NameForm : std::uint8_t {
    kNone,        // no "name" key
    kText,        // the side-table entry's name (generic API)
    kLabel,       // "MODULE!_function"
    kLockout,     // "lockout: " + label
    kSpin,        // "spin: " + label
    kIpi,         // "ipi: " + label
    kThreadPrio,  // "thread prio N"
    kReady,       // "ready (prio N)"
    kIrqAccept,   // "irq accept (line N)"
    kDpcFetch,    // "dpc fetch"
    kWake,        // "wake prio N"
  };
  // The one number arg of a dispatcher record, rendered as {key: arg_value}.
  enum class ArgKey : std::uint8_t { kNone, kLine, kRequestedUs, kQueueDelayUs };
  // Flow events (s/f) only: namespaces flow ids so independent flow
  // families cannot collide.
  enum class FlowCat : std::uint8_t { kNone, kDpcQueue, kThreadWake };

  // A record never carries more than one of a duration, an arg value and a
  // flow id, nor both a dispatcher arg and a side-table index, so each group
  // shares one slot: `phase`, `arg_key` and `name` say which member is live.
  struct Event {
    char phase = 'i';  // B, E, X, i, C, M, s (flow start), f (flow finish)
    NameForm name = NameForm::kNone;
    ArgKey arg_key = ArgKey::kNone;
    FlowCat flow_cat = FlowCat::kNone;
    int pid = kSimPid;
    int tid = 0;
    union {
      int arg = 0;         // priority or interrupt line (dispatcher records)
      std::uint32_t text;  // NameForm::kText: index into the side table
    };
    double ts_us = 0.0;
    union {
      double dur_us = 0.0;     // X events
      double arg_value;        // with arg_key (never on X, s or f events)
      std::uint64_t flow_id;   // s and f events: binds a flow start to its finish
    };
    kernel::Label label;
  };

  ChromeTraceWriter();
  // Records point into the writer's own segments.
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  // kernel::TraceSink — maps dispatcher transitions onto the sim tracks.
  void OnTraceEvent(const kernel::TraceEvent& event) override;

  // Host/generic API (used by the matrix runner and the queue sampler).
  void BeginSlice(int pid, int tid, double ts_us, std::string name);
  void EndSlice(int pid, int tid, double ts_us);
  void CompleteSlice(int pid, int tid, double ts_us, double dur_us, std::string name,
                     std::vector<std::pair<std::string, std::string>> string_args = {},
                     std::vector<std::pair<std::string, double>> number_args = {});
  void Instant(int pid, int tid, double ts_us, std::string name);
  // Counter track: one 'C' event per sample; Perfetto renders a step chart.
  void Counter(int pid, double ts_us, std::string name, double value);
  void SetProcessName(int pid, const std::string& name);
  void SetThreadName(int pid, int tid, const std::string& name);

  // Calls `visit(const Event&)` on every stored record, in order.
  template <typename Visit>
  void ForEachEvent(Visit&& visit) const {
    std::size_t left = size_;
    for (std::size_t s = 0; left > 0; ++s) {
      const Event* event = segments_[s].get();
      const std::size_t n = std::min(left, SegmentCapacity(s));
      for (const Event* end = event + n; event != end; ++event) {
        visit(*event);
      }
      left -= n;
    }
  }
  std::size_t event_count() const { return size_; }

  // Serialize as {"traceEvents": [...], "displayTimeUnit": "ms"}. Slices
  // still open at serialization time are closed at the last seen timestamp,
  // so B/E nesting in the output always matches.
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;
  // Returns false when the file cannot be opened or any write to it fails
  // (checked after the file is flushed and closed).
  bool WriteFile(const std::string& path) const;

 private:
  // Name and args of an event made through the generic API.
  struct Text {
    std::string name;
    std::vector<std::pair<std::string, std::string>> string_args;
    std::vector<std::pair<std::string, double>> number_args;
  };
  // Per simulated core: whether its tracks are named, whether its thread
  // slice is open, and the open B-slice depth of each of its tracks.
  struct CoreTracks {
    bool named = false;
    bool thread_slice_open = false;
    std::array<int, kLockoutTid + 1> open_depth{};
  };

  // Segment s holds kFirstSegment << s records. 40 segments hold 2^48
  // records, far past any trace that fits in memory.
  static constexpr std::size_t kFirstSegment = 256;
  static constexpr std::size_t kMaxSegments = 40;
  static constexpr std::size_t SegmentCapacity(std::size_t s) { return kFirstSegment << s; }
  struct FreeSegment {
    void operator()(Event* segment) const { ::operator delete(segment); }
  };
  class Cursor;

  // Default-constructs a record at the end of the store.
  Event& NewEvent();
  // Appends a generic-API record.
  Event& Push(char phase, int pid, int tid, double ts_us);
  // Moves `text` into the side table and points `event` at it.
  void SetText(Event& event, Text text);
  // Appends a dispatcher record on track `track` of the source event's core.
  Event& PushSim(char phase, const kernel::TraceEvent& source, int track, double ts_us,
                 NameForm name = NameForm::kNone);
  // Emit a matched flow arrow: 's' at (from_track, from_ts) → 'f' at
  // (to_track, to_ts). Both ends share the name, category and a fresh id.
  void Flow(FlowCat cat, NameForm name, const kernel::TraceEvent& source, int from_track,
            double from_ts_us, int to_track, double to_ts_us);

  // Core `core`'s tracks, named on the core's first event (core 0's are
  // named in the constructor).
  CoreTracks& Core(int core);

  // Appends the whole JSON document to `buf`. With `out` set, every block
  // of about 1 MiB is handed to the stream and `buf` cleared.
  void Render(std::string& buf, std::ostream* out) const;
  void AppendEvent(Cursor& out, const Event& event) const;

  // Filled front to back; [next_, segment_end_) is the unused rest of the
  // last segment.
  std::array<std::unique_ptr<Event, FreeSegment>, kMaxSegments> segments_;
  std::size_t segment_count_ = 0;
  std::size_t size_ = 0;
  Event* next_ = nullptr;
  Event* segment_end_ = nullptr;
  std::vector<Text> texts_;
  std::vector<CoreTracks> cores_;
  // Open B-slice depth per (pid, tid) of generic-API slices; together with
  // the per-core depths it synthesizes closing E events at serialization.
  std::map<std::pair<int, int>, int> open_slices_;
  double last_ts_us_ = 0.0;
  std::uint64_t next_flow_id_ = 1;
};

static_assert(sizeof(ChromeTraceWriter::Event) == 48, "a trace record is 48 bytes");
static_assert(std::is_trivially_destructible_v<ChromeTraceWriter::Event>,
              "segments are freed without running record destructors");

}  // namespace wdmlat::obs

#endif  // SRC_OBS_CHROME_TRACE_H_
