#include "src/obs/chrome_trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <new>
#include <string_view>

namespace wdmlat::obs {

namespace {

// Serialized JSON is handed to the output stream in blocks of this size.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
// Longest AppendFixed6 output: DBL_MAX has 309 integer digits; add sign,
// point and six decimals.
constexpr std::size_t kMaxFixed6Chars = 320;
// Longest record head: ph, pid, tid, ts and an instant's scope.
constexpr std::size_t kHeadRoom = 128 + kMaxFixed6Chars;
// A byte escapes to at most six ("\u00XX").
constexpr std::size_t kMaxEscape = 6;

// |value| < 2^kExactBits takes AppendFixed6's integer path. Its scaled
// quotient stays below 2^43 * 10^6 < 2^64; the largest trace timestamp
// this bounds is 2^43 us, about 100 days of virtual time.
constexpr int kExactBits = 43;

constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

char* PutPair(char* p, unsigned pair) {
  std::memcpy(p, &kDigitPairs[2 * pair], 2);
  return p + 2;
}

// Writes `value` as printf("%.6f") does; needs kMaxFixed6Chars of room.
char* PutFixed6(char* p, double value) {
  if (!std::isfinite(value)) {
    *p++ = '0';
    return p;
  }
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int biased_exponent = static_cast<int>((bits >> 52) & 0x7ff);
  if (biased_exponent == 0 || biased_exponent >= 1023 + kExactBits) {
    return std::to_chars(p, p + kMaxFixed6Chars, value, std::chars_format::fixed, 6).ptr;
  }
  // value = mantissa * 2^-shift exactly, and shift >= 1075 - 1065 = 10.
  constexpr std::uint64_t kImplicitBit = std::uint64_t{1} << 52;
  const std::uint64_t mantissa = (bits & (kImplicitBit - 1)) | kImplicitBit;
  const int shift = 1075 - biased_exponent;
  if ((bits >> 63) != 0) {
    *p++ = '-';
  }
  // The value in millionths is scaled / 2^shift, rounded half to even on the
  // exact remainder as printf rounds. scaled < 2^53 * 10^6 < 2^73, so any
  // shift past 73 leaves less than half a millionth: zero.
  std::uint64_t millionths = 0;
  if (shift <= 73) {
    using u128 = unsigned __int128;
    const u128 scaled = static_cast<u128>(mantissa) * 1000000u;
    millionths = static_cast<std::uint64_t>(scaled >> shift);
    const u128 remainder = scaled & ((u128{1} << shift) - 1);
    const u128 half = u128{1} << (shift - 1);
    if (remainder > half || (remainder == half && (millionths & 1) != 0)) {
      ++millionths;
    }
  }
  p = std::to_chars(p, p + 20, millionths / 1000000).ptr;
  *p++ = '.';
  const auto fraction = static_cast<unsigned>(millionths % 1000000);
  p = PutPair(p, fraction / 10000);
  p = PutPair(p, fraction / 100 % 100);
  return PutPair(p, fraction % 100);
}

template <std::size_t N>
char* Put(char* p, const char (&literal)[N]) {
  std::memcpy(p, literal, N - 1);
  return p + N - 1;
}

char* Put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

template <typename Int>
char* PutInt(char* p, Int value) {
  return std::to_chars(p, p + 24, value).ptr;
}

// Needs kMaxEscape * text.size() of room.
char* PutEscaped(char* p, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u != '"' && u != '\\') {
      *p++ = c;
      continue;
    }
    *p++ = '\\';
    switch (u) {
      case '"':
        *p++ = '"';
        break;
      case '\\':
        *p++ = '\\';
        break;
      case '\n':
        *p++ = 'n';
        break;
      case '\t':
        *p++ = 't';
        break;
      case '\r':
        *p++ = 'r';
        break;
      default:
        p = Put(p, "u00");
        *p++ = kHex[u >> 4];
        *p++ = kHex[u & 0xf];
    }
  }
  return p;
}

using StringArgs = std::vector<std::pair<std::string, std::string>>;
using NumberArgs = std::vector<std::pair<std::string, double>>;

// The render pass hands each Chrome record to a sink as a chain of calls:
// Record, then the pieces its phase and form carry, in key order (Dur,
// Flow, one name, args), then Close. The slices still open at the end are
// closed through Closer.

// Counts the records, writes nothing.
class CountSink {
 public:
  CountSink& Record(char, int, int, double) {
    ++records_;
    return *this;
  }
  CountSink& Dur(double) { return *this; }
  CountSink& Flow(std::uint64_t, std::string_view, bool) { return *this; }
  CountSink& Name(std::string_view) { return *this; }
  CountSink& LabelName(const kernel::Label&, std::string_view = "") { return *this; }
  CountSink& NumberName(std::string_view, int, std::string_view) { return *this; }
  CountSink& Arg(std::string_view, double) { return *this; }
  CountSink& Args(const StringArgs&, const NumberArgs&) { return *this; }
  void Close() {}
  void Closer(int, double) {}

  std::size_t records() const { return records_; }

 private:
  std::size_t records_ = 0;
};

// Writes the JSON document into a std::string through a raw pointer. The
// string is kept sized past the text written so far, so a piece of a record
// is a store or a memcpy with no size bookkeeping: Room(n) returns the
// write position with at least n bytes free behind it, and Advance(p) moves
// that position to p. With a stream set, every block of at least
// kBlockBytes is handed to it at the end of a record.
class JsonSink {
 public:
  JsonSink(std::string& buf, std::ostream* out) : buf_(buf), out_(out), used_(buf.size()) {
    buf_.resize(used_ + kBlockBytes + kHeadRoom);
    Advance(Put(Room(32), "{\"traceEvents\": ["));
  }

  // ph, pid, tid and ts; an instant also gets its thread scope.
  JsonSink& Record(char phase, int pid, int tid, double ts_us) {
    char* p = Room(kHeadRoom);
    p = first_ ? Put(p, "\n {\"ph\": \"") : Put(p, ",\n {\"ph\": \"");
    first_ = false;
    *p++ = phase;
    p = Put(p, "\", \"pid\": ");
    p = PutInt(p, pid);
    p = Put(p, ", \"tid\": ");
    p = PutInt(p, tid);
    p = Put(p, ", \"ts\": ");
    p = PutFixed6(p, ts_us);
    if (phase == 'i') {
      p = Put(p, ", \"s\": \"t\"");
    }
    Advance(p);
    return *this;
  }
  JsonSink& Dur(double dur_us) {
    char* p = Put(Room(16 + kMaxFixed6Chars), ", \"dur\": ");
    Advance(PutFixed6(p, dur_us));
    return *this;
  }
  // A flow end: its id binds the start ('s') to the finish ('f'), which
  // binds to the enclosing slice.
  JsonSink& Flow(std::uint64_t id, std::string_view category, bool finish) {
    char* p = Put(Room(64 + category.size()), ", \"id\": ");
    p = PutInt(p, id);
    p = Put(p, ", \"cat\": \"");
    p = Put(p, category);
    *p++ = '"';
    if (finish) {
      p = Put(p, ", \"bp\": \"e\"");
    }
    Advance(p);
    return *this;
  }
  JsonSink& Name(std::string_view text) {
    char* p = Put(Room(16 + kMaxEscape * text.size()), ", \"name\": \"");
    p = PutEscaped(p, text);
    *p++ = '"';
    Advance(p);
    return *this;
  }
  // prefix + "MODULE!_function"
  JsonSink& LabelName(const kernel::Label& label, std::string_view prefix = "") {
    const std::string_view module = label.module;
    const std::string_view function = label.function;
    char* p = Room(64 + prefix.size() + kMaxEscape * (module.size() + function.size()));
    p = Put(p, ", \"name\": \"");
    p = Put(p, prefix);
    p = PutEscaped(p, module);
    *p++ = '!';
    p = PutEscaped(p, function);
    *p++ = '"';
    Advance(p);
    return *this;
  }
  // prefix + N + suffix
  JsonSink& NumberName(std::string_view prefix, int n, std::string_view suffix) {
    char* p = Room(64 + prefix.size() + suffix.size());
    p = Put(p, ", \"name\": \"");
    p = Put(p, prefix);
    p = PutInt(p, n);
    p = Put(p, suffix);
    *p++ = '"';
    Advance(p);
    return *this;
  }
  JsonSink& Arg(std::string_view key, double value) {
    char* p = Room(64 + key.size() + kMaxFixed6Chars);
    p = Put(p, ", \"args\": {\"");
    p = Put(p, key);
    p = Put(p, "\": ");
    p = PutFixed6(p, value);
    *p++ = '}';
    Advance(p);
    return *this;
  }
  // Writes no "args" key when both lists are empty.
  JsonSink& Args(const StringArgs& string_args, const NumberArgs& number_args) {
    if (string_args.empty() && number_args.empty()) {
      return *this;
    }
    char* p = Put(Room(16), ", \"args\": {");
    bool first_arg = true;
    for (const auto& [key, value] : string_args) {
      Advance(p);
      p = Room(16 + kMaxEscape * (key.size() + value.size()));
      p = first_arg ? Put(p, "\"") : Put(p, ", \"");
      p = PutEscaped(p, key);
      p = Put(p, "\": \"");
      p = PutEscaped(p, value);
      *p++ = '"';
      first_arg = false;
    }
    for (const auto& [key, value] : number_args) {
      Advance(p);
      p = Room(16 + kMaxEscape * key.size() + kMaxFixed6Chars);
      p = first_arg ? Put(p, "\"") : Put(p, ", \"");
      p = PutEscaped(p, key);
      p = Put(p, "\": ");
      p = PutFixed6(p, value);
      first_arg = false;
    }
    *p++ = '}';
    Advance(p);
    return *this;
  }
  void Close() {
    Advance(Put(Room(2), "}"));
    if (out_ != nullptr && used_ >= kBlockBytes) {
      out_->write(buf_.data(), static_cast<std::streamsize>(used_));
      used_ = 0;
    }
  }
  void Closer(int tid, double ts_us) {
    Record('E', ChromeTraceWriter::kSimPid, tid, ts_us).Close();
  }

  // Ends the document and trims the string to the text written.
  void Finish() {
    Advance(Put(Room(64), "\n], \"displayTimeUnit\": \"ms\"}\n"));
    buf_.resize(used_);
  }

 private:
  char* Room(std::size_t n) {
    if (buf_.size() - used_ < n) {
      buf_.resize(std::max(2 * buf_.size(), used_ + n));
    }
    return buf_.data() + used_;
  }
  void Advance(char* p) { used_ = static_cast<std::size_t>(p - buf_.data()); }

  std::string& buf_;
  std::ostream* out_;
  std::size_t used_;
  bool first_ = true;
};

}  // namespace

void AppendFixed6(std::string& out, double value) {
  char buf[kMaxFixed6Chars];
  out.append(buf, PutFixed6(buf, value));
}

ChromeTraceWriter::ChromeTraceWriter() {
  AddSegment();
  SetProcessName(kSimPid, "wdmlat sim");
  SetThreadName(kSimPid, kInterruptTid, "cpu: interrupt stack (ISR + sections)");
  SetThreadName(kSimPid, kDpcTid, "cpu: dpc");
  SetThreadName(kSimPid, kThreadTid, "cpu: thread");
  SetThreadName(kSimPid, kLockoutTid, "cpu: dispatch lockout");
}

void ChromeTraceWriter::AddSegment() {
  const std::size_t capacity = SegmentCapacity(segment_count_);
  auto& segment = segments_.at(segment_count_++);
  segment.reset(
      static_cast<kernel::TraceEvent*>(::operator new(capacity * sizeof(kernel::TraceEvent))));
  next_ = segment.get();
  segment_end_ = next_ + capacity;
}

void ChromeTraceWriter::OnTraceEvent(const kernel::TraceEvent& event) {
  if (next_ == segment_end_) {
    AddSegment();
  }
  std::memcpy(static_cast<void*>(next_++), &event, sizeof(event));
  ++size_;
}

void ChromeTraceWriter::CompleteSlice(int pid, int tid, double ts_us, double dur_us,
                                      std::string name, StringArgs string_args,
                                      NumberArgs number_args) {
  texts_.push_back(
      {size_, 'X', pid, tid, ts_us, dur_us, std::move(name), std::move(string_args),
       std::move(number_args)});
}

void ChromeTraceWriter::Counter(int pid, double ts_us, std::string name, double value) {
  texts_.push_back({size_, 'C', pid, 0, ts_us, 0.0, std::move(name), {}, {{"value", value}}});
}

void ChromeTraceWriter::SetProcessName(int pid, const std::string& name) {
  texts_.push_back({size_, 'M', pid, 0, 0.0, 0.0, "process_name", {{"name", name}}, {}});
}

void ChromeTraceWriter::SetThreadName(int pid, int tid, const std::string& name) {
  texts_.push_back({size_, 'M', pid, tid, 0.0, 0.0, "thread_name", {{"name", name}}, {}});
}

template <typename Out>
void ChromeTraceWriter::Render(Out& out) const {
  using kernel::TraceEventType;
  // Per simulated core: whether its tracks are named, whether its thread
  // slice is open, and the open B-slice depth of each of its tracks. Core
  // 0's tracks are named in the constructor; core c's are named at its
  // first event.
  struct CoreTracks {
    bool named = false;
    bool thread_slice_open = false;
    std::array<int, kLockoutTid + 1> open_depth{};
  };
  std::vector<CoreTracks> cores(1);
  cores[0].named = true;
  // The latest timestamp of any record but track names: the open slices
  // close there.
  double last_ts_us = 0.0;
  std::uint64_t next_flow_id = 1;

  const auto put_text = [&](const Text& text) {
    if (text.phase != 'M') {
      last_ts_us = std::max(last_ts_us, text.ts_us);
    }
    out.Record(text.phase, text.pid, text.tid, text.ts_us);
    if (text.phase == 'X') {
      out.Dur(text.dur_us);
    }
    if (!text.name.empty()) {
      out.Name(text.name);
    }
    out.Args(text.string_args, text.number_args).Close();
  };
  const auto name_tracks = [&](int core) {
    const std::string prefix = "cpu" + std::to_string(core) + ": ";
    const int base = kCoreTidStride * core;
    const std::pair<int, const char*> tracks[] = {
        {kInterruptTid, "interrupt stack (ISR + sections)"},
        {kDpcTid, "dpc"},
        {kThreadTid, "thread"},
        {kLockoutTid, "dispatch lockout"}};
    for (const auto& [track, name] : tracks) {
      put_text(
          {0, 'M', kSimPid, base + track, 0.0, 0.0, "thread_name", {{"name", prefix + name}}, {}});
    }
  };
  // Opens a record on track `track` of `event`'s core.
  const auto open = [&](char phase, const kernel::TraceEvent& event, int track,
                        double ts_us) -> Out& {
    CoreTracks& core = cores[event.core];
    if (phase == 'B') {
      ++core.open_depth[track];
    } else if (phase == 'E') {
      --core.open_depth[track];
    }
    last_ts_us = std::max(last_ts_us, ts_us);
    return out.Record(phase, kSimPid, kCoreTidStride * event.core + track, ts_us);
  };
  const auto map = [&](const kernel::TraceEvent& event) {
    if (static_cast<std::size_t>(event.core) >= cores.size()) {
      cores.resize(event.core + 1);
    }
    if (!cores[event.core].named) {
      cores[event.core].named = true;
      name_tracks(event.core);
    }
    bool& thread_slice_open = cores[event.core].thread_slice_open;
    const double ts = sim::CyclesToUs(event.tsc);
    const double dur = sim::CyclesToUs(event.duration);
    switch (event.type) {
      case TraceEventType::kIsrEnter:
        open('B', event, kInterruptTid, ts).LabelName(event.label).Arg("line", event.arg).Close();
        break;
      case TraceEventType::kIsrExit:
        open('E', event, kInterruptTid, ts).Close();
        break;
      case TraceEventType::kSectionStart:
        open('B', event, kInterruptTid, ts).LabelName(event.label).Arg("requested_us", dur).Close();
        break;
      case TraceEventType::kSectionEnd:
        open('E', event, kInterruptTid, ts).Close();
        break;
      case TraceEventType::kDpcStart: {
        // Flow arrow from the enqueue instant (the start's duration is the
        // queueing delay) to the moment the DPC body begins.
        const std::uint64_t id = next_flow_id++;
        open('s', event, kInterruptTid, ts - dur)
            .Flow(id, "dpc-queue", false)
            .LabelName(event.label)
            .Close();
        open('f', event, kDpcTid, ts).Flow(id, "dpc-queue", true).LabelName(event.label).Close();
        open('B', event, kDpcTid, ts).LabelName(event.label).Arg("queue_delay_us", dur).Close();
        break;
      }
      case TraceEventType::kDpcEnd:
        open('E', event, kDpcTid, ts).Close();
        break;
      case TraceEventType::kContextSwitch:
        if (thread_slice_open) {
          open('E', event, kThreadTid, ts).Close();
        }
        open('B', event, kThreadTid, ts).NumberName("thread prio ", event.arg, "").Close();
        thread_slice_open = true;
        break;
      case TraceEventType::kThreadReady:
        open('i', event, kThreadTid, ts).NumberName("ready (prio ", event.arg, ")").Close();
        break;
      case TraceEventType::kDispatchLockout:
        open('X', event, kLockoutTid, ts).Dur(dur).LabelName(event.label, "lockout: ").Close();
        break;
      case TraceEventType::kIsrAccept:
        open('i', event, kInterruptTid, ts)
            .NumberName("irq accept (line ", event.arg, ")")
            .Close();
        break;
      case TraceEventType::kDpcFetch:
        open('i', event, kDpcTid, ts).Name("dpc fetch").Close();
        break;
      case TraceEventType::kThreadRun:
        // Fresh dispatches carry the wake-to-run latency; draw the flow from
        // the signalling instant (typically inside the completing DPC) to the
        // point the thread body starts executing.
        if (event.duration > 0) {
          const std::uint64_t id = next_flow_id++;
          open('s', event, kDpcTid, ts - dur)
              .Flow(id, "thread-wake", false)
              .NumberName("wake prio ", event.arg, "")
              .Close();
          open('f', event, kThreadTid, ts)
              .Flow(id, "thread-wake", true)
              .NumberName("wake prio ", event.arg, "")
              .Close();
        }
        break;
      case TraceEventType::kThreadStop:
        if (thread_slice_open) {
          open('E', event, kThreadTid, ts).Close();
          thread_slice_open = false;
        }
        break;
      case TraceEventType::kSpinlockWait:
        // Retrospective: the event fires at grant time and covers the spin.
        open('X', event, kLockoutTid, ts - dur).Dur(dur).LabelName(event.label, "spin: ").Close();
        break;
      case TraceEventType::kIpi:
        // Retrospective: delivery instant, duration is the flight time.
        open('X', event, kLockoutTid, ts - dur).Dur(dur).LabelName(event.label, "ipi: ").Close();
        break;
      case TraceEventType::kTraceEventTypeCount:
        break;
    }
  };

  // Each text goes after the events stored before its call.
  std::size_t next_text = 0;
  const auto texts_before = [&](std::size_t index) {
    for (; next_text < texts_.size() && texts_[next_text].at <= index; ++next_text) {
      put_text(texts_[next_text]);
    }
  };
  std::size_t index = 0;
  std::size_t left = size_;
  for (std::size_t s = 0; left > 0; ++s) {
    const std::size_t n = std::min(left, SegmentCapacity(s));
    const kernel::TraceEvent* event = segments_[s].get();
    for (const kernel::TraceEvent* end = event + n; event != end; ++event) {
      texts_before(index++);
      map(*event);
    }
    left -= n;
  }
  texts_before(size_);
  // Close still-open slices so B/E nesting in the serialized trace always
  // matches (e.g. the thread slice running when the experiment ended), in
  // tid order.
  for (std::size_t core = 0; core < cores.size(); ++core) {
    for (int track = kInterruptTid; track <= kLockoutTid; ++track) {
      for (int i = 0; i < cores[core].open_depth[track]; ++i) {
        out.Closer(kCoreTidStride * static_cast<int>(core) + track, last_ts_us);
      }
    }
  }
}

std::size_t ChromeTraceWriter::event_count() const {
  CountSink count;
  Render(count);
  return count.records();
}

void ChromeTraceWriter::WriteJson(std::ostream& out) const {
  std::string buf;
  JsonSink sink(buf, &out);
  Render(sink);
  sink.Finish();
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

std::string ChromeTraceWriter::ToJson() const {
  std::string buf;
  JsonSink sink(buf, nullptr);
  Render(sink);
  sink.Finish();
  return buf;
}

bool ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteJson(out);
  // The stream buffers: only closing it flushes the tail, so a full disk
  // shows up only after close().
  out.close();
  return !out.fail();
}

}  // namespace wdmlat::obs
