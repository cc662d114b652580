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
// Longest rendering of an event apart from its name and its args: ph, pid,
// tid, ts, dur and the flow keys.
constexpr std::size_t kHeadRoom = 192 + 2 * kMaxFixed6Chars;
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

const char* ArgKeyName(ChromeTraceWriter::ArgKey key) {
  switch (key) {
    case ChromeTraceWriter::ArgKey::kLine:
      return "line";
    case ChromeTraceWriter::ArgKey::kRequestedUs:
      return "requested_us";
    case ChromeTraceWriter::ArgKey::kQueueDelayUs:
      return "queue_delay_us";
    case ChromeTraceWriter::ArgKey::kNone:
      break;
  }
  return "";
}

const char* FlowCatName(ChromeTraceWriter::FlowCat cat) {
  switch (cat) {
    case ChromeTraceWriter::FlowCat::kDpcQueue:
      return "dpc-queue";
    case ChromeTraceWriter::FlowCat::kThreadWake:
      return "thread-wake";
    case ChromeTraceWriter::FlowCat::kNone:
      break;
  }
  return "";
}

}  // namespace

void AppendFixed6(std::string& out, double value) {
  char buf[kMaxFixed6Chars];
  out.append(buf, PutFixed6(buf, value));
}

// Writes into a std::string through a raw pointer. The string is kept sized
// past the text written so far, so a piece of an event is a store or a
// memcpy with no size bookkeeping: Room(n) returns the write position with
// at least n bytes free behind it, and Advance(p) moves that position to p.
class ChromeTraceWriter::Cursor {
 public:
  // Appends to `buf`; with `out` set, Flush hands every block of at least
  // kBlockBytes to the stream.
  Cursor(std::string& buf, std::ostream* out) : buf_(buf), out_(out), used_(buf.size()) {
    buf_.resize(used_ + kBlockBytes + kHeadRoom);
  }

  char* Room(std::size_t n) {
    if (buf_.size() - used_ < n) {
      buf_.resize(std::max(2 * buf_.size(), used_ + n));
    }
    return buf_.data() + used_;
  }
  void Advance(char* p) { used_ = static_cast<std::size_t>(p - buf_.data()); }

  void Flush() {
    if (out_ != nullptr && used_ >= kBlockBytes) {
      out_->write(buf_.data(), static_cast<std::streamsize>(used_));
      used_ = 0;
    }
  }
  // Trims the string to the text written.
  void Finish() { buf_.resize(used_); }

 private:
  std::string& buf_;
  std::ostream* out_;
  std::size_t used_;
};

ChromeTraceWriter::ChromeTraceWriter() : cores_(1) {
  cores_[0].named = true;
  SetProcessName(kSimPid, "wdmlat sim");
  SetThreadName(kSimPid, kInterruptTid, "cpu: interrupt stack (ISR + sections)");
  SetThreadName(kSimPid, kDpcTid, "cpu: dpc");
  SetThreadName(kSimPid, kThreadTid, "cpu: thread");
  SetThreadName(kSimPid, kLockoutTid, "cpu: dispatch lockout");
}

ChromeTraceWriter::CoreTracks& ChromeTraceWriter::Core(int core) {
  if (static_cast<std::size_t>(core) >= cores_.size()) {
    cores_.resize(core + 1);
  }
  if (!cores_[core].named) {
    cores_[core].named = true;
    const std::string prefix = "cpu" + std::to_string(core) + ": ";
    const int base = kCoreTidStride * core;
    SetThreadName(kSimPid, base + kInterruptTid, prefix + "interrupt stack (ISR + sections)");
    SetThreadName(kSimPid, base + kDpcTid, prefix + "dpc");
    SetThreadName(kSimPid, base + kThreadTid, prefix + "thread");
    SetThreadName(kSimPid, base + kLockoutTid, prefix + "dispatch lockout");
  }
  return cores_[core];
}

ChromeTraceWriter::Event& ChromeTraceWriter::NewEvent() {
  if (next_ == segment_end_) {
    const std::size_t capacity = SegmentCapacity(segment_count_);
    auto& segment = segments_.at(segment_count_++);
    segment.reset(static_cast<Event*>(::operator new(capacity * sizeof(Event))));
    next_ = segment.get();
    segment_end_ = next_ + capacity;
  }
  ++size_;
  return *new (next_++) Event();
}

ChromeTraceWriter::Event& ChromeTraceWriter::PushSim(char phase, const kernel::TraceEvent& source,
                                                     int track, double ts_us, NameForm name) {
  CoreTracks& core = cores_[source.core];
  if (phase == 'B') {
    ++core.open_depth[track];
  } else if (phase == 'E') {
    --core.open_depth[track];
  }
  last_ts_us_ = std::max(last_ts_us_, ts_us);
  Event& event = NewEvent();
  event.phase = phase;
  event.name = name;
  event.tid = kCoreTidStride * source.core + track;
  event.arg = source.arg;
  event.ts_us = ts_us;
  event.label = source.label;
  return event;
}

void ChromeTraceWriter::OnTraceEvent(const kernel::TraceEvent& event) {
  using kernel::TraceEventType;
  const double ts = sim::CyclesToUs(event.tsc);
  const double dur = sim::CyclesToUs(event.duration);
  CoreTracks& core = Core(event.core);
  switch (event.type) {
    case TraceEventType::kIsrEnter: {
      Event& isr = PushSim('B', event, kInterruptTid, ts, NameForm::kLabel);
      isr.arg_key = ArgKey::kLine;
      isr.arg_value = event.arg;
      break;
    }
    case TraceEventType::kIsrExit:
      PushSim('E', event, kInterruptTid, ts);
      break;
    case TraceEventType::kSectionStart: {
      Event& section = PushSim('B', event, kInterruptTid, ts, NameForm::kLabel);
      section.arg_key = ArgKey::kRequestedUs;
      section.arg_value = dur;
      break;
    }
    case TraceEventType::kSectionEnd:
      PushSim('E', event, kInterruptTid, ts);
      break;
    case TraceEventType::kDpcStart: {
      // Flow arrow from the enqueue instant (the start's duration is the
      // queueing delay) to the moment the DPC body begins.
      Flow(FlowCat::kDpcQueue, NameForm::kLabel, event, kInterruptTid, ts - dur, kDpcTid, ts);
      Event& dpc = PushSim('B', event, kDpcTid, ts, NameForm::kLabel);
      dpc.arg_key = ArgKey::kQueueDelayUs;
      dpc.arg_value = dur;
      break;
    }
    case TraceEventType::kDpcEnd:
      PushSim('E', event, kDpcTid, ts);
      break;
    case TraceEventType::kContextSwitch:
      if (core.thread_slice_open) {
        PushSim('E', event, kThreadTid, ts);
      }
      PushSim('B', event, kThreadTid, ts, NameForm::kThreadPrio);
      core.thread_slice_open = true;
      break;
    case TraceEventType::kThreadReady:
      PushSim('i', event, kThreadTid, ts, NameForm::kReady);
      break;
    case TraceEventType::kDispatchLockout:
      PushSim('X', event, kLockoutTid, ts, NameForm::kLockout).dur_us = dur;
      break;
    case TraceEventType::kIsrAccept:
      PushSim('i', event, kInterruptTid, ts, NameForm::kIrqAccept);
      break;
    case TraceEventType::kDpcFetch:
      PushSim('i', event, kDpcTid, ts, NameForm::kDpcFetch);
      break;
    case TraceEventType::kThreadRun:
      // Fresh dispatches carry the wake-to-run latency; draw the flow from
      // the signalling instant (typically inside the completing DPC) to the
      // point the thread body starts executing.
      if (event.duration > 0) {
        Flow(FlowCat::kThreadWake, NameForm::kWake, event, kDpcTid, ts - dur, kThreadTid, ts);
      }
      break;
    case TraceEventType::kThreadStop:
      if (core.thread_slice_open) {
        PushSim('E', event, kThreadTid, ts);
        core.thread_slice_open = false;
      }
      break;
    case TraceEventType::kSpinlockWait:
      // Retrospective: the event fires at grant time and covers the spin.
      PushSim('X', event, kLockoutTid, ts - dur, NameForm::kSpin).dur_us = dur;
      break;
    case TraceEventType::kIpi:
      // Retrospective: delivery instant, duration is the flight time.
      PushSim('X', event, kLockoutTid, ts - dur, NameForm::kIpi).dur_us = dur;
      break;
    case TraceEventType::kTraceEventTypeCount:
      break;
  }
}

void ChromeTraceWriter::Flow(FlowCat cat, NameForm name, const kernel::TraceEvent& source,
                             int from_track, double from_ts_us, int to_track, double to_ts_us) {
  const std::uint64_t id = next_flow_id_++;
  Event& start = PushSim('s', source, from_track, from_ts_us, name);
  start.flow_id = id;
  start.flow_cat = cat;
  Event& finish = PushSim('f', source, to_track, to_ts_us, name);
  finish.flow_id = id;
  finish.flow_cat = cat;
}

ChromeTraceWriter::Event& ChromeTraceWriter::Push(char phase, int pid, int tid, double ts_us) {
  if (phase != 'M') {
    last_ts_us_ = std::max(last_ts_us_, ts_us);
  }
  if (phase == 'B') {
    ++open_slices_[{pid, tid}];
  } else if (phase == 'E') {
    --open_slices_[{pid, tid}];
  }
  Event& event = NewEvent();
  event.phase = phase;
  event.pid = pid;
  event.tid = tid;
  event.ts_us = ts_us;
  return event;
}

void ChromeTraceWriter::SetText(Event& event, Text text) {
  event.name = NameForm::kText;
  event.text = static_cast<std::uint32_t>(texts_.size());
  texts_.push_back(std::move(text));
}

void ChromeTraceWriter::BeginSlice(int pid, int tid, double ts_us, std::string name) {
  SetText(Push('B', pid, tid, ts_us), {std::move(name), {}, {}});
}

void ChromeTraceWriter::EndSlice(int pid, int tid, double ts_us) { Push('E', pid, tid, ts_us); }

void ChromeTraceWriter::CompleteSlice(int pid, int tid, double ts_us, double dur_us,
                                      std::string name,
                                      std::vector<std::pair<std::string, std::string>> string_args,
                                      std::vector<std::pair<std::string, double>> number_args) {
  Event& event = Push('X', pid, tid, ts_us);
  event.dur_us = dur_us;
  SetText(event, {std::move(name), std::move(string_args), std::move(number_args)});
}

void ChromeTraceWriter::Instant(int pid, int tid, double ts_us, std::string name) {
  SetText(Push('i', pid, tid, ts_us), {std::move(name), {}, {}});
}

void ChromeTraceWriter::Counter(int pid, double ts_us, std::string name, double value) {
  SetText(Push('C', pid, 0, ts_us), {std::move(name), {}, {{"value", value}}});
}

void ChromeTraceWriter::SetProcessName(int pid, const std::string& name) {
  SetText(Push('M', pid, 0, 0.0), {"process_name", {{"name", name}}, {}});
}

void ChromeTraceWriter::SetThreadName(int pid, int tid, const std::string& name) {
  SetText(Push('M', pid, tid, 0.0), {"thread_name", {{"name", name}}, {}});
}

void ChromeTraceWriter::AppendEvent(Cursor& out, const Event& event) const {
  char* p = out.Room(kHeadRoom);
  p = Put(p, " {\"ph\": \"");
  *p++ = event.phase;
  p = Put(p, "\", \"pid\": ");
  p = PutInt(p, event.pid);
  p = Put(p, ", \"tid\": ");
  p = PutInt(p, event.tid);
  p = Put(p, ", \"ts\": ");
  p = PutFixed6(p, event.ts_us);
  if (event.phase == 'X') {
    p = Put(p, ", \"dur\": ");
    p = PutFixed6(p, event.dur_us);
  }
  if (event.phase == 'i') {
    p = Put(p, ", \"s\": \"t\"");
  }
  if (event.phase == 's' || event.phase == 'f') {
    p = Put(p, ", \"id\": ");
    p = PutInt(p, event.flow_id);
    p = Put(p, ", \"cat\": \"");
    p = Put(p, FlowCatName(event.flow_cat));
    *p++ = '"';
    if (event.phase == 'f') {
      p = Put(p, ", \"bp\": \"e\"");  // bind to the enclosing slice
    }
  }
  const Text* text = event.name == NameForm::kText ? &texts_[event.text] : nullptr;
  if (event.name != NameForm::kNone && (text == nullptr || !text->name.empty())) {
    // A generic-API name takes the place of the label's module.
    std::string_view module;
    std::string_view function;
    if (text != nullptr) {
      module = text->name;
    } else {
      module = event.label.module;
      function = event.label.function;
    }
    out.Advance(p);
    p = out.Room(64 + kMaxEscape * (module.size() + function.size()));
    p = Put(p, ", \"name\": \"");
    const auto put_label = [&] {
      p = PutEscaped(p, module);
      *p++ = '!';
      p = PutEscaped(p, function);
    };
    switch (event.name) {
      case NameForm::kText:
        p = PutEscaped(p, module);
        break;
      case NameForm::kLabel:
        put_label();
        break;
      case NameForm::kLockout:
        p = Put(p, "lockout: ");
        put_label();
        break;
      case NameForm::kSpin:
        p = Put(p, "spin: ");
        put_label();
        break;
      case NameForm::kIpi:
        p = Put(p, "ipi: ");
        put_label();
        break;
      case NameForm::kThreadPrio:
        p = Put(p, "thread prio ");
        p = PutInt(p, event.arg);
        break;
      case NameForm::kReady:
        p = Put(p, "ready (prio ");
        p = PutInt(p, event.arg);
        *p++ = ')';
        break;
      case NameForm::kIrqAccept:
        p = Put(p, "irq accept (line ");
        p = PutInt(p, event.arg);
        *p++ = ')';
        break;
      case NameForm::kDpcFetch:
        p = Put(p, "dpc fetch");
        break;
      case NameForm::kWake:
        p = Put(p, "wake prio ");
        p = PutInt(p, event.arg);
        break;
      case NameForm::kNone:
        break;
    }
    *p++ = '"';
  }
  if (event.arg_key != ArgKey::kNone) {
    out.Advance(p);
    p = out.Room(64 + kMaxFixed6Chars);
    p = Put(p, ", \"args\": {\"");
    p = Put(p, ArgKeyName(event.arg_key));
    p = Put(p, "\": ");
    p = PutFixed6(p, event.arg_value);
    *p++ = '}';
  } else if (text != nullptr && (!text->string_args.empty() || !text->number_args.empty())) {
    out.Advance(p);
    p = Put(out.Room(16), ", \"args\": {");
    bool first_arg = true;
    for (const auto& [key, value] : text->string_args) {
      out.Advance(p);
      p = out.Room(16 + kMaxEscape * (key.size() + value.size()));
      p = first_arg ? Put(p, "\"") : Put(p, ", \"");
      p = PutEscaped(p, key);
      p = Put(p, "\": \"");
      p = PutEscaped(p, value);
      *p++ = '"';
      first_arg = false;
    }
    for (const auto& [key, value] : text->number_args) {
      out.Advance(p);
      p = out.Room(16 + kMaxEscape * key.size() + kMaxFixed6Chars);
      p = first_arg ? Put(p, "\"") : Put(p, ", \"");
      p = PutEscaped(p, key);
      p = Put(p, "\": ");
      p = PutFixed6(p, value);
      first_arg = false;
    }
    *p++ = '}';
  }
  *p++ = '}';
  out.Advance(p);
}

void ChromeTraceWriter::Render(std::string& buf, std::ostream* out) const {
  Cursor cursor(buf, out);
  cursor.Advance(Put(cursor.Room(32), "{\"traceEvents\": ["));
  bool first = true;
  const auto write_event = [&](const Event& event) {
    cursor.Advance(first ? Put(cursor.Room(2), "\n") : Put(cursor.Room(2), ",\n"));
    first = false;
    AppendEvent(cursor, event);
    cursor.Flush();
  };
  ForEachEvent(write_event);
  // Close still-open slices so B/E nesting in the serialized trace always
  // matches (e.g. the thread slice running when the experiment ended), in
  // (pid, tid) order.
  std::map<std::pair<int, int>, int> open = open_slices_;
  for (std::size_t core = 0; core < cores_.size(); ++core) {
    for (int track = kInterruptTid; track <= kLockoutTid; ++track) {
      if (const int depth = cores_[core].open_depth[track]; depth != 0) {
        open[{kSimPid, kCoreTidStride * static_cast<int>(core) + track}] += depth;
      }
    }
  }
  for (const auto& [track, depth] : open) {
    for (int i = 0; i < depth; ++i) {
      Event closer;
      closer.phase = 'E';
      closer.pid = track.first;
      closer.tid = track.second;
      closer.ts_us = last_ts_us_;
      write_event(closer);
    }
  }
  cursor.Advance(Put(cursor.Room(64), "\n], \"displayTimeUnit\": \"ms\"}\n"));
  cursor.Finish();
}

void ChromeTraceWriter::WriteJson(std::ostream& out) const {
  std::string buf;
  Render(buf, &out);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

std::string ChromeTraceWriter::ToJson() const {
  std::string buf;
  Render(buf, nullptr);
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
