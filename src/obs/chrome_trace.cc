#include "src/obs/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string_view>

namespace wdmlat::obs {

namespace {

// Serialized JSON is handed to the output stream in blocks of this size.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

void AppendEscaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run of verbatim characters
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char u = static_cast<unsigned char>(text[i]);
    if (u >= 0x20 && u != '"' && u != '\\') {
      continue;
    }
    out.append(text, run, i - run);
    run = i + 1;
    switch (u) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += "\\u00";
        out += kHex[u >> 4];
        out += kHex[u & 0xf];
    }
  }
  out.append(text, run);
}

template <typename Int>
void AppendInt(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void AppendLabel(std::string& out, const kernel::Label& label) {
  AppendEscaped(out, label.module);
  out += '!';
  AppendEscaped(out, label.function);
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
  if (!std::isfinite(value)) {
    out += '0';
    return;
  }
  // DBL_MAX has 309 integer digits; add sign, point and six decimals.
  char buf[320];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed, 6).ptr);
}

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

ChromeTraceWriter::Event& ChromeTraceWriter::PushSim(char phase, const kernel::TraceEvent& source,
                                                     int track, double ts_us, NameForm name) {
  CoreTracks& core = cores_[source.core];
  if (phase == 'B') {
    ++core.open_depth[track];
  } else if (phase == 'E') {
    --core.open_depth[track];
  }
  last_ts_us_ = std::max(last_ts_us_, ts_us);
  Event& event = events_.emplace_back();
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
  Event& event = events_.emplace_back();
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

void ChromeTraceWriter::AppendEvent(std::string& buf, const Event& event) const {
  buf += " {\"ph\": \"";
  buf += event.phase;
  buf += "\", \"pid\": ";
  AppendInt(buf, event.pid);
  buf += ", \"tid\": ";
  AppendInt(buf, event.tid);
  buf += ", \"ts\": ";
  AppendFixed6(buf, event.ts_us);
  if (event.phase == 'X') {
    buf += ", \"dur\": ";
    AppendFixed6(buf, event.dur_us);
  }
  if (event.phase == 'i') {
    buf += ", \"s\": \"t\"";
  }
  if (event.phase == 's' || event.phase == 'f') {
    buf += ", \"id\": ";
    AppendInt(buf, event.flow_id);
    buf += ", \"cat\": \"";
    buf += FlowCatName(event.flow_cat);
    buf += '"';
    if (event.phase == 'f') {
      buf += ", \"bp\": \"e\"";  // bind to the enclosing slice
    }
  }
  const Text* text = event.name == NameForm::kText ? &texts_[event.text] : nullptr;
  if (event.name != NameForm::kNone && (text == nullptr || !text->name.empty())) {
    buf += ", \"name\": \"";
    switch (event.name) {
      case NameForm::kText:
        AppendEscaped(buf, text->name);
        break;
      case NameForm::kLabel:
        AppendLabel(buf, event.label);
        break;
      case NameForm::kLockout:
        buf += "lockout: ";
        AppendLabel(buf, event.label);
        break;
      case NameForm::kSpin:
        buf += "spin: ";
        AppendLabel(buf, event.label);
        break;
      case NameForm::kIpi:
        buf += "ipi: ";
        AppendLabel(buf, event.label);
        break;
      case NameForm::kThreadPrio:
        buf += "thread prio ";
        AppendInt(buf, event.arg);
        break;
      case NameForm::kReady:
        buf += "ready (prio ";
        AppendInt(buf, event.arg);
        buf += ')';
        break;
      case NameForm::kIrqAccept:
        buf += "irq accept (line ";
        AppendInt(buf, event.arg);
        buf += ')';
        break;
      case NameForm::kDpcFetch:
        buf += "dpc fetch";
        break;
      case NameForm::kWake:
        buf += "wake prio ";
        AppendInt(buf, event.arg);
        break;
      case NameForm::kNone:
        break;
    }
    buf += '"';
  }
  if (event.arg_key != ArgKey::kNone) {
    buf += ", \"args\": {\"";
    buf += ArgKeyName(event.arg_key);
    buf += "\": ";
    AppendFixed6(buf, event.arg_value);
    buf += '}';
  } else if (text != nullptr && (!text->string_args.empty() || !text->number_args.empty())) {
    buf += ", \"args\": {";
    bool first_arg = true;
    for (const auto& [key, value] : text->string_args) {
      buf += first_arg ? "\"" : ", \"";
      AppendEscaped(buf, key);
      buf += "\": \"";
      AppendEscaped(buf, value);
      buf += '"';
      first_arg = false;
    }
    for (const auto& [key, value] : text->number_args) {
      buf += first_arg ? "\"" : ", \"";
      AppendEscaped(buf, key);
      buf += "\": ";
      AppendFixed6(buf, value);
      first_arg = false;
    }
    buf += '}';
  }
  buf += '}';
}

void ChromeTraceWriter::Render(std::string& buf, std::ostream* out) const {
  buf += "{\"traceEvents\": [";
  bool first = true;
  const auto write_event = [&](const Event& event) {
    buf += first ? "\n" : ",\n";
    first = false;
    AppendEvent(buf, event);
    if (out != nullptr && buf.size() >= kBlockBytes) {
      out->write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  };
  for (const Event& event : events_) {
    write_event(event);
  }
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
  buf += "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void ChromeTraceWriter::WriteJson(std::ostream& out) const {
  std::string buf;
  buf.reserve(kBlockBytes + 4096);
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
