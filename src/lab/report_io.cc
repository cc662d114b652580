#include "src/lab/report_io.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "src/kernel/thread.h"
#include "src/obs/json.h"

namespace wdmlat::lab {

namespace {

constexpr const char* kFormatName = "wdmlat-cell-report";
constexpr int kFormatVersion = 1;

}  // namespace

// Shared with the fleet record serialization — see report_io.h.
namespace report_json {

void AppendU64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendInt(std::string& out, int value) {
  char buf[16];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendHexDouble(std::string& out, double value) {
  char buf[48];
  out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof(buf), "%a", value)));
}

void AppendEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendHistogram(std::string& out, const char* name,
                     const stats::LatencyHistogram& hist) {
  const stats::LatencyHistogram::State state = hist.ExportState();
  out += '"';
  out += name;
  out += "\": {\"buckets\": [";
  bool first = true;
  for (const auto& [index, count] : state.buckets) {
    if (!first) out += ", ";
    first = false;
    out += '[';
    AppendInt(out, index);
    out += ", \"";
    AppendU64(out, count);
    out += "\"]";
  }
  out += "], \"count\": \"";
  AppendU64(out, state.count);
  out += "\", \"underflow\": \"";
  AppendU64(out, state.underflow);
  out += "\", \"sum_us\": \"";
  AppendHexDouble(out, state.sum_us);
  out += "\", \"min_us\": \"";
  AppendHexDouble(out, state.min_us);
  out += "\", \"max_us\": \"";
  AppendHexDouble(out, state.max_us);
  out += "\"}";
}

void AppendSketch(std::string& out, const char* name, const stats::QuantileSketch& sketch) {
  const stats::QuantileSketch::State state = sketch.ExportState();
  out += '"';
  out += name;
  out += "\": {\"levels\": [";
  for (std::size_t l = 0; l < state.levels.size(); ++l) {
    if (l != 0) out += ", ";
    out += '[';
    for (std::size_t i = 0; i < state.levels[l].size(); ++i) {
      if (i != 0) out += ", ";
      out += '"';
      AppendHexDouble(out, state.levels[l][i]);
      out += '"';
    }
    out += ']';
  }
  out += "], \"parities\": [";
  for (std::size_t l = 0; l < state.parities.size(); ++l) {
    if (l != 0) out += ", ";
    AppendInt(out, static_cast<int>(state.parities[l]));
  }
  // Tail heap order is exported verbatim so the import is bit-identical.
  out += "], \"tail\": [";
  for (std::size_t i = 0; i < state.tail.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    AppendHexDouble(out, state.tail[i]);
    out += '"';
  }
  out += "], \"count\": \"";
  AppendU64(out, state.count);
  out += "\", \"sum_ms\": \"";
  AppendHexDouble(out, state.sum_ms);
  out += "\", \"min_ms\": \"";
  AppendHexDouble(out, state.min_ms);
  out += "\", \"max_ms\": \"";
  AppendHexDouble(out, state.max_ms);
  out += "\"}";
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  // from_chars takes digits only: no sign, no whitespace, no overflow wrap.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

bool ReadStringField(const obs::JsonValue& object, const char* key, std::string* out,
                     std::string* error) {
  const obs::JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_string()) {
    if (error != nullptr) {
      *error = std::string("missing or non-string field \"") + key + "\"";
    }
    return false;
  }
  *out = value->as_string();
  return true;
}

bool ReadU64Field(const obs::JsonValue& object, const char* key, std::uint64_t* out,
                  std::string* error) {
  std::string text;
  if (!ReadStringField(object, key, &text, error)) {
    return false;
  }
  if (!ParseU64(text, out)) {
    if (error != nullptr) {
      *error = std::string("field \"") + key + "\" is not a decimal u64: " + text;
    }
    return false;
  }
  return true;
}

bool ReadHexDoubleField(const obs::JsonValue& object, const char* key, double* out,
                        std::string* error) {
  std::string text;
  if (!ReadStringField(object, key, &text, error)) {
    return false;
  }
  if (!ParseHexDouble(text, out)) {
    if (error != nullptr) {
      *error = std::string("field \"") + key + "\" is not a hexfloat: " + text;
    }
    return false;
  }
  return true;
}

bool ReadHistogram(const obs::JsonValue& histograms, const char* name,
                   stats::LatencyHistogram* out, std::string* error) {
  const obs::JsonValue* object = histograms.Find(name);
  if (object == nullptr || !object->is_object()) {
    if (error != nullptr) {
      *error = std::string("missing histogram \"") + name + "\"";
    }
    return false;
  }
  stats::LatencyHistogram::State state;
  const obs::JsonValue* buckets = object->Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    if (error != nullptr) {
      *error = std::string("histogram \"") + name + "\" has no buckets array";
    }
    return false;
  }
  for (const obs::JsonValue& entry : buckets->items()) {
    if (!entry.is_array() || entry.items().size() != 2 || !entry.items()[0].is_number() ||
        !entry.items()[1].is_string()) {
      if (error != nullptr) {
        *error = std::string("histogram \"") + name + "\": malformed bucket entry";
      }
      return false;
    }
    std::uint64_t count = 0;
    if (!ParseU64(entry.items()[1].as_string(), &count)) {
      if (error != nullptr) {
        *error = std::string("histogram \"") + name + "\": bad bucket count";
      }
      return false;
    }
    std::int64_t index = 0;
    if (!obs::ReadInteger(entry.items()[0], "bucket index", 0, std::numeric_limits<int>::max(),
                          &index, error)) {
      return false;
    }
    state.buckets.emplace_back(static_cast<int>(index), count);
  }
  if (!ReadU64Field(*object, "count", &state.count, error) ||
      !ReadU64Field(*object, "underflow", &state.underflow, error) ||
      !ReadHexDoubleField(*object, "sum_us", &state.sum_us, error) ||
      !ReadHexDoubleField(*object, "min_us", &state.min_us, error) ||
      !ReadHexDoubleField(*object, "max_us", &state.max_us, error)) {
    return false;
  }
  if (!out->ImportState(state)) {
    if (error != nullptr) {
      *error = std::string("histogram \"") + name +
               "\": state rejected (bucket/count conservation)";
    }
    return false;
  }
  return true;
}

bool ReadSketch(const obs::JsonValue& object, const char* name, stats::QuantileSketch* out,
                std::string* error) {
  const obs::JsonValue* sketch = object.Find(name);
  if (sketch == nullptr) {
    return true;  // pre-sketch artifact: leave the sketch empty
  }
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = std::string("sketch \"") + name + "\": " + what;
    }
    return false;
  };
  if (!sketch->is_object()) {
    return fail("not an object");
  }
  stats::QuantileSketch::State state;
  const obs::JsonValue* levels = sketch->Find("levels");
  const obs::JsonValue* parities = sketch->Find("parities");
  const obs::JsonValue* tail = sketch->Find("tail");
  if (levels == nullptr || !levels->is_array() || parities == nullptr ||
      !parities->is_array() || tail == nullptr || !tail->is_array()) {
    return fail("missing levels/parities/tail arrays");
  }
  for (const obs::JsonValue& level : levels->items()) {
    if (!level.is_array()) {
      return fail("malformed level");
    }
    std::vector<double> items;
    items.reserve(level.items().size());
    for (const obs::JsonValue& item : level.items()) {
      double value = 0.0;
      if (!item.is_string() || !ParseHexDouble(item.as_string(), &value)) {
        return fail("level item is not a hexfloat");
      }
      items.push_back(value);
    }
    state.levels.push_back(std::move(items));
  }
  for (const obs::JsonValue& parity : parities->items()) {
    std::int64_t bit = 0;
    std::string parity_error;
    if (!obs::ReadInteger(parity, "parity", 0, 1, &bit, &parity_error)) {
      return fail(parity_error);
    }
    state.parities.push_back(static_cast<std::uint8_t>(bit));
  }
  for (const obs::JsonValue& item : tail->items()) {
    double value = 0.0;
    if (!item.is_string() || !ParseHexDouble(item.as_string(), &value)) {
      return fail("tail item is not a hexfloat");
    }
    state.tail.push_back(value);
  }
  if (!ReadU64Field(*sketch, "count", &state.count, error) ||
      !ReadHexDoubleField(*sketch, "sum_ms", &state.sum_ms, error) ||
      !ReadHexDoubleField(*sketch, "min_ms", &state.min_ms, error) ||
      !ReadHexDoubleField(*sketch, "max_ms", &state.max_ms, error)) {
    return false;
  }
  if (!out->ImportState(state)) {
    return fail("state rejected (weight conservation)");
  }
  return true;
}

}  // namespace report_json

using namespace report_json;  // NOLINT: same-file dialect helpers

namespace {

void AppendBlame(std::string& out, const obs::AnatomyEpisode::Blame& blame) {
  out += "{\"module\": \"";
  AppendEscaped(out, blame.module);
  out += "\", \"function\": \"";
  AppendEscaped(out, blame.function);
  out += "\", \"cycles\": \"";
  AppendU64(out, blame.cycles);
  out += "\"}";
}

void AppendAnatomy(std::string& out, const std::vector<obs::AnatomyEpisode>& anatomy) {
  out += "\"anatomy\": [";
  for (std::size_t i = 0; i < anatomy.size(); ++i) {
    const obs::AnatomyEpisode& ep = anatomy[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"latency_ms\": \"";
    AppendHexDouble(out, ep.latency_ms);
    out += "\", \"window_begin\": \"";
    AppendU64(out, ep.window_begin);
    out += "\", \"window_end\": \"";
    AppendU64(out, ep.window_end);
    out += "\", \"truncated\": ";
    out += ep.truncated ? "true" : "false";
    out += ", \"stage_cycles\": [";
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      if (s != 0) out += ", ";
      out += '"';
      AppendU64(out, ep.stage_cycles[s]);
      out += '"';
    }
    out += "], \"stage_blame\": [";
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      if (s != 0) out += ", ";
      AppendBlame(out, ep.stage_blame[s]);
    }
    out += "], \"culprit\": ";
    AppendBlame(out, ep.culprit);
    out += '}';
  }
  out += ']';
}

bool ReadBlame(const obs::JsonValue& object, obs::AnatomyEpisode::Blame* blame,
               std::string* error) {
  return object.is_object() &&
         ReadStringField(object, "module", &blame->module, error) &&
         ReadStringField(object, "function", &blame->function, error) &&
         ReadU64Field(object, "cycles", &blame->cycles, error);
}

bool ReadAnatomy(const obs::JsonValue& root, std::vector<obs::AnatomyEpisode>* anatomy,
                 std::string* error) {
  const obs::JsonValue* entries = root.Find("anatomy");
  if (entries == nullptr) {
    return true;  // pre-anatomy artifact: leave the list empty
  }
  const auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string("anatomy: ") + what;
    }
    return false;
  };
  if (!entries->is_array()) {
    return fail("not an array");
  }
  for (const obs::JsonValue& entry : entries->items()) {
    if (!entry.is_object()) {
      return fail("episode entries must be objects");
    }
    obs::AnatomyEpisode ep;
    if (!ReadHexDoubleField(entry, "latency_ms", &ep.latency_ms, error) ||
        !ReadU64Field(entry, "window_begin", &ep.window_begin, error) ||
        !ReadU64Field(entry, "window_end", &ep.window_end, error)) {
      return false;
    }
    ep.truncated = entry.BoolOr("truncated", false);
    const obs::JsonValue* cycles = entry.Find("stage_cycles");
    const obs::JsonValue* blames = entry.Find("stage_blame");
    const obs::JsonValue* culprit = entry.Find("culprit");
    if (cycles == nullptr || !cycles->is_array() ||
        cycles->items().size() != obs::kAnatomyStageCount || blames == nullptr ||
        !blames->is_array() || blames->items().size() != obs::kAnatomyStageCount ||
        culprit == nullptr) {
      return fail("episode needs stage_cycles/stage_blame arrays of 7 and a culprit");
    }
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      const obs::JsonValue& item = cycles->items()[s];
      if (!item.is_string() || !ParseU64(item.as_string(), &ep.stage_cycles[s])) {
        return fail("stage cycle is not a decimal u64");
      }
      if (!ReadBlame(blames->items()[s], &ep.stage_blame[s], error)) {
        return false;
      }
    }
    if (!ReadBlame(*culprit, &ep.culprit, error)) {
      return false;
    }
    anatomy->push_back(std::move(ep));
  }
  return true;
}

}  // namespace

std::uint64_t Fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string HexDouble(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

bool ParseHexDouble(std::string_view text, double* out) {
  if (text.empty()) {
    return false;
  }
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) {
    return false;
  }
  *out = value;
  return true;
}

std::string ReportToJson(const LabReport& report) {
  std::string out;
  out.reserve(4096);
  out += "{\"format\": \"";
  out += kFormatName;
  out += "\", \"version\": ";
  AppendInt(out, kFormatVersion);
  out += ",\n\"os_name\": \"";
  AppendEscaped(out, report.os_name);
  out += "\", \"workload_name\": \"";
  AppendEscaped(out, report.workload_name);
  out += "\", \"thread_priority\": ";
  AppendInt(out, report.thread_priority);
  out += ", \"has_interrupt_latency\": ";
  out += report.has_interrupt_latency ? "true" : "false";
  out += ",\n\"samples\": \"";
  AppendU64(out, report.samples);
  out += "\", \"samples_per_hour\": \"";
  AppendHexDouble(out, report.samples_per_hour);
  out += "\", \"fault_activations\": \"";
  AppendU64(out, report.fault_activations);
  out += "\",\n\"usage\": {\"category\": \"";
  AppendEscaped(out, report.usage.category);
  out += "\", \"compression\": \"";
  AppendHexDouble(out, report.usage.compression);
  out += "\", \"day_hours\": \"";
  AppendHexDouble(out, report.usage.day_hours);
  out += "\", \"week_hours\": \"";
  AppendHexDouble(out, report.usage.week_hours);
  out += "\"},\n\"histograms\": {\n";
  AppendHistogram(out, "dpc_interrupt", report.dpc_interrupt);
  out += ",\n";
  AppendHistogram(out, "thread", report.thread);
  out += ",\n";
  AppendHistogram(out, "thread_interrupt", report.thread_interrupt);
  out += ",\n";
  AppendHistogram(out, "interrupt", report.interrupt);
  out += ",\n";
  AppendHistogram(out, "isr_to_dpc", report.isr_to_dpc);
  out += ",\n";
  AppendHistogram(out, "true_pit_interrupt_latency", report.true_pit_interrupt_latency);
  out += "\n},\n\"episodes\": [";
  for (std::size_t i = 0; i < report.episodes.size(); ++i) {
    const obs::EpisodeSummary& ep = report.episodes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"latency_ms\": \"";
    AppendHexDouble(out, ep.latency_ms);
    out += "\", \"reported_at_ms\": \"";
    AppendHexDouble(out, ep.reported_at_ms);
    out += "\", \"true_module\": \"";
    AppendEscaped(out, ep.true_module);
    out += "\", \"true_function\": \"";
    AppendEscaped(out, ep.true_function);
    out += "\", \"true_ms\": \"";
    AppendHexDouble(out, ep.true_ms);
    out += "\", \"cause_module\": \"";
    AppendEscaped(out, ep.cause_module);
    out += "\", \"cause_function\": \"";
    AppendEscaped(out, ep.cause_function);
    out += "\", \"cause_samples\": \"";
    AppendU64(out, ep.cause_samples);
    out += "\", \"attributed\": ";
    out += ep.attributed ? "true" : "false";
    out += ", \"module_match\": ";
    out += ep.module_match ? "true" : "false";
    out += '}';
  }
  out += "],\n";
  AppendAnatomy(out, report.anatomy);
  out += ",\n";
  AppendSketch(out, "thread_sketch", report.thread_sketch);
  out += "}\n";
  return out;
}

bool ReportFromJson(std::string_view text, LabReport* report, std::string* error) {
  *report = LabReport{};
  const obs::JsonParseResult parsed = obs::ParseJson(text);
  if (!parsed.valid) {
    if (error != nullptr) {
      std::ostringstream message;
      message << "JSON error at line " << parsed.error_line << ", column "
              << parsed.error_column << ": " << parsed.error;
      *error = message.str();
    }
    return false;
  }
  const obs::JsonValue& root = parsed.value;
  if (!root.is_object() || root.StringOr("format", "") != kFormatName) {
    if (error != nullptr) {
      *error = "not a wdmlat-cell-report document";
    }
    return false;
  }
  int version = 0;
  if (!obs::ReadIntegerOr(root, "version", kFormatVersion, kFormatVersion, &version, nullptr) ||
      version != kFormatVersion) {
    if (error != nullptr) {
      *error = "unsupported cell-report version";
    }
    return false;
  }
  LabReport result;
  if (!ReadStringField(root, "os_name", &result.os_name, error) ||
      !ReadStringField(root, "workload_name", &result.workload_name, error)) {
    return false;
  }
  if (!obs::ReadIntegerOr(root, "thread_priority", 0, kernel::kMaxPriority,
                          &result.thread_priority, error)) {
    return false;
  }
  result.has_interrupt_latency = root.BoolOr("has_interrupt_latency", false);
  if (!ReadU64Field(root, "samples", &result.samples, error) ||
      !ReadHexDoubleField(root, "samples_per_hour", &result.samples_per_hour, error) ||
      !ReadU64Field(root, "fault_activations", &result.fault_activations, error)) {
    return false;
  }
  const obs::JsonValue* usage = root.Find("usage");
  if (usage == nullptr || !usage->is_object()) {
    if (error != nullptr) {
      *error = "missing usage object";
    }
    return false;
  }
  if (!ReadStringField(*usage, "category", &result.usage.category, error) ||
      !ReadHexDoubleField(*usage, "compression", &result.usage.compression, error) ||
      !ReadHexDoubleField(*usage, "day_hours", &result.usage.day_hours, error) ||
      !ReadHexDoubleField(*usage, "week_hours", &result.usage.week_hours, error)) {
    return false;
  }
  const obs::JsonValue* histograms = root.Find("histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    if (error != nullptr) {
      *error = "missing histograms object";
    }
    return false;
  }
  if (!ReadHistogram(*histograms, "dpc_interrupt", &result.dpc_interrupt, error) ||
      !ReadHistogram(*histograms, "thread", &result.thread, error) ||
      !ReadHistogram(*histograms, "thread_interrupt", &result.thread_interrupt, error) ||
      !ReadHistogram(*histograms, "interrupt", &result.interrupt, error) ||
      !ReadHistogram(*histograms, "isr_to_dpc", &result.isr_to_dpc, error) ||
      !ReadHistogram(*histograms, "true_pit_interrupt_latency",
                     &result.true_pit_interrupt_latency, error)) {
    return false;
  }
  const obs::JsonValue* episodes = root.Find("episodes");
  if (episodes == nullptr || !episodes->is_array()) {
    if (error != nullptr) {
      *error = "missing episodes array";
    }
    return false;
  }
  for (const obs::JsonValue& entry : episodes->items()) {
    if (!entry.is_object()) {
      if (error != nullptr) {
        *error = "episode entries must be objects";
      }
      return false;
    }
    obs::EpisodeSummary ep;
    if (!ReadHexDoubleField(entry, "latency_ms", &ep.latency_ms, error) ||
        !ReadHexDoubleField(entry, "reported_at_ms", &ep.reported_at_ms, error) ||
        !ReadStringField(entry, "true_module", &ep.true_module, error) ||
        !ReadStringField(entry, "true_function", &ep.true_function, error) ||
        !ReadHexDoubleField(entry, "true_ms", &ep.true_ms, error) ||
        !ReadStringField(entry, "cause_module", &ep.cause_module, error) ||
        !ReadStringField(entry, "cause_function", &ep.cause_function, error) ||
        !ReadU64Field(entry, "cause_samples", &ep.cause_samples, error)) {
      return false;
    }
    ep.attributed = entry.BoolOr("attributed", false);
    ep.module_match = entry.BoolOr("module_match", false);
    result.episodes.push_back(std::move(ep));
  }
  if (!ReadAnatomy(root, &result.anatomy, error) ||
      !ReadSketch(root, "thread_sketch", &result.thread_sketch, error)) {
    return false;
  }
  *report = std::move(result);
  return true;
}

}  // namespace wdmlat::lab
