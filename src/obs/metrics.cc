#include "src/obs/metrics.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

namespace wdmlat::obs {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[32];
  // The shortest round-trip spelling's significant digits: no %g precision
  // below this count can round-trip, so the search starts there.
  const char* const digits_end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* p = buf; p != digits_end && *p != 'e'; ++p) {
    precision += *p >= '0' && *p <= '9' ? 1 : 0;
  }
  for (; precision < 17; ++precision) {
    const char* const end =
        std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, precision).ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == value) {
      return std::string(buf, static_cast<std::size_t>(end - buf));
    }
  }
  const char* const end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17).ptr;
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

namespace {

// Metric names are internal identifiers, but the exporter must stay
// well-formed whatever callers register.
std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
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
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendHistogramFields(const stats::LatencyHistogram& hist,
                           const std::function<void(const char*, double)>& field) {
  field("count", static_cast<double>(hist.count()));
  field("min", hist.min_ms());
  field("max", hist.max_ms());
  field("mean", hist.mean_ms());
  field("p50", hist.QuantileMs(0.5));
  field("p90", hist.QuantileMs(0.9));
  field("p99", hist.QuantileMs(0.99));
  field("p999", hist.QuantileMs(0.999));
}

void AppendSketchFields(const stats::QuantileSketch& sketch,
                        const std::function<void(const char*, double)>& field) {
  field("count", static_cast<double>(sketch.count()));
  field("min", sketch.min_ms());
  field("max", sketch.max_ms());
  field("mean", sketch.mean_ms());
  field("p50", sketch.QuantileMs(0.5));
  field("p99", sketch.QuantileMs(0.99));
  field("p999", sketch.QuantileMs(0.999));
  field("p9999", sketch.QuantileMs(0.9999));
}

}  // namespace

double MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const stats::LatencyHistogram* MetricsRegistry::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const stats::QuantileSketch* MetricsRegistry::sketch(const std::string& name) const {
  const auto it = sketches_.find(name);
  return it == sketches_.end() ? nullptr : &it->second;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    const auto it = gauges_.find(name);
    if (it == gauges_.end() || value > it->second) {
      gauges_[name] = value;
    }
  }
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].Merge(hist);
  }
  for (const auto& [name, sketch] : other.sketches_) {
    sketches_[name].Merge(sketch);
  }
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream out;
  const auto scalar_section = [&](const char* title,
                                  const std::map<std::string, double>& entries) {
    out << "  \"" << title << "\": {";
    bool first = true;
    for (const auto& [name, value] : entries) {
      out << (first ? "\n" : ",\n") << "    \"" << EscapeJson(name)
          << "\": " << JsonNumber(value);
      first = false;
    }
    out << (first ? "" : "\n  ") << "}";
  };
  out << "{\n";
  scalar_section("counters", counters_);
  out << ",\n";
  scalar_section("gauges", gauges_);
  out << ",\n  \"histograms\": {";
  bool first_hist = true;
  for (const auto& [name, hist] : histograms_) {
    out << (first_hist ? "\n" : ",\n") << "    \"" << EscapeJson(name) << "\": {";
    bool first_field = true;
    AppendHistogramFields(hist, [&](const char* field, double value) {
      out << (first_field ? "" : ", ") << "\"" << field << "\": " << JsonNumber(value);
      first_field = false;
    });
    out << "}";
    first_hist = false;
  }
  out << (first_hist ? "" : "\n  ") << "},\n  \"sketches\": {";
  bool first_sketch = true;
  for (const auto& [name, sketch] : sketches_) {
    out << (first_sketch ? "\n" : ",\n") << "    \"" << EscapeJson(name) << "\": {";
    bool first_field = true;
    AppendSketchFields(sketch, [&](const char* field, double value) {
      out << (first_field ? "" : ", ") << "\"" << field << "\": " << JsonNumber(value);
      first_field = false;
    });
    out << "}";
    first_sketch = false;
  }
  out << (first_sketch ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string MetricsRegistry::ToCsv() const {
  std::ostringstream out;
  out << "kind,name,field,value\n";
  for (const auto& [name, value] : counters_) {
    out << "counter," << name << ",value," << JsonNumber(value) << "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out << "gauge," << name << ",value," << JsonNumber(value) << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    AppendHistogramFields(hist, [&](const char* field, double value) {
      out << "histogram," << name << "," << field << "," << JsonNumber(value) << "\n";
    });
  }
  for (const auto& [name, sketch] : sketches_) {
    AppendSketchFields(sketch, [&](const char* field, double value) {
      out << "sketch," << name << "," << field << "," << JsonNumber(value) << "\n";
    });
  }
  return out.str();
}

}  // namespace wdmlat::obs
