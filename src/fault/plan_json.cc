#include "src/fault/plan_json.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/obs/json.h"

namespace wdmlat::fault {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

// The largest |z| sim::Rng::Normal draws: sqrt(-2 ln 2^-53), from its
// smallest uniform.
constexpr double kLargestNormalZ = 8.58;

// Parse the "duration" object sub-schema (see plan_json.h header comment).
// Parameters the samplers cannot take are rejected here, not asserted on
// (or sampled into negative cycle counts) mid-run: a negative duration, an
// inverted range, a non-positive mean, median or tail index, or a time past
// kMaxPlanTimeUs, which would overflow sim::Cycles. That includes a
// distribution whose UpperBoundUs() passes the ceiling, and a lognormal whose
// largest draw does.
bool ParseDurationParameters(const obs::JsonValue& value, sim::DurationDist* out,
                             std::string* error) {
  const auto reject = [error](const std::string& message) {
    SetError(error, message);
    return false;
  };
  if (value.is_number()) {
    if (value.as_number() < 0.0) {
      return reject("duration must be >= 0");
    }
    if (!WithinPlanTimeCeiling(value.as_number())) {
      return reject(PlanTimeCeilingError("duration"));
    }
    *out = sim::DurationDist::Constant(value.as_number());
    return true;
  }
  if (!value.is_object()) {
    return reject("duration must be a number (µs) or a dist object");
  }
  const std::string dist = value.StringOr("dist", "constant");
  if (dist == "constant") {
    const double us = value.NumberOr("us", 0.0);
    if (us < 0.0) {
      return reject("constant needs us >= 0");
    }
    if (!WithinPlanTimeCeiling(us)) {
      return reject(PlanTimeCeilingError("us"));
    }
    *out = sim::DurationDist::Constant(us);
    return true;
  }
  if (dist == "uniform") {
    const double lo = value.NumberOr("lo_us", 0.0);
    const double hi = value.NumberOr("hi_us", 0.0);
    if (lo < 0.0 || lo > hi) {
      return reject("uniform needs 0 <= lo_us <= hi_us");
    }
    if (!WithinPlanTimeCeiling(hi)) {
      return reject(PlanTimeCeilingError("hi_us"));
    }
    *out = sim::DurationDist::Uniform(lo, hi);
    return true;
  }
  if (dist == "exponential") {
    const double mean = value.NumberOr("mean_us", 0.0);
    if (mean <= 0.0) {
      return reject("exponential needs mean_us > 0");
    }
    if (!WithinPlanTimeCeiling(mean)) {
      return reject(PlanTimeCeilingError("mean_us"));
    }
    *out = sim::DurationDist::Exponential(mean);
    return true;
  }
  if (dist == "lognormal") {
    const double median = value.NumberOr("median_us", 0.0);
    const double sigma = value.NumberOr("sigma", 1.0);
    if (median <= 0.0 || sigma < 0.0) {
      return reject("lognormal needs median_us > 0 and sigma >= 0");
    }
    if (!WithinPlanTimeCeiling(median)) {
      return reject(PlanTimeCeilingError("median_us"));
    }
    if (!WithinPlanTimeCeiling(median * std::exp(sigma * kLargestNormalZ))) {
      return reject(PlanTimeCeilingError("the largest lognormal draw median_us * e^(8.58 sigma)"));
    }
    *out = sim::DurationDist::LogNormal(median, sigma);
    return true;
  }
  if (dist == "bounded_pareto") {
    const double alpha = value.NumberOr("alpha", 1.1);
    const double lo = value.NumberOr("lo_us", 0.0);
    const double hi = value.NumberOr("hi_us", 0.0);
    if (alpha <= 0.0 || lo <= 0.0 || hi <= lo) {
      return reject("bounded_pareto needs alpha > 0 and 0 < lo_us < hi_us");
    }
    if (!WithinPlanTimeCeiling(hi)) {
      return reject(PlanTimeCeilingError("hi_us"));
    }
    *out = sim::DurationDist::BoundedPareto(alpha, lo, hi);
    return true;
  }
  SetError(error, "unknown duration dist \"" + dist + "\"");
  return false;
}

bool ParseDurationDist(const obs::JsonValue& value, sim::DurationDist* out,
                       std::string* error) {
  if (!ParseDurationParameters(value, out, error)) {
    return false;
  }
  if (!WithinPlanTimeCeiling(out->UpperBoundUs())) {
    SetError(error, PlanTimeCeilingError("duration upper bound"));
    return false;
  }
  return true;
}

bool ParseSpec(const obs::JsonValue& value, std::size_t index, FaultSpec* out,
               std::string* error) {
  std::ostringstream where;
  where << "fault " << index << ": ";
  if (!value.is_object()) {
    SetError(error, where.str() + "expected an object");
    return false;
  }
  const std::string kind = value.StringOr("kind", "");
  if (!FaultKindFromName(kind, &out->kind)) {
    SetError(error, where.str() + "unknown kind \"" + kind + "\"");
    return false;
  }
  const std::string trigger = value.StringOr("trigger", "one_shot");
  if (!TriggerKindFromName(trigger, &out->trigger)) {
    SetError(error, where.str() + "unknown trigger \"" + trigger + "\"");
    return false;
  }
  out->at_ms = value.NumberOr("at_ms", 0.0);
  out->period_ms = value.NumberOr("period_ms", 0.0);
  out->rate_per_s = value.NumberOr("rate_per_s", 0.0);
  out->spacing_us = value.NumberOr("spacing_us", 0.0);
  std::string field_error;
  if (!obs::ReadIntegerOr(value, "max_activations", 0, obs::kMaxJsonInteger,
                          &out->max_activations, &field_error) ||
      !obs::ReadIntegerOr(value, "burst", std::numeric_limits<int>::min(),
                          std::numeric_limits<int>::max(), &out->burst, &field_error) ||
      !obs::ReadIntegerOr(value, "disk_bytes", 0, std::numeric_limits<std::uint32_t>::max(),
                          &out->disk_bytes, &field_error)) {
    SetError(error, where.str() + field_error);
    return false;
  }
  out->lock = value.StringOr("lock", "dispatcher");
  out->function = value.StringOr("function", "");
  if (const obs::JsonValue* duration = value.Find("duration")) {
    std::string duration_error;
    if (!ParseDurationDist(*duration, &out->duration_us, &duration_error)) {
      SetError(error, where.str() + duration_error);
      return false;
    }
  } else if (const obs::JsonValue* shorthand = value.Find("duration_us")) {
    if (!shorthand->is_number() || shorthand->as_number() < 0.0) {
      SetError(error, where.str() + "duration_us must be a number >= 0");
      return false;
    }
    if (!WithinPlanTimeCeiling(shorthand->as_number())) {
      SetError(error, where.str() + PlanTimeCeilingError("duration_us"));
      return false;
    }
    out->duration_us = sim::DurationDist::Constant(shorthand->as_number());
  }
  return true;
}

}  // namespace

bool ParseFaultPlan(std::string_view text, FaultPlan* plan, std::string* error) {
  const obs::JsonParseResult parsed = obs::ParseJson(text);
  if (!parsed.valid) {
    std::ostringstream message;
    message << "JSON error at line " << parsed.error_line << ", column "
            << parsed.error_column << " (offset " << parsed.error_offset
            << "): " << parsed.error;
    SetError(error, message.str());
    return false;
  }
  if (!parsed.value.is_object()) {
    SetError(error, "plan document must be a JSON object");
    return false;
  }
  FaultPlan result;
  result.name = parsed.value.StringOr("name", "custom");
  if (!obs::ReadIntegerOr(parsed.value, "seed", 0, obs::kMaxJsonInteger, &result.seed, error)) {
    return false;
  }
  const obs::JsonValue* faults = parsed.value.Find("faults");
  if (faults == nullptr || !faults->is_array()) {
    SetError(error, "plan needs a \"faults\" array");
    return false;
  }
  for (std::size_t i = 0; i < faults->items().size(); ++i) {
    FaultSpec spec;
    if (!ParseSpec(faults->items()[i], i, &spec, error)) {
      return false;
    }
    result.specs.push_back(std::move(spec));
  }
  const std::string validation = ValidatePlan(result);
  if (!validation.empty()) {
    SetError(error, validation);
    return false;
  }
  *plan = std::move(result);
  return true;
}

bool LoadFaultPlanFile(const std::string& path, FaultPlan* plan, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open fault plan file: " + path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseFaultPlan(buffer.str(), plan, error);
}

}  // namespace wdmlat::fault
