// Deterministic mutation fuzzing of the hand-written-input parsers: the DOM
// reader obs::ParseJson and the schema readers built on it,
// fault::ParseFaultPlan, lab::FleetSpecFromJson and
// lab::LoadFleetQuarantine. Real documents (a metrics export, a fault plan
// using every dist, a two-cohort fleet spec, a quarantine manifest) are
// mutated with the seeded JsonMutator of tests/json_mutator.h.
//
// Each mutant must either be rejected cleanly, with an error message (and,
// from ParseJson, a position inside the text), or be accepted and re-parse
// to the same value: the accepted DOM is written back out in a canonical
// spelling (a manifest through SaveFleetQuarantine), and that text must
// parse to the same tree, plan, spec or entries. Run
// under ci/asan.sh, a crash, an out-of-bounds read or a leak on any mutant
// fails the job.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/fault/plan_json.h"
#include "src/lab/fleet.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "tests/json_mutator.h"
#include "tests/temp_path.h"

namespace wdmlat {
namespace {

constexpr int kMutantsPerInput = 3000;

// Canonical JSON text of a DOM: no whitespace, numbers as %.17g (which reads
// back as the same double), strings with the escapes JSON requires.
void Write(const obs::JsonValue& value, std::string* out) {
  using Kind = obs::JsonValue::Kind;
  switch (value.kind()) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += value.as_bool() ? "true" : "false";
      return;
    case Kind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", value.as_number());
      *out += buf;
      return;
    }
    case Kind::kString:
      *out += '"';
      for (const char c : value.as_string()) {
        if (c == '"' || c == '\\') {
          *out += '\\';
          *out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          *out += buf;
        } else {
          *out += c;
        }
      }
      *out += '"';
      return;
    case Kind::kArray: {
      *out += '[';
      const char* sep = "";
      for (const obs::JsonValue& item : value.items()) {
        *out += sep;
        Write(item, out);
        sep = ",";
      }
      *out += ']';
      return;
    }
    case Kind::kObject: {
      *out += '{';
      const char* sep = "";
      for (const auto& [key, member] : value.members()) {
        *out += sep;
        Write(obs::JsonValue::String(key), out);
        *out += ':';
        Write(member, out);
        sep = ",";
      }
      *out += '}';
      return;
    }
  }
}

std::string Canonical(const obs::JsonValue& value) {
  std::string out;
  Write(value, &out);
  return out;
}

// Every field of a plan, doubles by their bits.
std::string Describe(const fault::FaultPlan& plan) {
  const auto bits = [](double v) { return std::to_string(std::bit_cast<std::uint64_t>(v)); };
  std::string out = plan.name + "|" + std::to_string(plan.seed);
  for (const fault::FaultSpec& spec : plan.specs) {
    out += "|" + std::string(fault::FaultKindName(spec.kind)) + "," +
           fault::TriggerKindName(spec.trigger) + "," + bits(spec.at_ms) + "," +
           bits(spec.period_ms) + "," + bits(spec.rate_per_s) + "," +
           std::to_string(spec.max_activations) + "," +
           std::to_string(static_cast<int>(spec.duration_us.kind())) + "," +
           bits(spec.duration_us.MeanUs()) + "," + bits(spec.duration_us.UpperBoundUs()) + "," +
           std::to_string(spec.burst) + "," + bits(spec.spacing_us) + "," +
           std::to_string(spec.disk_bytes) + "," + spec.lock + "," + spec.function;
  }
  return out;
}

std::string MetricsDocument() {
  obs::MetricsRegistry metrics;
  metrics.Add("kernel.isr.count", 12345);
  metrics.Add("kernel.dpc.ms", 0.1 + 0.2);
  metrics.Set("queue.peak", 7);
  for (int i = 1; i <= 200; ++i) {
    metrics.Observe("queue.depth", i % 9);
    metrics.SketchSeries("latency_ms").RecordMs(0.01 * i);
  }
  return metrics.ToJson();
}

constexpr const char* kFaultPlan = R"({
  "name": "fuzz_plan", "seed": 42,
  "faults": [
    {"kind": "lockout_hold", "trigger": "one_shot", "at_ms": 5.0,
     "duration_us": 250.0, "function": "_Hold"},
    {"kind": "irq_storm", "trigger": "periodic", "at_ms": 1.0,
     "period_ms": 10.0, "max_activations": 3, "burst": 8, "spacing_us": 20.0,
     "duration": {"dist": "uniform", "lo_us": 10.0, "hi_us": 50.0}},
    {"kind": "masked_window", "trigger": "poisson", "rate_per_s": 2.5,
     "duration": {"dist": "bounded_pareto", "alpha": 1.3, "lo_us": 100.0,
                  "hi_us": 4000.0}},
    {"kind": "dpc_storm", "trigger": "poisson", "rate_per_s": 4, "burst": 2,
     "duration": {"dist": "exponential", "mean_us": 30.0}},
    {"kind": "spinlock_contention", "trigger": "periodic", "period_ms": 3.5,
     "lock": "dpc0", "duration": {"dist": "lognormal", "median_us": 40, "sigma": 0.5}},
    {"kind": "disk_seek_storm", "trigger": "one_shot", "at_ms": 2, "disk_bytes": 4096,
     "duration": {"dist": "constant", "us": 75}}
  ]
})";

constexpr const char* kFleetSpec = R"({"name": "pop", "master_seed": 11, "cohorts": [
  {"name": "x", "os": "nt4", "workloads": ["office", "games"],
   "workload_weights": [3, 1], "count": 10, "speed_mhz": [100, 400],
   "pit_hz": 4000, "priority": 24, "stress_minutes": 0.5, "warmup_seconds": 1,
   "fault_plan": "irq_storm", "fault_prob": 0.25, "sketch": true},
  {"name": "y", "os": "win98", "workloads": ["web"], "count": 3, "speed_mhz": 233,
   "episode_threshold_us": 500, "virus_scanner": true}]})";

// A quarantine manifest as the fleet orchestrator writes it: supervisor
// verdicts and merge-detected reasons, one u64 seed past 2^63.
constexpr const char* kQuarantineManifest =
    "{\"cell\": \"3\", \"seed\": \"12345678901234567890\", \"taxonomy\": \"exception\", "
    "\"attempts\": 3}\n"
    "{\"cell\": \"17\", \"seed\": \"42\", \"taxonomy\": \"timeout\", \"attempts\": 2}\n"
    "{\"cell\": \"40\", \"seed\": \"7\", \"taxonomy\": \"missing_record\", "
    "\"attempts\": 1}\n";

// Every persisted field of a manifest's entries (cohort is not persisted).
std::string Describe(const std::vector<lab::FleetQuarantineEntry>& entries) {
  std::string out;
  for (const lab::FleetQuarantineEntry& entry : entries) {
    out += std::to_string(entry.cell) + "," + std::to_string(entry.seed) + "," +
           entry.taxonomy + "," + std::to_string(entry.attempts) + "|";
  }
  return out;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(JsonFuzzTest, ParseJsonMutantsAreRejectedOrReparseToTheSameTree) {
  const std::string documents[] = {MetricsDocument(), kFaultPlan, kFleetSpec};
  testutil::JsonMutator mutator(0x646f6d);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string mutant = mutator.Mutate(documents[i % std::size(documents)]);
    const obs::JsonParseResult parsed = obs::ParseJson(mutant);
    if (!parsed.valid) {
      ++rejected;
      ASSERT_FALSE(parsed.error.empty()) << "mutant " << i;
      ASSERT_LE(parsed.error_offset, mutant.size()) << "mutant " << i;
      ASSERT_GE(parsed.error_line, 1u) << "mutant " << i;
      continue;
    }
    ++accepted;
    // The linter runs the same grammar, more leniently.
    ASSERT_TRUE(obs::LintJson(mutant).valid) << "mutant " << i;
    const std::string canonical = Canonical(parsed.value);
    const obs::JsonParseResult again = obs::ParseJson(canonical);
    ASSERT_TRUE(again.valid) << "mutant " << i << ": " << again.error;
    ASSERT_EQ(Canonical(again.value), canonical) << "mutant " << i;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(JsonFuzzTest, FaultPlanMutantsAreRejectedOrReparseToTheSamePlan) {
  fault::FaultPlan original;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan(kFaultPlan, &original, &error)) << error;
  ASSERT_EQ(original.specs.size(), 6u);
  testutil::JsonMutator mutator(0x706c616e);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string mutant = mutator.Mutate(kFaultPlan);
    fault::FaultPlan plan;
    error.clear();
    if (!fault::ParseFaultPlan(mutant, &plan, &error)) {
      ++rejected;
      ASSERT_FALSE(error.empty()) << "mutant " << i;
      continue;
    }
    ++accepted;
    ASSERT_EQ(fault::ValidatePlan(plan), "") << "mutant " << i;
    const obs::JsonParseResult dom = obs::ParseJson(mutant);
    ASSERT_TRUE(dom.valid) << "mutant " << i;
    fault::FaultPlan again;
    ASSERT_TRUE(fault::ParseFaultPlan(Canonical(dom.value), &again, &error))
        << "mutant " << i << ": " << error;
    ASSERT_EQ(Describe(again), Describe(plan)) << "mutant " << i;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(JsonFuzzTest, FleetSpecMutantsAreRejectedOrReparseToTheSameSpec) {
  lab::FleetSpec original;
  std::string error;
  ASSERT_TRUE(lab::FleetSpecFromJson(kFleetSpec, &original, &error)) << error;
  ASSERT_EQ(original.cohorts.size(), 2u);
  testutil::JsonMutator mutator(0x666c6565);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string mutant = mutator.Mutate(kFleetSpec);
    lab::FleetSpec spec;
    error.clear();
    if (!lab::FleetSpecFromJson(mutant, &spec, &error)) {
      ++rejected;
      ASSERT_FALSE(error.empty()) << "mutant " << i;
      continue;
    }
    ++accepted;
    const obs::JsonParseResult dom = obs::ParseJson(mutant);
    ASSERT_TRUE(dom.valid) << "mutant " << i;
    lab::FleetSpec again;
    ASSERT_TRUE(lab::FleetSpecFromJson(Canonical(dom.value), &again, &error))
        << "mutant " << i << ": " << error;
    ASSERT_EQ(again.name, spec.name) << "mutant " << i;
    ASSERT_EQ(again.cell_count(), spec.cell_count()) << "mutant " << i;
    ASSERT_EQ(lab::FleetFingerprint(again), lab::FleetFingerprint(spec)) << "mutant " << i;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(JsonFuzzTest, QuarantineManifestMutantsAreRejectedOrReloadToTheSameEntries) {
  const std::string mutant_path = testutil::TempFileFor("mutant.jsonl");
  const std::string saved_path = testutil::TempFileFor("saved.jsonl");
  std::vector<lab::FleetQuarantineEntry> original;
  std::string error;
  WriteFile(mutant_path, kQuarantineManifest);
  ASSERT_TRUE(lab::LoadFleetQuarantine(mutant_path, &original, &error)) << error;
  ASSERT_EQ(original.size(), 3u);
  testutil::JsonMutator mutator(0x71756172);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    WriteFile(mutant_path, mutator.Mutate(kQuarantineManifest));
    std::vector<lab::FleetQuarantineEntry> entries;
    error.clear();
    if (!lab::LoadFleetQuarantine(mutant_path, &entries, &error)) {
      ++rejected;
      ASSERT_FALSE(error.empty()) << "mutant " << i;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(lab::SaveFleetQuarantine(saved_path, entries, &error))
        << "mutant " << i << ": " << error;
    std::vector<lab::FleetQuarantineEntry> again;
    ASSERT_TRUE(lab::LoadFleetQuarantine(saved_path, &again, &error))
        << "mutant " << i << ": " << error;
    ASSERT_EQ(Describe(again), Describe(entries)) << "mutant " << i;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace wdmlat
