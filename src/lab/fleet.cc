#include "src/lab/fleet.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <deque>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "src/kernel/profile.h"
#include "src/kernel/thread.h"
#include "src/lab/report_io.h"
#include "src/obs/json.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/rng.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::lab {

namespace {

using report_json::AppendCompactSketch;
using report_json::AppendEscaped;
using report_json::AppendHexDouble;
using report_json::AppendHistogram;
using report_json::AppendInt;
using report_json::AppendSketch;
using report_json::AppendU64;
using report_json::ParseU64;
using report_json::ReadCompactSketch;
using report_json::ReadHistogram;

constexpr const char* kRecordFormat = "wdmlat-fleet-cell";
constexpr const char* kReportFormat = "wdmlat-fleet-report";
constexpr int kFormatVersion = 1;
// The cell record payload's own version: 2 spells its sketch compactly
// (report_json::AppendCompactSketch). kFormatVersion stays 1 because it also
// feeds the fleet fingerprint and the fleet.json "version".
constexpr int kRecordVersion = 2;

// Domain-separation tags for the hash chains: the cell seed feeds the
// simulation, the draw seed feeds the per-member priors. Distinct tags keep
// the two streams independent even though both derive from the coordinates.
constexpr std::uint64_t kCellSeedTag = 0x666c656574636c6cull;   // "fleetcll"
constexpr std::uint64_t kDrawSeedTag = 0x666c656574647277ull;   // "fleetdrw"

// Hardware-speed model: the simulated cycle rate is a compile-time constant
// (sim::kCpuHz = 300 MHz), so a member's sampled clock scales the kernel
// profile's *cost* distributions instead — a 150 MHz machine pays 2x the
// microseconds for every dispatch, switch, masked section and file op. Event
// *rates* (clock Hz, self-noise rates, quantum) stay wall-anchored.
void ScaleProfileForSpeed(kernel::KernelProfile* os, double speed_mhz) {
  const double factor = 300.0 / speed_mhz;
  os->isr_dispatch_overhead = os->isr_dispatch_overhead.Scaled(factor);
  os->context_switch_cost = os->context_switch_cost.Scaled(factor);
  os->dpc_dispatch_cost = os->dpc_dispatch_cost.Scaled(factor);
  os->clock_isr_body = os->clock_isr_body.Scaled(factor);
  os->file_op_kernel_us = os->file_op_kernel_us.Scaled(factor);
  os->masked_section_len = os->masked_section_len.Scaled(factor);
  os->dispatch_section_len = os->dispatch_section_len.Scaled(factor);
  os->lockout_len = os->lockout_len.Scaled(factor);
  os->clock_isr_per_timer_us *= factor;
}

std::string ValidateCohort(const FleetCohort& cohort, std::size_t index) {
  const std::string where = "cohort " + std::to_string(index) +
                            (cohort.name.empty() ? "" : " (" + cohort.name + ")") + ": ";
  kernel::KernelProfile os;
  if (!OsProfileByName(cohort.os, &os)) {
    return where + "unknown os \"" + cohort.os + "\" (" + kOsNames + ")";
  }
  if (cohort.workloads.empty()) {
    return where + "needs at least one workload";
  }
  workload::StressProfile wl;
  for (const std::string& name : cohort.workloads) {
    if (!WorkloadByName(name, &wl)) {
      return where + "unknown workload \"" + name + "\" (" + kWorkloadNames + ")";
    }
  }
  if (!cohort.workload_weights.empty()) {
    if (cohort.workload_weights.size() != cohort.workloads.size()) {
      return where + "workload_weights length != workloads length";
    }
    for (const double w : cohort.workload_weights) {
      if (!(w > 0.0) || !std::isfinite(w)) {
        return where + "workload weights must be finite and > 0";
      }
    }
  }
  if (cohort.count == 0) {
    return where + "count must be >= 1";
  }
  if (!(cohort.speed_mhz_lo > 0.0) || !(cohort.speed_mhz_hi >= cohort.speed_mhz_lo)) {
    return where + "speed_mhz range must satisfy 0 < lo <= hi";
  }
  if (!(cohort.stress_minutes > 0.0) || cohort.warmup_seconds < 0.0) {
    return where + "durations must be positive";
  }
  if (!(cohort.pit_hz > 0.0) || !std::isfinite(cohort.pit_hz)) {
    return where + "pit_hz must be finite and > 0";
  }
  if (cohort.fault_prob < 0.0 || cohort.fault_prob > 1.0) {
    return where + "fault_prob must be in [0, 1]";
  }
  if (!cohort.fault_plan.empty()) {
    fault::FaultPlan plan;
    if (!fault::FindBuiltinPlan(cohort.fault_plan, &plan)) {
      return where + "unknown built-in fault plan \"" + cohort.fault_plan + "\"";
    }
  } else if (cohort.fault_prob > 0.0) {
    return where + "fault_prob > 0 needs a fault_plan";
  }
  return "";
}

}  // namespace

bool OsProfileByName(std::string_view name, kernel::KernelProfile* out) {
  if (name == "nt4") {
    *out = kernel::MakeNt4Profile();
  } else if (name == "win98") {
    *out = kernel::MakeWin98Profile();
  } else if (name == "w2kbeta") {
    *out = kernel::MakeWin2000BetaProfile();
  } else if (name == "nt_smp2") {
    *out = kernel::MakeNt4SmpProfile(2, /*migrating_dpcs=*/false);
  } else if (name == "nt_smp4") {
    *out = kernel::MakeNt4SmpProfile(4, /*migrating_dpcs=*/false);
  } else if (name == "nt_smp2_migrate") {
    *out = kernel::MakeNt4SmpProfile(2, /*migrating_dpcs=*/true);
  } else if (name == "nt_smp4_migrate") {
    *out = kernel::MakeNt4SmpProfile(4, /*migrating_dpcs=*/true);
  } else {
    return false;
  }
  return true;
}

bool WorkloadByName(std::string_view name, workload::StressProfile* out) {
  if (name == "office") {
    *out = workload::OfficeStress();
  } else if (name == "workstation") {
    *out = workload::WorkstationStress();
  } else if (name == "games") {
    *out = workload::GamesStress();
  } else if (name == "web") {
    *out = workload::WebStress();
  } else if (name == "idle") {
    *out = workload::IdleStress();
  } else {
    return false;
  }
  return true;
}

std::uint64_t FleetCellSeed(std::uint64_t master_seed, std::size_t cohort,
                            std::uint64_t member) {
  return sim::HashCoordinates(master_seed,
                              {kCellSeedTag, static_cast<std::uint64_t>(cohort), member});
}

std::uint64_t FleetFingerprint(const FleetSpec& spec) {
  std::ostringstream out;
  out << "fleet-v" << kFormatVersion << "|" << spec.name << "|" << spec.master_seed;
  for (const FleetCohort& cohort : spec.cohorts) {
    out << "|name=" << cohort.name << ";os=" << cohort.os << ";prio=" << cohort.priority
        << ";count=" << cohort.count << ";minutes=" << HexDouble(cohort.stress_minutes)
        << ";warmup=" << HexDouble(cohort.warmup_seconds)
        << ";pit=" << HexDouble(cohort.pit_hz)
        << ";speed=" << HexDouble(cohort.speed_mhz_lo) << ","
        << HexDouble(cohort.speed_mhz_hi) << ";fault=" << cohort.fault_plan << ","
        << HexDouble(cohort.fault_prob) << ";sketch=" << (cohort.sketch ? 1 : 0)
        << ";episode_us=" << HexDouble(cohort.episode_threshold_us)
        << ";scanner=" << (cohort.options.virus_scanner ? 1 : 0) << ";wl=";
    for (std::size_t i = 0; i < cohort.workloads.size(); ++i) {
      out << (i == 0 ? "" : ",") << cohort.workloads[i];
      if (i < cohort.workload_weights.size()) {
        out << "*" << HexDouble(cohort.workload_weights[i]);
      }
    }
  }
  return Fnv1a64(out.str());
}

Fleet::Fleet(FleetSpec spec) : spec_(std::move(spec)) {
  if (spec_.cohorts.empty()) {
    error_ = "fleet spec has no cohorts";
    return;
  }
  cohort_begin_.reserve(spec_.cohorts.size() + 1);
  cohort_begin_.push_back(0);
  plans_.resize(spec_.cohorts.size());
  for (std::size_t c = 0; c < spec_.cohorts.size(); ++c) {
    const FleetCohort& cohort = spec_.cohorts[c];
    const std::string problem = ValidateCohort(cohort, c);
    if (!problem.empty()) {
      error_ = problem;
      return;
    }
    if (!cohort.fault_plan.empty()) {
      fault::FindBuiltinPlan(cohort.fault_plan, &plans_[c]);
    }
    cohort_begin_.push_back(cohort_begin_.back() + cohort.count);
  }
  cell_count_ = cohort_begin_.back();
  fingerprint_ = FleetFingerprint(spec_);
}

FleetCell Fleet::CellAt(std::uint64_t index) const {
  FleetCell cell;
  cell.index = index;
  // Cohorts are few; a linear scan beats a binary search's branch misses.
  std::size_t c = 0;
  while (c + 1 < cohort_begin_.size() && index >= cohort_begin_[c + 1]) {
    ++c;
  }
  cell.cohort = c;
  cell.member = index - cohort_begin_[c];
  cell.seed = FleetCellSeed(spec_.master_seed, c, cell.member);

  // Per-member draws ride a separate tagged stream so they can never skew
  // the simulation's RNG, and the draw *count* stays fixed (three draws per
  // member) so adding a prior later shifts nothing that exists today.
  const FleetCohort& cohort = spec_.cohorts[c];
  std::uint64_t state = cell.seed ^ kDrawSeedTag;
  sim::Rng draws(sim::SplitMix64(state));
  const double u_speed = draws.NextDouble();
  const double u_workload = draws.NextDouble();
  const double u_fault = draws.NextDouble();

  if (cohort.speed_mhz_hi > cohort.speed_mhz_lo) {
    const double log_lo = std::log(cohort.speed_mhz_lo);
    const double log_hi = std::log(cohort.speed_mhz_hi);
    cell.speed_mhz = std::exp(log_lo + u_speed * (log_hi - log_lo));
  } else {
    cell.speed_mhz = cohort.speed_mhz_lo;
  }

  if (cohort.workloads.size() > 1) {
    if (cohort.workload_weights.empty()) {
      cell.workload_index = std::min(
          cohort.workloads.size() - 1,
          static_cast<std::size_t>(u_workload *
                                   static_cast<double>(cohort.workloads.size())));
    } else {
      double total = 0.0;
      for (const double w : cohort.workload_weights) {
        total += w;
      }
      double target = u_workload * total;
      std::size_t pick = 0;
      while (pick + 1 < cohort.workload_weights.size()) {
        target -= cohort.workload_weights[pick];
        if (target < 0.0) {
          break;
        }
        ++pick;
      }
      cell.workload_index = pick;
    }
  }

  cell.fault_active = cohort.fault_prob > 0.0 && u_fault < cohort.fault_prob;
  return cell;
}

LabConfig Fleet::CellConfig(const FleetCell& cell) const {
  const FleetCohort& cohort = spec_.cohorts[cell.cohort];
  LabConfig config;
  OsProfileByName(cohort.os, &config.os);
  ScaleProfileForSpeed(&config.os, cell.speed_mhz);
  WorkloadByName(cohort.workloads[cell.workload_index], &config.stress);
  config.thread_priority = cohort.priority;
  config.stress_minutes = cohort.stress_minutes;
  config.warmup_seconds = cohort.warmup_seconds;
  // Sampling rate: reprogram the PIT to the cohort's rate and keep
  // ARBITRARY_DELAY at exactly one tick (1 ms at the paper's 1 kHz).
  config.driver.pit_hz = cohort.pit_hz;
  config.driver.timer_delay_ms = 1000.0 / cohort.pit_hz;
  config.seed = cell.seed;
  config.options = cohort.options;
  config.obs.sketch = cohort.sketch;
  if (cohort.episode_threshold_us > 0.0) {
    config.obs.episode_threshold_us = cohort.episode_threshold_us;
    config.obs.anatomy = true;
  }
  if (cell.fault_active) {
    config.faults = &plans_[cell.cohort];
  }
  return config;
}

// --- Spec JSON ---------------------------------------------------------------

bool FleetSpecFromJson(std::string_view text, FleetSpec* spec, std::string* error) {
  *spec = FleetSpec{};
  const obs::JsonParseResult parsed = obs::ParseJson(text);
  if (!parsed.valid) {
    if (error != nullptr) {
      std::ostringstream message;
      message << "fleet spec JSON error at line " << parsed.error_line << ", column "
              << parsed.error_column << ": " << parsed.error;
      *error = message.str();
    }
    return false;
  }
  const obs::JsonValue& root = parsed.value;
  if (!root.is_object()) {
    if (error != nullptr) {
      *error = "fleet spec must be a JSON object";
    }
    return false;
  }
  FleetSpec result;
  result.name = root.StringOr("name", "fleet");
  if (!obs::ReadIntegerOr(root, "master_seed", 0, obs::kMaxJsonInteger, &result.master_seed,
                          error)) {
    return false;
  }
  const obs::JsonValue* cohorts = root.Find("cohorts");
  if (cohorts == nullptr || !cohorts->is_array() || cohorts->items().empty()) {
    if (error != nullptr) {
      *error = "fleet spec needs a non-empty cohorts array";
    }
    return false;
  }
  for (const obs::JsonValue& entry : cohorts->items()) {
    if (!entry.is_object()) {
      if (error != nullptr) {
        *error = "cohort entries must be objects";
      }
      return false;
    }
    FleetCohort cohort;
    cohort.name = entry.StringOr("name", "cohort" + std::to_string(result.cohorts.size()));
    cohort.os = entry.StringOr("os", cohort.os);
    const obs::JsonValue* workloads = entry.Find("workloads");
    if (workloads != nullptr) {
      if (!workloads->is_array()) {
        if (error != nullptr) {
          *error = cohort.name + ": workloads must be an array of names";
        }
        return false;
      }
      cohort.workloads.clear();
      for (const obs::JsonValue& w : workloads->items()) {
        if (!w.is_string()) {
          if (error != nullptr) {
            *error = cohort.name + ": workloads must be strings";
          }
          return false;
        }
        cohort.workloads.push_back(w.as_string());
      }
    }
    const obs::JsonValue* weights = entry.Find("workload_weights");
    if (weights != nullptr) {
      if (!weights->is_array()) {
        if (error != nullptr) {
          *error = cohort.name + ": workload_weights must be an array of numbers";
        }
        return false;
      }
      for (const obs::JsonValue& w : weights->items()) {
        if (!w.is_number()) {
          if (error != nullptr) {
            *error = cohort.name + ": workload_weights must be numbers";
          }
          return false;
        }
        cohort.workload_weights.push_back(w.as_number());
      }
    }
    std::string field_error;
    if (!obs::ReadIntegerOr(entry, "priority", kernel::kMinPriority, kernel::kMaxPriority,
                            &cohort.priority, &field_error) ||
        !obs::ReadIntegerOr(entry, "count", 0, obs::kMaxJsonInteger, &cohort.count,
                            &field_error)) {
      if (error != nullptr) {
        *error = cohort.name + ": " + field_error;
      }
      return false;
    }
    cohort.stress_minutes = entry.NumberOr("stress_minutes", cohort.stress_minutes);
    cohort.warmup_seconds = entry.NumberOr("warmup_seconds", cohort.warmup_seconds);
    cohort.pit_hz = entry.NumberOr("pit_hz", cohort.pit_hz);
    const obs::JsonValue* speed = entry.Find("speed_mhz");
    if (speed != nullptr) {
      if (speed->is_number()) {
        cohort.speed_mhz_lo = cohort.speed_mhz_hi = speed->as_number();
      } else if (speed->is_array() && speed->items().size() == 2 &&
                 speed->items()[0].is_number() && speed->items()[1].is_number()) {
        cohort.speed_mhz_lo = speed->items()[0].as_number();
        cohort.speed_mhz_hi = speed->items()[1].as_number();
      } else {
        if (error != nullptr) {
          *error = cohort.name + ": speed_mhz must be a number or [lo, hi]";
        }
        return false;
      }
    }
    cohort.fault_plan = entry.StringOr("fault_plan", "");
    cohort.fault_prob = entry.NumberOr("fault_prob", 0.0);
    cohort.sketch = entry.BoolOr("sketch", false);
    cohort.episode_threshold_us = entry.NumberOr("episode_threshold_us", 0.0);
    cohort.options.virus_scanner = entry.BoolOr("virus_scanner", false);
    const std::string problem = ValidateCohort(cohort, result.cohorts.size());
    if (!problem.empty()) {
      if (error != nullptr) {
        *error = problem;
      }
      return false;
    }
    result.cohorts.push_back(std::move(cohort));
  }
  *spec = std::move(result);
  return true;
}

bool LoadFleetSpec(const std::string& path, FleetSpec* spec, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot read fleet spec: " + path;
    }
    return false;
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return FleetSpecFromJson(bytes.str(), spec, error);
}

// --- Record serialization ----------------------------------------------------

namespace {

std::string RecordPayload(const FleetCellRecord& record) {
  std::string out;
  out.reserve(1024);
  out += "{\"format\": \"";
  out += kRecordFormat;
  out += "\", \"version\": ";
  AppendInt(out, kRecordVersion);
  out += ", \"cohort\": ";
  AppendU64(out, record.cohort);
  out += ", \"samples\": \"";
  AppendU64(out, record.samples);
  out += "\", \"stress_hours\": \"";
  AppendHexDouble(out, record.stress_hours);
  out += "\", \"speed_mhz\": \"";
  AppendHexDouble(out, record.speed_mhz);
  out += "\", \"fault_activations\": \"";
  AppendU64(out, record.fault_activations);
  out += "\", \"anatomy_episodes\": \"";
  AppendU64(out, record.anatomy_episodes);
  out += "\", \"anatomy_stage_cycles\": [";
  for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
    if (s != 0) out += ", ";
    out += '"';
    AppendU64(out, record.anatomy_stage_cycles[s]);
    out += '"';
  }
  out += "], \"histograms\": {";
  AppendHistogram(out, "thread", record.thread);
  out += ", ";
  AppendHistogram(out, "dpc_interrupt", record.dpc_interrupt);
  out += "}, ";
  AppendCompactSketch(out, "thread_sketch", record.thread_sketch);
  out += '}';
  return out;
}

// Decode a record payload (the record's body minus its log coordinates):
// the inverse of RecordPayload.
bool RecordFromPayload(std::string_view payload, FleetCellRecord* record,
                       std::string* error) {
  report_json::Reader in(payload);
  std::int64_t version = 0;
  if (!in.Expect("{\"format\": \"") || !in.Expect(kRecordFormat) ||
      !in.Expect("\", \"version\": ") || !in.Int(1, obs::kMaxJsonInteger, &version)) {
    if (error != nullptr) {
      *error = "record payload is not a " + std::string(kRecordFormat) + " document (" +
               in.error() + ")";
    }
    return false;
  }
  if (version != kRecordVersion) {
    if (error != nullptr) {
      *error = "record payload is " + std::string(kRecordFormat) + " v" +
               std::to_string(version) + "; this build reads v" +
               std::to_string(kRecordVersion) + " only (re-run the cell)";
    }
    return false;
  }
  const auto stage_cycles = [&](std::size_t s) {
    return in.QuotedU64(&record->anatomy_stage_cycles[s]);
  };
  std::int64_t cohort = 0;
  const bool ok =
      in.Expect(", \"cohort\": ") && in.Int(0, obs::kMaxJsonInteger, &cohort) &&
      in.Expect(", \"samples\": ") && in.QuotedU64(&record->samples) &&
      in.Expect(", \"stress_hours\": ") && in.QuotedHexDouble(&record->stress_hours) &&
      in.Expect(", \"speed_mhz\": ") && in.QuotedHexDouble(&record->speed_mhz) &&
      in.Expect(", \"fault_activations\": ") && in.QuotedU64(&record->fault_activations) &&
      in.Expect(", \"anatomy_episodes\": ") && in.QuotedU64(&record->anatomy_episodes) &&
      in.Expect(", \"anatomy_stage_cycles\": ") &&
      in.FixedArray(obs::kAnatomyStageCount, stage_cycles) &&
      in.Expect(", \"histograms\": {") && ReadHistogram(in, "thread", &record->thread) &&
      in.Expect(", ") && ReadHistogram(in, "dpc_interrupt", &record->dpc_interrupt) &&
      in.Expect("}, ") && ReadCompactSketch(in, "thread_sketch", &record->thread_sketch) &&
      in.Expect("}") && in.ExpectEnd();
  if (!ok) {
    if (error != nullptr) {
      *error = "record payload: " + in.error();
    }
    return false;
  }
  record->cohort = static_cast<std::size_t>(cohort);
  return true;
}

}  // namespace

std::string FleetRecordToLine(const FleetCellRecord& record) {
  return RecordLineText(record.index, record.seed, record.spec, RecordPayload(record));
}

bool FleetRecordFromLine(std::string_view line, FleetCellRecord* record,
                         std::string* error, RecordDamage* damage) {
  // Decoded in place: the payload sets every field but the coordinates, and
  // a record is two 8 KiB histograms, too big to build aside and copy.
  RecordLine parsed;
  RecordDamage line_damage = RecordDamage::kCorrupt;
  if (!ParseRecordLine(line, &parsed, error, &line_damage) ||
      !RecordFromPayload(parsed.payload, record, error)) {
    *record = FleetCellRecord{};
    if (damage != nullptr) {
      *damage = line_damage;
    }
    return false;
  }
  record->index = parsed.cell;
  record->seed = parsed.seed;
  record->spec = parsed.spec;
  return true;
}

// --- Warm cell runner --------------------------------------------------------

WarmCellRunner::WarmCellRunner() = default;
WarmCellRunner::~WarmCellRunner() = default;

LabReport WarmCellRunner::Run(const LabConfig& config) {
  if (system_ == nullptr) {
    system_ = std::make_unique<TestSystem>(config.os, config.seed, config.options);
    ++constructions_;
  } else {
    system_->Reset(config.os, config.seed, config.options);
    ++resets_;
  }
  return RunLatencyExperimentOn(*system_, config);
}

// --- Shard runner ------------------------------------------------------------

std::string FleetShardPath(const std::string& dir, std::size_t shard, std::size_t shards) {
  return dir + "/shard_" + std::to_string(shard) + "_of_" + std::to_string(shards) +
         ".jsonl";
}

FleetCellRecord MakeCellRecord(const LabReport& report, const LabConfig& config) {
  FleetCellRecord record;
  record.samples = report.samples;
  record.stress_hours = report.samples_per_hour > 0.0
                            ? static_cast<double>(report.samples) / report.samples_per_hour
                            : config.stress_minutes / 60.0;
  record.fault_activations = report.fault_activations;
  record.anatomy_episodes = report.anatomy.size();
  for (const obs::AnatomyEpisode& episode : report.anatomy) {
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      record.anatomy_stage_cycles[s] += episode.stage_cycles[s];
    }
  }
  record.thread = report.thread;
  record.dpc_interrupt = report.dpc_interrupt;
  record.thread_sketch = report.thread_sketch;
  return record;
}

void CellPool::Add(const FleetCellRecord& record) {
  ++cells;
  counters.Merge(stats::SampleCounters{record.samples, record.stress_hours});
  thread.Merge(record.thread);
  dpc_interrupt.Merge(record.dpc_interrupt);
  thread_sketch.Merge(record.thread_sketch);
  fault_activations += record.fault_activations;
  anatomy_episodes += record.anatomy_episodes;
  for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
    anatomy_stage_cycles[s] += record.anatomy_stage_cycles[s];
  }
}

FleetShardResult RunFleetShard(const Fleet& fleet, const FleetShardOptions& options) {
  FleetShardResult result;
  if (!fleet.error().empty()) {
    result.error = fleet.error();
    return result;
  }
  if (options.shards == 0 || options.shard >= options.shards) {
    result.error = "shard index must satisfy 0 <= shard < shards";
    return result;
  }
  if (options.out_path.empty()) {
    result.error = "fleet shard needs an output path";
    return result;
  }
  if (options.chaos_delay_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<long>(options.chaos_delay_ms * 1000.0)));
  }

  CellLogOptions log;
  log.path = options.out_path;
  log.spec = fleet.fingerprint();
  log.cell_count = fleet.cell_count();
  log.stride = options.shards;
  log.offset = options.shard;
  log.skip_cells = options.skip_cells;
  log.cell_lo = options.cell_lo;
  log.cell_hi = options.cell_hi;
  log.jobs = options.jobs;
  log.cell_timeout_ms = options.cell_timeout_ms;
  log.cell_seed = [&fleet](std::uint64_t index) { return fleet.CellAt(index).seed; };
  log.restore = [](std::uint64_t, std::string_view payload, std::string* error) {
    FleetCellRecord record;
    return RecordFromPayload(payload, &record, error);
  };
  log.run = [&](std::uint64_t index, runtime::Watchdog& watchdog) {
    if (options.poison_cell >= 0 && index == static_cast<std::uint64_t>(options.poison_cell)) {
      // Poisoned-cell fixture: take the whole process down, like a wild
      // write would — the in-process exception barrier cannot catch this.
      std::abort();
    }
    const FleetCell cell = fleet.CellAt(index);
    LabConfig config = fleet.CellConfig(cell);
    if (watchdog.armed()) {
      config.supervision.watchdog = &watchdog;
    }
    // One warmed machine per pool worker, reused across every cell the
    // worker runs.
    thread_local WarmCellRunner runner;
    FleetCellRecord record = MakeCellRecord(runner.Run(config), config);
    record.cohort = cell.cohort;
    record.speed_mhz = cell.speed_mhz;
    return RecordPayload(record);
  };
  std::uint64_t executed = 0;
  log.on_cell_done = [&](std::uint64_t index, const runtime::CellFailure* failure) {
    if (options.chaos_kill_after_cells > 0 && ++executed >= options.chaos_kill_after_cells) {
      // Host-chaos fixture: die the way a crashing host does — mid-run,
      // after an arbitrary number of flushes, with no cleanup.
      raise(SIGKILL);
    }
    if (options.on_cell_done) {
      options.on_cell_done(fleet.CellAt(index), failure == nullptr);
    }
  };
  return RunCellLog(log);
}

// --- Quarantine manifest -----------------------------------------------------

namespace {

// The manifest is a few lines read once per merge, so it keeps the DOM
// reader; its u64 fields are decimal strings as in the record dialect.
bool ReadU64Field(const obs::JsonValue& object, const char* key, std::uint64_t* out,
                  std::string* error) {
  const obs::JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_string() || !ParseU64(value->as_string(), out)) {
    *error = std::string("field \"") + key + "\" is not a decimal u64 string";
    return false;
  }
  return true;
}

}  // namespace

bool LoadFleetQuarantine(const std::string& path,
                         std::vector<FleetQuarantineEntry>* entries,
                         std::string* error) {
  entries->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot read quarantine manifest: " + path;
    }
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    const obs::JsonParseResult parsed = obs::ParseJson(line);
    if (!parsed.valid || !parsed.value.is_object()) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) +
                 ": quarantine line is not a JSON object";
      }
      return false;
    }
    FleetQuarantineEntry entry;
    std::string parse_error;
    if (!ReadU64Field(parsed.value, "cell", &entry.cell, &parse_error) ||
        !ReadU64Field(parsed.value, "seed", &entry.seed, &parse_error)) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) + ": " + parse_error;
      }
      return false;
    }
    entry.taxonomy = parsed.value.StringOr("taxonomy", "");
    if (!obs::ReadIntegerOr(parsed.value, "attempts", 1, std::numeric_limits<int>::max(),
                            &entry.attempts, &parse_error)) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) + ": " + parse_error;
      }
      return false;
    }
    if (entry.taxonomy.empty()) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) + ": missing taxonomy";
      }
      return false;
    }
    entries->push_back(std::move(entry));
  }
  std::sort(entries->begin(), entries->end(),
            [](const FleetQuarantineEntry& a, const FleetQuarantineEntry& b) {
              return a.cell < b.cell;
            });
  return true;
}

bool SaveFleetQuarantine(const std::string& path,
                         const std::vector<FleetQuarantineEntry>& entries,
                         std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot write quarantine manifest: " + tmp;
      }
      return false;
    }
    for (const FleetQuarantineEntry& entry : entries) {
      std::string line = "{\"cell\": \"";
      AppendU64(line, entry.cell);
      line += "\", \"seed\": \"";
      AppendU64(line, entry.seed);
      line += "\", \"taxonomy\": \"";
      AppendEscaped(line, entry.taxonomy);
      line += "\", \"attempts\": ";
      AppendInt(line, entry.attempts);
      line += "}\n";
      out << line;
    }
    out.flush();
    if (!out) {
      if (error != nullptr) {
        *error = "quarantine manifest write failed: " + tmp;
      }
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "cannot rename " + tmp + " over " + path;
    }
    return false;
  }
  return true;
}


// --- Streaming merge ---------------------------------------------------------

namespace {

// Decode-ahead for the streaming merge. Decoding a record line is pure, so
// worker threads decode the next lines of the shard streams while the merge
// folds earlier records serially in grid order. Each stream still yields its
// non-empty lines in file order, exactly as a serial reader would, so the
// fold sees the same sequence of parse results and the merged bits do not
// change. Lines are read ahead in the order the fold expects to need them
// (cell i from stream i % shards), and at most two per worker are held at
// once, whatever the shard count. The fold reads each decoded record where
// it lies, at the front of its stream's queue.
class RecordDecoder {
 public:
  struct Decoded {
    bool ok = false;
    FleetCellRecord record;
    std::string error;
    RecordDamage damage = RecordDamage::kNone;
  };

  explicit RecordDecoder(std::vector<std::ifstream> streams)
      : streams_(std::move(streams)),
        queues_(streams_.size()),
        exhausted_(streams_.size(), false),
        pool_(runtime::ThreadPool::HardwareThreads()),
        window_(2 * static_cast<std::size_t>(pool_.thread_count())) {}

  // The next non-empty line of stream k, decoded, until Pop(k); null once k
  // is exhausted.
  const Decoded* Front(std::size_t k) {
    if (queues_[k].empty()) {
      ReadAhead(k);  // the fold ran ahead of the plan (dropped or stale lines)
    }
    if (queues_[k].empty()) {
      return nullptr;
    }
    Slot& slot = *queues_[k].front();
    if (!slot.taken) {
      slot.taken = true;
      --pending_;
      TopUp();  // queue the next decodes before waiting on this one
      slot.done.get();
    }
    return &slot.decoded;
  }

  // Drop stream k's front. The slot leaves its queue only once Front has
  // waited for its decode: on an exception the pool, which is destroyed
  // first, still writes into the slots it holds.
  void Pop(std::size_t k) { queues_[k].pop_front(); }

 private:
  struct Slot {
    std::string line;
    Decoded decoded;
    std::future<void> done;
    bool taken = false;  // handed to the fold (its decode is done)
  };

  // Read stream k's next non-empty line and queue its decode.
  void ReadAhead(std::size_t k) {
    if (exhausted_[k]) {
      return;
    }
    std::string line;
    while (std::getline(streams_[k], line)) {
      if (!line.empty()) {
        break;
      }
    }
    if (line.empty()) {
      exhausted_[k] = true;
      ++exhausted_count_;
      return;
    }
    Slot& slot = *queues_[k].emplace_back(std::make_unique<Slot>());
    slot.line = std::move(line);
    slot.done = pool_.Submit([&slot] {
      slot.decoded.ok = FleetRecordFromLine(slot.line, &slot.decoded.record, &slot.decoded.error,
                                            &slot.decoded.damage);
    });
    ++pending_;
  }

  void TopUp() {
    const std::size_t shards = streams_.size();
    while (pending_ < window_ && exhausted_count_ < shards) {
      ReadAhead(plan_);
      plan_ = (plan_ + 1) % shards;
    }
  }

  std::vector<std::ifstream> streams_;
  std::vector<std::deque<std::unique_ptr<Slot>>> queues_;
  std::vector<bool> exhausted_;
  std::size_t exhausted_count_ = 0;
  std::size_t pending_ = 0;
  std::size_t plan_ = 0;  // the stream the next read-ahead comes from
  // Declared after the slots it writes into, so it drains and joins first.
  runtime::ThreadPool pool_;
  const std::size_t window_;
};

}  // namespace

bool MergeFleetShards(const Fleet& fleet, const std::vector<std::string>& shard_paths,
                      FleetReport* report, std::string* error) {
  return MergeFleetShards(fleet, shard_paths, FleetMergeOptions{}, report, error);
}

bool MergeFleetShards(const Fleet& fleet, const std::vector<std::string>& shard_paths,
                      const FleetMergeOptions& merge_options, FleetReport* report,
                      std::string* error) {
  *report = FleetReport{};
  if (!fleet.error().empty()) {
    if (error != nullptr) {
      *error = fleet.error();
    }
    return false;
  }
  if (shard_paths.empty()) {
    if (error != nullptr) {
      *error = "merge needs at least one shard path";
    }
    return false;
  }
  const std::size_t shards = shard_paths.size();
  std::vector<std::ifstream> streams(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    streams[k].open(shard_paths[k], std::ios::binary);
    if (!streams[k]) {
      if (error != nullptr) {
        *error = "cannot read shard file: " + shard_paths[k];
      }
      return false;
    }
  }

  FleetReport result;
  result.name = fleet.spec().name;
  result.fingerprint = fleet.fingerprint();
  result.cells = fleet.cell_count();
  result.cohorts.resize(fleet.spec().cohorts.size());
  for (std::size_t c = 0; c < fleet.spec().cohorts.size(); ++c) {
    result.cohorts[c].name = fleet.spec().cohorts[c].name;
    result.cohorts[c].os = fleet.spec().cohorts[c].os;
    result.cohorts[c].priority = fleet.spec().cohorts[c].priority;
    result.cohorts[c].planned = fleet.spec().cohorts[c].count;
  }

  const bool degraded = merge_options.allow_degraded;
  std::map<std::uint64_t, const FleetQuarantineEntry*> expected_quarantine;
  for (const FleetQuarantineEntry& q : merge_options.quarantined) {
    expected_quarantine.emplace(q.cell, &q);
  }
  const auto add_quarantine = [&result](FleetQuarantineEntry entry) {
    ++result.cells_quarantined;
    if (entry.cohort < result.cohorts.size()) {
      ++result.cohorts[entry.cohort].quarantined;
    }
    result.quarantine.push_back(std::move(entry));
  };
  const auto warn = [&result](std::string what) {
    result.merge_warnings.push_back(std::move(what));
  };
  // Degraded mode: quarantine cell `index` of shard k for `taxonomy`.
  const auto degrade = [&](std::uint64_t index, std::size_t k, const std::string& taxonomy) {
    const FleetCell cell = fleet.CellAt(index);
    warn("cell " + std::to_string(index) + " (shard " + std::to_string(k) +
         ") quarantined by degraded merge: " + taxonomy);
    add_quarantine({index, cell.seed, cell.cohort, taxonomy, 1});
  };

  // Each stream's front record is the lookahead that lets the degraded
  // merge distinguish a duplicate/stale record from a missing one without
  // losing round-robin alignment.
  RecordDecoder decoder(std::move(streams));

  // Global grid order: cell i lives at the front of stream i % shards, so
  // the k-way merge is a round-robin walk. Folding in this one fixed order —
  // whatever shard/job split produced the files — is what makes the merged
  // floating-point sums and sketch states bit-identical.
  for (std::uint64_t index = 0; index < fleet.cell_count(); ++index) {
    const std::size_t k = index % shards;
    const auto fail = [&](const std::string& what) {
      if (error != nullptr) {
        *error = "cell " + std::to_string(index) + " (shard " + std::to_string(k) +
                 "): " + what;
      }
      return false;
    };
    // The reason the last dropped line would explain this cell's gap.
    std::string drop_reason;
    std::string fatal;
    // Stream k's next intact record, or null once it is exhausted.
    const RecordDecoder::Decoded* front = nullptr;
    const auto fill = [&]() -> bool {  // false = strict-mode parse failure
      while ((front = decoder.Front(k)) != nullptr && !front->ok) {
        if (!degraded) {
          fatal = front->error;
          return false;
        }
        drop_reason = front->damage == RecordDamage::kChecksumMismatch ? "checksum_mismatch"
                                                                       : "corrupt_record";
        warn("shard " + std::to_string(k) + ": dropped line (" + front->error + ")");
        decoder.Pop(k);
      }
      return true;
    };
    if (!fill()) {
      return fail(fatal);
    }
    if (degraded) {
      // Duplicate or out-of-order records sort behind the cursor: stale.
      while (front != nullptr && front->record.index < index) {
        warn("shard " + std::to_string(k) + ": stale record for cell " +
             std::to_string(front->record.index) + " (duplicate or out of order); dropped");
        decoder.Pop(k);
        if (!fill()) {
          return fail(fatal);
        }
      }
    }

    const auto it_expected = expected_quarantine.find(index);
    if (front == nullptr || front->record.index != index) {
      if (it_expected != expected_quarantine.end()) {
        // A cell the supervisor already isolated: an expected gap in both
        // strict and degraded mode, reported with its manifest taxonomy.
        FleetQuarantineEntry entry = *it_expected->second;
        entry.cohort = fleet.CellAt(index).cohort;
        add_quarantine(std::move(entry));
        continue;
      }
      if (!degraded) {
        if (front == nullptr) {
          return fail("missing record — incomplete shard, re-run it");
        }
        return fail("record is for cell " + std::to_string(front->record.index) +
                    " — shard file out of order");
      }
      degrade(index, k, drop_reason.empty() ? "missing_record" : drop_reason);
      continue;
    }

    const FleetCellRecord& record = front->record;
    const FleetCell cell = fleet.CellAt(index);
    // The same binding the resume pass enforces: a record of another spec
    // must never fold, even when its coordinate-derived seed matches.
    const bool foreign_spec = record.spec != fleet.fingerprint();
    if (foreign_spec || record.seed != cell.seed || record.cohort != cell.cohort) {
      if (!degraded) {
        return fail(foreign_spec ? "record was written under spec " +
                                       std::to_string(record.spec) + ", not this fleet's spec " +
                                       std::to_string(fleet.fingerprint())
                                 : "record seed/cohort does not match this spec");
      }
      degrade(index, k, foreign_spec ? "spec_mismatch" : "seed_mismatch");
      decoder.Pop(k);
      continue;
    }
    if (it_expected != expected_quarantine.end()) {
      // The manifest says poisoned, yet a verified record exists (an earlier
      // attempt completed it before the cell turned): keep the data, report
      // the disagreement.
      warn("cell " + std::to_string(index) +
           " is quarantined in the manifest but has a valid record; folding it");
    }
    FleetCohortReport& cohort = result.cohorts[record.cohort];
    if (cohort.cells == 0) {
      cohort.speed_mhz_min = record.speed_mhz;
      cohort.speed_mhz_max = record.speed_mhz;
    } else {
      cohort.speed_mhz_min = std::min(cohort.speed_mhz_min, record.speed_mhz);
      cohort.speed_mhz_max = std::max(cohort.speed_mhz_max, record.speed_mhz);
    }
    cohort.Add(record);
    cohort.fault_cells += record.fault_activations > 0 ? 1 : 0;
    cohort.speed_mhz_sum += record.speed_mhz;
    decoder.Pop(k);
    ++result.cells_completed;
  }
  // Conservation audit, matrix-style: completed + quarantined must cover the
  // plan exactly — the fold above is the only writer, so a mismatch can only
  // mean broken merge arithmetic.
  for (std::size_t c = 0; c < result.cohorts.size(); ++c) {
    const FleetCohortReport& cohort = result.cohorts[c];
    if (cohort.cells + cohort.quarantined != cohort.planned) {
      if (error != nullptr) {
        if (cohort.quarantined == 0) {
          *error = "cohort " + cohort.name + " folded " + std::to_string(cohort.cells) +
                   " cells, expected " + std::to_string(cohort.planned);
        } else {
          *error = "cohort " + cohort.name + " folded " + std::to_string(cohort.cells) +
                   " cells + " + std::to_string(cohort.quarantined) +
                   " quarantined, expected " + std::to_string(cohort.planned);
        }
      }
      return false;
    }
  }
  *report = std::move(result);
  return true;
}

namespace {

// An upper bound on FleetReportToJson's length, so the document is written
// into one allocation: a histogram bucket takes at most 32 bytes, a sketch
// value 28 (a quoted hexfloat and its separator), an escaped name byte 6, and
// the rest of a cohort (at most 48 sketch levels) or quarantine entry fits in
// its fixed allowance.
std::size_t FleetReportJsonBound(const FleetReport& report) {
  constexpr std::size_t kBucketBytes = 32;
  constexpr std::size_t kValueBytes = 28;
  constexpr std::size_t kEscapedByte = 6;
  std::size_t bytes = 1024 + kEscapedByte * report.name.size();
  for (const FleetQuarantineEntry& entry : report.quarantine) {
    bytes += 256 + kEscapedByte * entry.taxonomy.size();
  }
  for (const FleetCohortReport& cohort : report.cohorts) {
    bytes += 4096 + kEscapedByte * (cohort.name.size() + cohort.os.size()) +
             kBucketBytes *
                 (cohort.thread.occupied_buckets() + cohort.dpc_interrupt.occupied_buckets()) +
             kValueBytes * cohort.thread_sketch.retained();
  }
  return bytes;
}

}  // namespace

std::string FleetReportToJson(const FleetReport& report) {
  std::string out;
  out.reserve(FleetReportJsonBound(report));
  out += "{\"format\": \"";
  out += kReportFormat;
  out += "\", \"version\": ";
  AppendInt(out, kFormatVersion);
  out += ",\n\"name\": \"";
  AppendEscaped(out, report.name);
  out += "\", \"fingerprint\": \"";
  AppendU64(out, report.fingerprint);
  out += "\", \"cells\": \"";
  AppendU64(out, report.cells);
  out += "\",\n\"cells_completed\": \"";
  AppendU64(out, report.cells_completed);
  out += "\", \"cells_quarantined\": \"";
  AppendU64(out, report.cells_quarantined);
  out += "\",\n\"quarantine\": [";
  for (std::size_t q = 0; q < report.quarantine.size(); ++q) {
    const FleetQuarantineEntry& entry = report.quarantine[q];
    out += q == 0 ? "\n" : ",\n";
    out += "{\"cell\": \"";
    AppendU64(out, entry.cell);
    out += "\", \"seed\": \"";
    AppendU64(out, entry.seed);
    out += "\", \"cohort\": ";
    AppendU64(out, entry.cohort);
    out += ", \"taxonomy\": \"";
    AppendEscaped(out, entry.taxonomy);
    out += "\", \"attempts\": ";
    AppendInt(out, entry.attempts);
    out += '}';
  }
  out += "],\n\"cohorts\": [";
  for (std::size_t c = 0; c < report.cohorts.size(); ++c) {
    const FleetCohortReport& cohort = report.cohorts[c];
    out += c == 0 ? "\n" : ",\n";
    out += "{\"name\": \"";
    AppendEscaped(out, cohort.name);
    out += "\", \"os\": \"";
    AppendEscaped(out, cohort.os);
    out += "\", \"priority\": ";
    AppendInt(out, cohort.priority);
    out += ", \"planned\": \"";
    AppendU64(out, cohort.planned);
    out += "\", \"cells\": \"";
    AppendU64(out, cohort.cells);
    out += "\", \"quarantined\": \"";
    AppendU64(out, cohort.quarantined);
    out += "\", \"samples\": \"";
    AppendU64(out, cohort.counters.samples);
    out += "\", \"stress_hours\": \"";
    AppendHexDouble(out, cohort.counters.stress_hours);
    out += "\", \"samples_per_hour\": \"";
    AppendHexDouble(out, cohort.counters.SamplesPerHour());
    out += "\",\n";
    // Readable tails for humans and dashboards; the exact states below are
    // the mergeable ground truth.
    char quantiles[256];
    std::snprintf(quantiles, sizeof(quantiles),
                  "\"thread_ms\": {\"p50\": %.6g, \"p99\": %.6g, \"p999\": %.6g, "
                  "\"p9999\": %.6g, \"max\": %.6g},\n",
                  cohort.thread.QuantileMs(0.5), cohort.thread.QuantileMs(0.99),
                  cohort.thread.QuantileMs(0.999), cohort.thread.QuantileMs(0.9999),
                  cohort.thread.max_ms());
    out += quantiles;
    out += "\"speed_mhz\": {\"min\": \"";
    AppendHexDouble(out, cohort.speed_mhz_min);
    out += "\", \"mean\": \"";
    AppendHexDouble(out, cohort.cells > 0
                             ? cohort.speed_mhz_sum / static_cast<double>(cohort.cells)
                             : 0.0);
    out += "\", \"max\": \"";
    AppendHexDouble(out, cohort.speed_mhz_max);
    out += "\"},\n\"fault_cells\": \"";
    AppendU64(out, cohort.fault_cells);
    out += "\", \"fault_activations\": \"";
    AppendU64(out, cohort.fault_activations);
    out += "\", \"anatomy_episodes\": \"";
    AppendU64(out, cohort.anatomy_episodes);
    out += "\", \"anatomy_stage_cycles\": [";
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      if (s != 0) out += ", ";
      out += '"';
      AppendU64(out, cohort.anatomy_stage_cycles[s]);
      out += '"';
    }
    out += "],\n\"histograms\": {";
    AppendHistogram(out, "thread", cohort.thread);
    out += ", ";
    AppendHistogram(out, "dpc_interrupt", cohort.dpc_interrupt);
    out += "}, ";
    AppendSketch(out, "thread_sketch", cohort.thread_sketch);
    out += '}';
  }
  out += "]}\n";
  return out;
}

}  // namespace wdmlat::lab
