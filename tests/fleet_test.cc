// Fleet population runner: spec parsing and validation, coordinate-only cell
// seeds/draws, engine/pool warm reset, and the tentpole's core amortization
// guarantee — a warmed TestSystem reused across cells produces bit-identical
// reports to a freshly constructed one.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/fleet.h"
#include "src/lab/lab.h"
#include "src/lab/record_log.h"
#include "src/lab/report_io.h"
#include "src/sim/engine.h"
#include "src/sim/event_pool.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_path.h"

namespace wdmlat::lab {
namespace {

FleetSpec TwoCohortSpec() {
  FleetSpec spec;
  spec.name = "test";
  spec.master_seed = 7;
  FleetCohort a;
  a.name = "a";
  a.os = "nt4";
  a.workloads = {"office", "web"};
  a.count = 5;
  a.stress_minutes = 0.002;
  a.warmup_seconds = 0.1;
  a.speed_mhz_lo = 150.0;
  a.speed_mhz_hi = 450.0;
  FleetCohort b;
  b.name = "b";
  b.os = "win98";
  b.workloads = {"games"};
  b.count = 4;
  b.stress_minutes = 0.002;
  b.warmup_seconds = 0.1;
  b.fault_plan = "irq_storm";
  b.fault_prob = 0.5;
  spec.cohorts = {a, b};
  return spec;
}

TEST(FleetSpec, ParsesJsonAndRejectsBadFields) {
  FleetSpec spec;
  std::string error;
  ASSERT_TRUE(FleetSpecFromJson(
      R"({"name": "pop", "master_seed": 11, "cohorts": [
           {"name": "x", "os": "nt4", "workloads": ["office", "games"],
            "workload_weights": [3, 1], "count": 10, "speed_mhz": [100, 400],
            "pit_hz": 4000,
            "fault_plan": "irq_storm", "fault_prob": 0.25, "sketch": true}]})",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.name, "pop");
  EXPECT_EQ(spec.master_seed, 11u);
  ASSERT_EQ(spec.cohorts.size(), 1u);
  EXPECT_EQ(spec.cohorts[0].workloads.size(), 2u);
  EXPECT_EQ(spec.cohorts[0].workload_weights.size(), 2u);
  EXPECT_EQ(spec.cohorts[0].count, 10u);
  EXPECT_DOUBLE_EQ(spec.cohorts[0].speed_mhz_lo, 100.0);
  EXPECT_DOUBLE_EQ(spec.cohorts[0].speed_mhz_hi, 400.0);
  EXPECT_DOUBLE_EQ(spec.cohorts[0].pit_hz, 4000.0);
  EXPECT_TRUE(spec.cohorts[0].sketch);

  // Unknown OS, unknown workload, bad weights, fault_prob without a plan,
  // inverted speed range: each must fail at parse time with a message.
  const char* bad[] = {
      R"({"cohorts": [{"os": "beos"}]})",
      R"({"cohorts": [{"workloads": ["mining"]}]})",
      R"({"cohorts": [{"workloads": ["office", "web"], "workload_weights": [1]}]})",
      R"({"cohorts": [{"fault_prob": 0.5}]})",
      R"({"cohorts": [{"speed_mhz": [400, 100]}]})",
      R"({"cohorts": [{"fault_plan": "not_a_plan", "fault_prob": 0.1}]})",
      R"({"cohorts": [{"pit_hz": -1}]})",
      R"({"cohorts": []})",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(FleetSpecFromJson(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(FleetSpec, FingerprintTracksEverySeedRelevantKnob) {
  const FleetSpec base = TwoCohortSpec();
  const std::uint64_t fp = FleetFingerprint(base);
  EXPECT_EQ(fp, FleetFingerprint(base));  // stable

  FleetSpec mutate = base;
  mutate.master_seed ^= 1;
  EXPECT_NE(fp, FleetFingerprint(mutate));
  mutate = base;
  mutate.cohorts[0].count += 1;
  EXPECT_NE(fp, FleetFingerprint(mutate));
  mutate = base;
  mutate.cohorts[1].fault_prob = 0.6;
  EXPECT_NE(fp, FleetFingerprint(mutate));
  mutate = base;
  mutate.cohorts[0].speed_mhz_hi = 451.0;
  EXPECT_NE(fp, FleetFingerprint(mutate));
  mutate = base;
  mutate.cohorts[0].pit_hz = 4000.0;
  EXPECT_NE(fp, FleetFingerprint(mutate));
}

TEST(FleetCells, SeedsAndDrawsDependOnlyOnCoordinates) {
  const Fleet fleet(TwoCohortSpec());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  ASSERT_EQ(fleet.cell_count(), 9u);

  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < fleet.cell_count(); ++i) {
    const FleetCell cell = fleet.CellAt(i);
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.seed, FleetCellSeed(7, cell.cohort, cell.member));
    seeds.insert(cell.seed);
    // Materializing twice (or in any order) gives the same member.
    const FleetCell again = fleet.CellAt(i);
    EXPECT_EQ(cell.seed, again.seed);
    EXPECT_EQ(cell.speed_mhz, again.speed_mhz);
    EXPECT_EQ(cell.workload_index, again.workload_index);
    EXPECT_EQ(cell.fault_active, again.fault_active);
    if (cell.cohort == 0) {
      EXPECT_GE(cell.speed_mhz, 150.0);
      EXPECT_LE(cell.speed_mhz, 450.0);
      EXPECT_LT(cell.workload_index, 2u);
      EXPECT_FALSE(cell.fault_active);
    } else {
      EXPECT_DOUBLE_EQ(cell.speed_mhz, 300.0);
      EXPECT_EQ(cell.workload_index, 0u);
    }
  }
  EXPECT_EQ(seeds.size(), fleet.cell_count());  // no collisions in this grid

  // Cohort-1 cells with an active fault get the plan; others run clean.
  for (std::uint64_t i = 5; i < 9; ++i) {
    const FleetCell cell = fleet.CellAt(i);
    const LabConfig config = fleet.CellConfig(cell);
    EXPECT_EQ(config.faults != nullptr, cell.fault_active);
    EXPECT_EQ(config.seed, cell.seed);
  }
}

TEST(FleetCells, SpeedScalingSlowsKernelCosts) {
  FleetSpec spec = TwoCohortSpec();
  spec.cohorts[0].speed_mhz_lo = spec.cohorts[0].speed_mhz_hi = 150.0;
  const Fleet fleet{std::move(spec)};
  ASSERT_TRUE(fleet.error().empty());
  const FleetCell cell = fleet.CellAt(0);
  ASSERT_DOUBLE_EQ(cell.speed_mhz, 150.0);
  const LabConfig config = fleet.CellConfig(cell);
  // A 150 MHz member pays 2x the reference profile's mean costs.
  const kernel::KernelProfile reference = kernel::MakeNt4Profile();
  EXPECT_NEAR(config.os.context_switch_cost.MeanUs(),
              2.0 * reference.context_switch_cost.MeanUs(), 1e-9);
  EXPECT_NEAR(config.os.isr_dispatch_overhead.MeanUs(),
              2.0 * reference.isr_dispatch_overhead.MeanUs(), 1e-9);
  EXPECT_DOUBLE_EQ(config.os.clock_isr_per_timer_us,
                   2.0 * reference.clock_isr_per_timer_us);
  // Rates stay wall-anchored: the clock still ticks at the same Hz.
  EXPECT_DOUBLE_EQ(config.os.default_clock_hz, reference.default_clock_hz);
}

TEST(FleetRecords, LineRoundTripsBitExactAndRejectsCorruption) {
  const Fleet fleet(TwoCohortSpec());
  const FleetCell cell = fleet.CellAt(3);
  WarmCellRunner runner;
  const LabConfig config = fleet.CellConfig(cell);
  const LabReport report = runner.Run(config);

  FleetCellRecord record;
  record.index = cell.index;
  record.cohort = cell.cohort;
  record.seed = cell.seed;
  record.samples = report.samples;
  record.stress_hours = 0.25;
  record.speed_mhz = cell.speed_mhz;
  record.thread = report.thread;
  record.dpc_interrupt = report.dpc_interrupt;
  record.anatomy_stage_cycles[2] = 12345;

  const std::string line = FleetRecordToLine(record);
  FleetCellRecord parsed;
  std::string error;
  ASSERT_TRUE(FleetRecordFromLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.index, record.index);
  EXPECT_EQ(parsed.cohort, record.cohort);
  EXPECT_EQ(parsed.seed, record.seed);
  EXPECT_EQ(parsed.samples, record.samples);
  EXPECT_EQ(parsed.stress_hours, record.stress_hours);  // hexfloat: exact bits
  EXPECT_EQ(parsed.speed_mhz, record.speed_mhz);
  EXPECT_EQ(parsed.anatomy_stage_cycles[2], 12345u);
  EXPECT_EQ(parsed.thread.ToCsv(), record.thread.ToCsv());
  EXPECT_EQ(parsed.thread.mean_ms(), record.thread.mean_ms());
  EXPECT_EQ(parsed.dpc_interrupt.ToCsv(), record.dpc_interrupt.ToCsv());

  // A flipped payload byte fails the checksum, a truncated line fails parse.
  std::string corrupt = line;
  corrupt[line.size() / 2] ^= 1;
  EXPECT_FALSE(FleetRecordFromLine(corrupt, &parsed, &error));
  EXPECT_FALSE(FleetRecordFromLine(line.substr(0, line.size() - 20), &parsed, &error));
}

TEST(FleetRecords, RecordVolumeIsPinned) {
  // Exact bytes of one production record line: cell 0 of a screening-shaped
  // cohort (8 kHz PIT, >= 1000 samples, sketch on). Any change to what a
  // record carries, or how it is spelled, shows up here as a deliberate diff.
  FleetSpec spec;
  std::string error;
  ASSERT_TRUE(FleetSpecFromJson(
      R"({"name": "fleet_screen", "master_seed": 1999, "cohorts": [
           {"name": "nt4-office-web", "os": "nt4", "workloads": ["office", "web"],
            "count": 100, "stress_minutes": 0.0066666666666666671,
            "warmup_seconds": 0.25, "pit_hz": 8000, "speed_mhz": [150, 450],
            "sketch": true}]})",
      &spec, &error))
      << error;
  const Fleet fleet(std::move(spec));
  FleetShardOptions options;
  options.out_path = testutil::TempFileFor("shard.jsonl");
  options.cell_hi = 1;
  ASSERT_TRUE(RunFleetShard(fleet, options).ok());

  std::ifstream in(options.out_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  FleetCellRecord record;
  ASSERT_TRUE(FleetRecordFromLine(line, &record, &error)) << error;
  EXPECT_EQ(record.index, 0u);
  EXPECT_GE(record.samples, 1000u);
  const std::string encoded = FleetRecordToLine(record);
  EXPECT_EQ(encoded, line);
  EXPECT_EQ(encoded.size(), 9480u);
}

// A v1 record (its sketch in hexfloat) is refused by version: a strict merge
// stops on it with a version message, and a resumed shard re-runs its cell,
// after which the merge gives the fleet.json of a fresh run.
TEST(FleetRecords, OlderPayloadVersionIsRejectedAndItsCellReRuns) {
  FleetSpec spec = TwoCohortSpec();
  spec.cohorts[0].sketch = true;
  const Fleet fleet(std::move(spec));
  FleetShardOptions options;
  options.out_path = testutil::TempFileFor("shard.jsonl");
  ASSERT_TRUE(RunFleetShard(fleet, options).ok());
  FleetReport fresh;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, {options.out_path}, &fresh, &error)) << error;

  std::vector<std::string> lines;
  {
    std::ifstream in(options.out_path);
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line);
    }
  }
  ASSERT_EQ(lines.size(), fleet.cell_count());
  // Cell 2 written as payload v1 wrote it: version 1, AppendSketch's spelling.
  FleetCellRecord record;
  ASSERT_TRUE(FleetRecordFromLine(lines[2], &record, &error)) << error;
  RecordLine parsed;
  ASSERT_TRUE(ParseRecordLine(lines[2], &parsed, &error)) << error;
  std::string payload = parsed.payload;
  const std::size_t version = payload.find("\"version\": 2,");
  const std::size_t sketch = payload.find("\"thread_sketch\": ");
  ASSERT_NE(version, std::string::npos);
  ASSERT_NE(sketch, std::string::npos);
  payload.resize(sketch);
  report_json::AppendSketch(payload, "thread_sketch", record.thread_sketch);
  payload += '}';
  payload.replace(version, 13, "\"version\": 1,");
  lines[2] = RecordLineText(parsed.cell, parsed.seed, parsed.spec, payload);
  {
    std::ofstream out(options.out_path, std::ios::trunc);
    for (const std::string& line : lines) {
      out << line << '\n';
    }
  }

  FleetReport report;
  EXPECT_FALSE(MergeFleetShards(fleet, {options.out_path}, &report, &error));
  EXPECT_NE(error.find("cell 2"), std::string::npos) << error;
  EXPECT_NE(error.find("v1; this build reads v2 only"), std::string::npos) << error;

  const FleetShardResult resumed = RunFleetShard(fleet, options);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.cells_executed, 1u);
  EXPECT_EQ(resumed.cells_restored, fleet.cell_count() - 1);
  ASSERT_EQ(resumed.warnings.size(), 1u);
  EXPECT_NE(resumed.warnings[0].find("cell 2: record rejected"), std::string::npos)
      << resumed.warnings[0];
  ASSERT_TRUE(MergeFleetShards(fleet, {options.out_path}, &report, &error)) << error;
  EXPECT_EQ(FleetReportToJson(report), FleetReportToJson(fresh));
}

TEST(EngineReset, ResetEngineBehavesLikeFresh) {
  // Schedule + cancel a pile of events (growing the pool and the calendar),
  // reset, then verify the calendar audits clean and a scripted run fires in
  // the same order as a fresh engine.
  sim::Engine engine;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 2000; ++i) {
    handles.push_back(engine.ScheduleAt(
        static_cast<sim::Cycles>(1000 + 77777ull * i), [] {}));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    handles[i].Cancel();
  }
  engine.RunUntil(50'000'000);
  engine.Reset();
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.events_pending(), 0u);
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  EXPECT_TRUE(violations.empty());
  for (const sim::EventHandle& handle : handles) {
    EXPECT_FALSE(handle.pending());  // stale generations read as dead
  }

  // Same script on the reset engine and on a brand-new one: identical order.
  std::vector<int> reset_order;
  std::vector<int> fresh_order;
  const auto script = [](sim::Engine& e, std::vector<int>* order) {
    for (int i = 0; i < 64; ++i) {
      e.ScheduleAt(static_cast<sim::Cycles>(100 + (i * 37) % 500),
                   [order, i] { order->push_back(i); });
    }
    e.RunUntil(10'000);
  };
  script(engine, &reset_order);
  sim::Engine fresh;
  script(fresh, &fresh_order);
  EXPECT_EQ(reset_order, fresh_order);
}

TEST(WarmCellRunner, WarmReuseIsBitIdenticalToFreshConstruction) {
  // The amortization guarantee: run a mixed sequence of cells (different OS,
  // workload, speed, faults) through ONE warmed runner, and the reports must
  // serialize byte-identically to fresh RunLatencyExperiment runs.
  const Fleet fleet(TwoCohortSpec());
  ASSERT_TRUE(fleet.error().empty());
  WarmCellRunner runner;
  for (std::uint64_t i = 0; i < fleet.cell_count(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const FleetCell cell = fleet.CellAt(i);
    const LabConfig config = fleet.CellConfig(cell);
    const LabReport warm = runner.Run(config);
    const LabReport fresh = RunLatencyExperiment(config);
    // Golden checksum over the lossless artifact — any drifting bit anywhere
    // in any histogram or counter fails this.
    EXPECT_EQ(Fnv1a64(ReportToJson(warm)), Fnv1a64(ReportToJson(fresh)));
  }
  EXPECT_EQ(runner.constructions(), 1u);
  EXPECT_EQ(runner.resets(), fleet.cell_count() - 1);
}

}  // namespace
}  // namespace wdmlat::lab
