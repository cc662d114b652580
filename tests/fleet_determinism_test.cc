// The fleet tentpole guarantee: the merged population report is bit-identical
// at any --shards/--jobs split, and across a killed-and-resumed shard — the
// grid-order merge folds cell records in global index order no matter how
// they were produced. Records are bound to their spec: an edited spec can
// neither resume from nor merge another spec's shard files.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/lab/fleet.h"
#include "src/lab/record_log.h"
#include "src/lab/report_io.h"
#include "tests/temp_path.h"

namespace wdmlat::lab {
namespace {

FleetSpec SmallPopulation() {
  FleetSpec spec;
  spec.name = "determinism";
  spec.master_seed = 1999;
  FleetCohort nt;
  nt.name = "nt-mixed";
  nt.os = "nt4";
  nt.workloads = {"office", "web"};
  nt.workload_weights = {2.0, 1.0};
  nt.count = 7;
  nt.stress_minutes = 0.002;
  nt.warmup_seconds = 0.1;
  nt.pit_hz = 4000.0;  // the screening knob must be shard/jobs-invariant too
  nt.speed_mhz_lo = 150.0;
  nt.speed_mhz_hi = 450.0;
  FleetCohort w98;
  w98.name = "98-games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.count = 6;
  w98.stress_minutes = 0.002;
  w98.warmup_seconds = 0.1;
  w98.fault_plan = "irq_storm";
  w98.fault_prob = 0.4;
  w98.sketch = true;
  spec.cohorts = {nt, w98};
  return spec;
}

using testutil::TempDirFor;

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Run the whole population split `shards` ways at `jobs` threads per shard
// and return the serialized merged report.
std::string RunAndMerge(const Fleet& fleet, const std::string& dir, std::size_t shards,
                        int jobs) {
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < shards; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.jobs = jobs;
    options.out_path = FleetShardPath(dir, k, shards);
    const FleetShardResult result = RunFleetShard(fleet, options);
    EXPECT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.cells_restored, 0u);
    paths.push_back(options.out_path);
  }
  FleetReport report;
  std::string error;
  EXPECT_TRUE(MergeFleetShards(fleet, paths, &report, &error)) << error;
  return FleetReportToJson(report);
}

TEST(FleetDeterminism, MergedReportBitIdenticalAcrossShardAndJobCounts) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();

  const std::string baseline =
      RunAndMerge(fleet, TempDirFor("fleet_s1_j1"), 1, 1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_NE(baseline.find("\"determinism\""), std::string::npos);

  const struct {
    std::size_t shards;
    int jobs;
  } grid[] = {{1, 4}, {3, 1}, {3, 4}, {8, 1}, {8, 4}};
  for (const auto& point : grid) {
    SCOPED_TRACE("shards=" + std::to_string(point.shards) +
                 " jobs=" + std::to_string(point.jobs));
    const std::string dir = TempDirFor(
        ("fleet_s" + std::to_string(point.shards) + "_j" + std::to_string(point.jobs))
            .c_str());
    EXPECT_EQ(baseline, RunAndMerge(fleet, dir, point.shards, point.jobs));
  }
}

TEST(FleetDeterminism, KilledShardResumesToBitIdenticalReport) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty());
  const std::string baseline =
      RunAndMerge(fleet, TempDirFor("fleet_resume_base"), 1, 1);

  const std::string dir = TempDirFor("fleet_resume");
  const std::size_t shards = 3;
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < shards; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.out_path = FleetShardPath(dir, k, shards);
    ASSERT_TRUE(RunFleetShard(fleet, options).ok());
    paths.push_back(options.out_path);
  }

  // Simulate two kinds of death: shard 0 died mid-write (truncated file, last
  // line torn), shard 1 died before writing anything (file gone).
  {
    std::ifstream in(paths[0], std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 100u);
    std::ofstream out(paths[0], std::ios::trunc | std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  std::filesystem::remove(paths[1]);

  // Resume: re-run every shard with the same options. Intact records are
  // verified and kept (shard 2 executes nothing), torn/missing cells re-run.
  for (std::size_t k = 0; k < shards; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.out_path = paths[k];
    const FleetShardResult result = RunFleetShard(fleet, options);
    ASSERT_TRUE(result.ok()) << result.error;
    if (k == 2) {
      EXPECT_EQ(result.cells_executed, 0u);
      EXPECT_EQ(result.cells_restored, result.cells_total);
    } else {
      EXPECT_GT(result.cells_executed, 0u);
    }
  }

  FleetReport report;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, &report, &error)) << error;
  EXPECT_EQ(baseline, FleetReportToJson(report));
}

TEST(FleetDeterminism, MergeFailsLoudlyOnIncompleteShard) {
  const Fleet fleet(SmallPopulation());
  const std::string dir = TempDirFor("fleet_incomplete");
  const std::size_t shards = 2;
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < shards; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.out_path = FleetShardPath(dir, k, shards);
    ASSERT_TRUE(RunFleetShard(fleet, options).ok());
    paths.push_back(options.out_path);
  }
  // Chop shard 1 to its first line: the merge must fail at the first missing
  // cell, not silently fold a partial population.
  {
    std::ifstream in(paths[1], std::ios::binary);
    std::string first_line;
    std::getline(in, first_line);
    in.close();
    std::ofstream out(paths[1], std::ios::trunc | std::ios::binary);
    out << first_line << "\n";
  }
  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_NE(error.find("missing record"), std::string::npos) << error;

  // Wrong shard-count layout must also fail (cell/stream mismatch), not
  // silently mis-fold.
  FleetShardOptions solo;
  solo.shards = 1;
  solo.out_path = FleetShardPath(dir, 0, 1);
  ASSERT_TRUE(RunFleetShard(fleet, solo).ok());
  EXPECT_FALSE(MergeFleetShards(fleet, {paths[0]}, &report, &error));
}

// Seeds depend only on (master, cohort, member), so a spec edited in place
// derives the same seeds: only the spec fingerprint in every record can tell
// its cells apart from the old spec's.
FleetSpec EditedPopulation() {
  FleetSpec spec = SmallPopulation();
  spec.cohorts[0].stress_minutes *= 10.0;
  return spec;
}

TEST(FleetDeterminism, EditedSpecRefusesToResumeAndLeavesShardUntouched) {
  const Fleet fleet(SmallPopulation());
  const Fleet edited(EditedPopulation());
  ASSERT_TRUE(edited.error().empty()) << edited.error();
  ASSERT_NE(fleet.fingerprint(), edited.fingerprint());

  const std::string dir = TempDirFor("fleet_edited");
  FleetShardOptions options;
  options.out_path = FleetShardPath(dir, 0, 1);
  options.cell_hi = 5;  // a partial shard: the edited run would have work to do
  ASSERT_TRUE(RunFleetShard(fleet, options).ok());
  const std::string before = ReadBytes(options.out_path);
  ASSERT_FALSE(before.empty());

  options.cell_hi = 0;
  const FleetShardResult result = RunFleetShard(edited, options);
  EXPECT_NE(result.error.find("spec"), std::string::npos) << result.error;
  EXPECT_EQ(result.cells_restored, 0u);
  EXPECT_EQ(result.cells_executed, 0u);
  EXPECT_EQ(ReadBytes(options.out_path), before);

  // The orchestrator's pre-flight check reaches the same verdict.
  std::string error;
  EXPECT_FALSE(CheckRecordLogSpec(options.out_path, edited.fingerprint(), &error));
  EXPECT_TRUE(CheckRecordLogSpec(options.out_path, fleet.fingerprint(), &error)) << error;
}

TEST(FleetDeterminism, MergeRefusesRecordsOfAnotherSpec) {
  const Fleet fleet(SmallPopulation());
  const Fleet edited(EditedPopulation());
  const std::string dir = TempDirFor("fleet_foreign_merge");
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < 2; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = 2;
    options.out_path = FleetShardPath(dir, k, 2);
    ASSERT_TRUE(RunFleetShard(fleet, options).ok());
    paths.push_back(options.out_path);
  }

  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(edited, paths, &report, &error));
  EXPECT_NE(error.find("spec"), std::string::npos) << error;

  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  ASSERT_TRUE(MergeFleetShards(edited, paths, degraded, &report, &error)) << error;
  EXPECT_EQ(report.cells_completed, 0u);
  EXPECT_EQ(report.cells_quarantined, edited.cell_count());
  for (const FleetQuarantineEntry& entry : report.quarantine) {
    EXPECT_EQ(entry.taxonomy, "spec_mismatch") << "cell " << entry.cell;
  }
  for (const FleetCohortReport& cohort : report.cohorts) {
    EXPECT_EQ(cohort.quarantined, cohort.planned) << cohort.name;
  }

  // The records still merge cleanly under the spec that wrote them.
  EXPECT_TRUE(MergeFleetShards(fleet, paths, &report, &error)) << error;
}

}  // namespace
}  // namespace wdmlat::lab
