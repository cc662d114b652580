// Chaos-proofed degraded merges: corrupt shard streams (mid-line truncation,
// checksum bit-rot, duplicate and out-of-order records, missing cells) must
// quarantine the damaged cell with the right taxonomy instead of sinking the
// merge, the coverage manifest must conserve planned = completed +
// quarantined, and the degraded merge must stay a deterministic fold —
// byte-identical on re-run over the same damaged artifacts. Strict mode
// keeps its PR 8 contract: the first unexpected anomaly is fatal.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/lab/fleet.h"
#include "src/runtime/thread_pool.h"
#include "tests/temp_path.h"

namespace wdmlat::lab {
namespace {

FleetSpec SmallPopulation() {
  FleetSpec spec;
  spec.name = "chaos";
  spec.master_seed = 1999;
  FleetCohort nt;
  nt.name = "nt-office";
  nt.os = "nt4";
  nt.workloads = {"office"};
  nt.count = 5;
  nt.stress_minutes = 0.002;
  nt.warmup_seconds = 0.1;
  FleetCohort w98;
  w98.name = "98-games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.count = 4;
  w98.stress_minutes = 0.002;
  w98.warmup_seconds = 0.1;
  spec.cohorts = {nt, w98};
  return spec;
}

using testutil::TempDirFor;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) {
    out << line << "\n";
  }
}

// Run the population split two ways and return the shard paths.
std::vector<std::string> RunTwoShards(const Fleet& fleet, const std::string& dir) {
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < 2; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = 2;
    options.out_path = FleetShardPath(dir, k, 2);
    const FleetShardResult result = RunFleetShard(fleet, options);
    EXPECT_TRUE(result.ok()) << result.error;
    paths.push_back(options.out_path);
  }
  return paths;
}

// Bump one payload digit while keeping the line valid JSON: the FNV checksum
// no longer matches.
bool FlipPayloadDigit(std::string& line) {
  const std::size_t payload = line.find("\"payload\"");
  if (payload == std::string::npos) {
    return false;
  }
  for (std::size_t i = payload; i < line.size(); ++i) {
    if (line[i] >= '1' && line[i] <= '8') {
      ++line[i];
      return true;
    }
  }
  return false;
}

std::string MergedJson(const Fleet& fleet, const std::vector<std::string>& paths,
                       const FleetMergeOptions& options) {
  FleetReport report;
  std::string error;
  EXPECT_TRUE(MergeFleetShards(fleet, paths, options, &report, &error)) << error;
  return FleetReportToJson(report);
}

TEST(FleetChaosMerge, TruncatedRecordQuarantinesInDegradedModeOnly) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_truncate");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);

  // Tear the last record of shard 0 mid-line — the shape a SIGKILL between
  // write() calls leaves behind.
  std::vector<std::string> lines = ReadLines(paths[0]);
  ASSERT_EQ(lines.size(), 5u);  // cells 0,2,4,6,8
  const std::uint64_t torn_cell = 8;
  lines.back() = lines.back().substr(0, lines.back().size() / 2);
  WriteLines(paths[0], lines);

  // Strict mode: fatal, names the cell.
  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_NE(error.find("cell 8"), std::string::npos) << error;

  // Degraded mode: the cell is quarantined as corrupt, everything else folds
  // and the coverage manifest conserves the plan.
  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  EXPECT_EQ(report.cells_completed, 8u);
  EXPECT_EQ(report.cells_quarantined, 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].cell, torn_cell);
  EXPECT_EQ(report.quarantine[0].taxonomy, "corrupt_record");
  EXPECT_EQ(report.quarantine[0].seed, fleet.CellAt(torn_cell).seed);
  EXPECT_FALSE(report.merge_warnings.empty());
  for (const FleetCohortReport& cohort : report.cohorts) {
    EXPECT_EQ(cohort.cells + cohort.quarantined, cohort.planned) << cohort.name;
  }

  // The degraded merge is still a deterministic fold: byte-identical on
  // re-run over the same damaged artifacts.
  EXPECT_EQ(MergedJson(fleet, paths, degraded), MergedJson(fleet, paths, degraded));
}

TEST(FleetChaosMerge, ChecksumMismatchGetsItsOwnTaxonomy) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_bitrot");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);

  // Flip one payload digit of shard 1's second record (cell 3).
  std::vector<std::string> lines = ReadLines(paths[1]);
  ASSERT_EQ(lines.size(), 4u);  // cells 1,3,5,7
  ASSERT_TRUE(FlipPayloadDigit(lines[1]));
  WriteLines(paths[1], lines);

  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  FleetReport report;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].cell, 3u);
  EXPECT_EQ(report.quarantine[0].taxonomy, "checksum_mismatch");
  EXPECT_EQ(report.cells_completed, 8u);
}

TEST(FleetChaosMerge, DuplicateRecordIsDroppedAsStaleNotQuarantined) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_duplicate");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);
  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  const std::string baseline = MergedJson(fleet, paths, degraded);

  // Duplicate shard 0's first record mid-stream (cell 0 appears twice before
  // cell 2) — the shape a stitch bug or replayed append would leave.
  std::vector<std::string> lines = ReadLines(paths[0]);
  lines.insert(lines.begin() + 1, lines[0]);
  WriteLines(paths[0], lines);

  // Strict mode: fatal out-of-order.
  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;

  // Degraded mode: the stale duplicate is dropped with a warning; nothing is
  // quarantined, every cell folds, and the report is byte-identical to the
  // undamaged merge (the duplicate contributed nothing).
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  EXPECT_EQ(report.cells_quarantined, 0u);
  EXPECT_EQ(report.cells_completed, 9u);
  ASSERT_FALSE(report.merge_warnings.empty());
  EXPECT_NE(report.merge_warnings[0].find("stale record"), std::string::npos);
  EXPECT_EQ(FleetReportToJson(report), baseline);
}

TEST(FleetChaosMerge, SwappedRecordsQuarantineTheGapAndDropTheStray) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_swap");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);

  // Swap shard 1's records for cells 3 and 5.
  std::vector<std::string> lines = ReadLines(paths[1]);
  ASSERT_EQ(lines.size(), 4u);
  std::swap(lines[1], lines[2]);
  WriteLines(paths[1], lines);

  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;

  // Degraded: at cell 3 the stream offers cell 5, so 3 becomes a
  // missing_record gap; 5 folds on time; 3's stray line later drops stale.
  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].cell, 3u);
  EXPECT_EQ(report.quarantine[0].taxonomy, "missing_record");
  EXPECT_EQ(report.cells_completed, 8u);
  bool saw_stale = false;
  for (const std::string& warning : report.merge_warnings) {
    saw_stale = saw_stale || warning.find("stale record for cell 3") != std::string::npos;
  }
  EXPECT_TRUE(saw_stale);
}

TEST(FleetChaosMerge, ExpectedQuarantineIsAnAcceptedGapInBothModes) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_expected");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);

  // Remove cell 4's record entirely, then declare it quarantined up front —
  // the supervisor's manifest arriving at the merge.
  std::vector<std::string> lines = ReadLines(paths[0]);
  lines.erase(lines.begin() + 2);  // shard 0 holds cells 0,2,4,6,8
  WriteLines(paths[0], lines);

  FleetQuarantineEntry entry;
  entry.cell = 4;
  entry.seed = fleet.CellAt(4).seed;
  entry.taxonomy = "exception";
  entry.attempts = 3;
  FleetMergeOptions options;
  options.quarantined = {entry};
  options.allow_degraded = false;  // even strict mode accepts a declared gap

  FleetReport report;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, options, &report, &error)) << error;
  EXPECT_EQ(report.cells_completed, 8u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].taxonomy, "exception");
  EXPECT_EQ(report.quarantine[0].attempts, 3);
  EXPECT_EQ(report.quarantine[0].cohort, 0u);  // cell 4 is in the first cohort
  EXPECT_EQ(report.cohorts[0].quarantined, 1u);
  EXPECT_EQ(report.cohorts[0].cells + report.cohorts[0].quarantined,
            report.cohorts[0].planned);

  // An undeclared gap still fails strict mode (the stream offers cell 6
  // where 4 should be, so strict reports the misalignment).
  options.quarantined.clear();
  EXPECT_FALSE(MergeFleetShards(fleet, paths, options, &report, &error));
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;
}

TEST(FleetChaosMerge, QuarantineManifestRoundTrips) {
  const std::string dir = TempDirFor("chaos_manifest");
  const std::string path = dir + "/quarantine.jsonl";
  std::vector<FleetQuarantineEntry> entries(2);
  entries[0].cell = 3;
  entries[0].seed = 0xDEADBEEFull;
  entries[0].taxonomy = "exception";
  entries[0].attempts = 3;
  entries[1].cell = 17;
  entries[1].seed = 42;
  entries[1].taxonomy = "timeout";
  entries[1].attempts = 2;

  std::string error;
  ASSERT_TRUE(SaveFleetQuarantine(path, entries, &error)) << error;
  std::vector<FleetQuarantineEntry> loaded;
  ASSERT_TRUE(LoadFleetQuarantine(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].cell, 3u);
  EXPECT_EQ(loaded[0].seed, 0xDEADBEEFull);
  EXPECT_EQ(loaded[0].taxonomy, "exception");
  EXPECT_EQ(loaded[0].attempts, 3);
  EXPECT_EQ(loaded[1].cell, 17u);
  EXPECT_EQ(loaded[1].taxonomy, "timeout");

  // A torn manifest line is a loud load error, not silent skipping.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"cell\": \"99\", \"seed";
  }
  EXPECT_FALSE(LoadFleetQuarantine(path, &loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FleetChaosMerge, QuarantineManifestRejectsANegativeCell) {
  const std::string path = TempDirFor("chaos_manifest_negative") + "/quarantine.jsonl";
  {
    std::ofstream out(path);
    out << "{\"cell\": \"-1\", \"seed\": \"42\", \"taxonomy\": \"timeout\", "
           "\"attempts\": 2}\n";
  }
  std::vector<FleetQuarantineEntry> loaded;
  std::string error;
  EXPECT_FALSE(LoadFleetQuarantine(path, &loaded, &error));
  EXPECT_NE(error.find("\"cell\""), std::string::npos) << error;
}

TEST(FleetChaosMerge, WindowedProbeRunsAccumulateIntoTheFullShard) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();

  // Baseline: shard 0 in one go.
  const std::string full_dir = TempDirFor("chaos_window_full");
  FleetShardOptions full;
  full.shard = 0;
  full.shards = 2;
  full.out_path = FleetShardPath(full_dir, 0, 2);
  ASSERT_TRUE(RunFleetShard(fleet, full).ok());

  // Windowed probes: [0,4) then the rest. The second run must preserve the
  // first window's verified records (probe work accumulates) and finish with
  // a byte-identical shard file.
  const std::string dir = TempDirFor("chaos_window");
  FleetShardOptions probe = full;
  probe.out_path = FleetShardPath(dir, 0, 2);
  probe.cell_hi = 4;
  FleetShardResult result = RunFleetShard(fleet, probe);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.cells_total, 2u);  // cells 0 and 2
  EXPECT_EQ(result.cells_executed, 2u);

  probe.cell_hi = 0;  // full window
  result = RunFleetShard(fleet, probe);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.cells_restored, 2u);
  EXPECT_EQ(result.cells_executed, 3u);
  EXPECT_EQ(ReadLines(probe.out_path), ReadLines(full.out_path));
}

TEST(FleetChaosMerge, SkipCellsAreExcludedFromTheShardPlan) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_skip");
  FleetShardOptions options;
  options.shard = 0;
  options.shards = 2;
  options.out_path = FleetShardPath(dir, 0, 2);
  options.skip_cells = {4};
  const FleetShardResult result = RunFleetShard(fleet, options);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.cells_total, 4u);  // 0,2,6,8 — 4 is quarantined
  EXPECT_EQ(result.cells_executed, 4u);
  const std::vector<std::string> lines = ReadLines(options.out_path);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.find("\"cell\": \"4\""), std::string::npos);
  }
}

// --- Decode-ahead boundaries --------------------------------------------------
//
// MergeFleetShards decodes up to two records per hardware thread ahead of the
// serial fold. These shards hold several such windows, and the damage sits
// past the first one, where the fold consumes records decoded ahead. Every
// outcome must be the one a line-by-line serial merge gives.

std::uint64_t DecodeWindow() {
  return 2 * static_cast<std::uint64_t>(runtime::ThreadPool::HardwareThreads());
}

// SmallPopulation grown to `cells` cells. Its records are made up, not
// simulated: the merge reads nothing but the record lines.
FleetSpec WindowedPopulation(std::uint64_t cells) {
  FleetSpec spec = SmallPopulation();
  spec.name = "decode-ahead";
  spec.cohorts[0].count = cells / 2;
  spec.cohorts[1].count = cells - cells / 2;
  return spec;
}

FleetCellRecord MadeUpRecord(const Fleet& fleet, std::uint64_t index) {
  const FleetCell cell = fleet.CellAt(index);
  FleetCellRecord record;
  record.index = index;
  record.cohort = cell.cohort;
  record.seed = cell.seed;
  record.spec = fleet.fingerprint();
  record.speed_mhz = cell.speed_mhz;
  record.samples = 300;
  record.stress_hours = 0.001 * static_cast<double>(1 + index % 7);
  std::uint64_t state = cell.seed;
  for (std::uint64_t i = 0; i < record.samples; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double us = 5.0 + static_cast<double>(state >> 40) / 1024.0;
    record.thread.RecordUs(us);
    record.dpc_interrupt.RecordUs(us / 4.0);
    record.thread_sketch.RecordUs(us);
  }
  return record;
}

std::vector<std::string> WriteMadeUpShards(const Fleet& fleet, const std::string& dir,
                                           std::size_t shards) {
  std::vector<std::vector<std::string>> lines(shards);
  for (std::uint64_t i = 0; i < fleet.cell_count(); ++i) {
    lines[i % shards].push_back(FleetRecordToLine(MadeUpRecord(fleet, i)));
  }
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < shards; ++k) {
    paths.push_back(FleetShardPath(dir, k, shards));
    WriteLines(paths.back(), lines[k]);
  }
  return paths;
}

// Cells whose records are damaged, all past the first decode window. The
// three sit on different shards of a 3-shard split and are not adjacent in
// one stream: a gap takes its taxonomy from the last line dropped before the
// next good record, so two damaged lines in a row would name one gap twice.
struct Damage {
  std::uint64_t torn = 0;      // record cut mid-line
  std::uint64_t flipped = 0;   // one payload digit changed
  std::uint64_t repeated = 0;  // record written twice in a row
};

Damage PastTheFirstWindow() {
  const std::uint64_t window = DecodeWindow();
  return Damage{window + 2, window + 6, window + 10};
}

std::uint64_t WindowedCells() { return 3 * DecodeWindow() + 12; }

// Rewrite the shard file that holds `cell`: `change` gets that shard's lines
// and the cell's line number (cell c is line c / shards of shard c % shards).
template <typename Change>
void EditRecord(const std::vector<std::string>& paths, std::uint64_t cell, const Change& change) {
  const std::string& path = paths[cell % paths.size()];
  std::vector<std::string> lines = ReadLines(path);
  change(lines, cell / paths.size());
  WriteLines(path, lines);
}

// Cut the record of `cell` mid-line; returns the torn line.
std::string TearRecord(const std::vector<std::string>& paths, std::uint64_t cell) {
  std::string torn;
  EditRecord(paths, cell, [&](std::vector<std::string>& lines, std::size_t at) {
    lines[at] = lines[at].substr(0, lines[at].size() / 2);
    torn = lines[at];
  });
  return torn;
}

// Change one payload digit of the record of `cell`; returns the line.
std::string FlipRecord(const std::vector<std::string>& paths, std::uint64_t cell) {
  std::string flipped;
  EditRecord(paths, cell, [&](std::vector<std::string>& lines, std::size_t at) {
    EXPECT_TRUE(FlipPayloadDigit(lines[at]));
    flipped = lines[at];
  });
  return flipped;
}

// Write the record of `cell` twice in a row.
void RepeatRecord(const std::vector<std::string>& paths, std::uint64_t cell) {
  EditRecord(paths, cell, [](std::vector<std::string>& lines, std::size_t at) {
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at) + 1, lines[at]);
  });
}

std::string ParseError(const std::string& line) {
  FleetCellRecord record;
  std::string error;
  EXPECT_FALSE(FleetRecordFromLine(line, &record, &error));
  return error;
}

TEST(FleetChaosMerge, DecodeAheadStrictModeFailsAtTheFirstDamagedCell) {
  const Fleet fleet(WindowedPopulation(WindowedCells()));
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const Damage damage = PastTheFirstWindow();
  const std::string t = std::to_string(damage.torn);
  const std::string f = std::to_string(damage.flipped);
  const std::string r = std::to_string(damage.repeated);
  const std::string dir = TempDirFor("chaos_window_strict");
  FleetReport report;
  std::string error;

  std::vector<std::string> paths = WriteMadeUpShards(fleet, dir, 1);
  const std::string torn = TearRecord(paths, damage.torn);
  FlipRecord(paths, damage.flipped);
  RepeatRecord(paths, damage.repeated);
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_EQ(error, "cell " + t + " (shard 0): " + ParseError(torn));

  paths = WriteMadeUpShards(fleet, dir, 1);
  const std::string flipped = FlipRecord(paths, damage.flipped);
  RepeatRecord(paths, damage.repeated);
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_EQ(error, "cell " + f + " (shard 0): " + ParseError(flipped));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;

  paths = WriteMadeUpShards(fleet, dir, 1);
  RepeatRecord(paths, damage.repeated);
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_EQ(error, "cell " + std::to_string(damage.repeated + 1) +
                       " (shard 0): record is for cell " + r + " — shard file out of order");
}

TEST(FleetChaosMerge, DecodeAheadDegradedModeKeepsTheSerialVerdicts) {
  const Fleet fleet(WindowedPopulation(WindowedCells()));
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const Damage damage = PastTheFirstWindow();
  const std::string t = std::to_string(damage.torn);
  const std::string f = std::to_string(damage.flipped);
  const std::string r = std::to_string(damage.repeated);
  const std::vector<std::string> paths =
      WriteMadeUpShards(fleet, TempDirFor("chaos_window_degraded"), 1);
  const std::string torn = TearRecord(paths, damage.torn);
  const std::string flipped = FlipRecord(paths, damage.flipped);
  RepeatRecord(paths, damage.repeated);

  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  FleetReport report;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  EXPECT_EQ(report.cells_completed, fleet.cell_count() - 2);
  ASSERT_EQ(report.quarantine.size(), 2u);
  EXPECT_EQ(report.quarantine[0].cell, damage.torn);
  EXPECT_EQ(report.quarantine[0].taxonomy, "corrupt_record");
  EXPECT_EQ(report.quarantine[0].seed, fleet.CellAt(damage.torn).seed);
  EXPECT_EQ(report.quarantine[0].cohort, fleet.CellAt(damage.torn).cohort);
  EXPECT_EQ(report.quarantine[1].cell, damage.flipped);
  EXPECT_EQ(report.quarantine[1].taxonomy, "checksum_mismatch");
  EXPECT_EQ(report.quarantine[1].seed, fleet.CellAt(damage.flipped).seed);
  EXPECT_EQ(report.quarantine[1].cohort, fleet.CellAt(damage.flipped).cohort);
  const std::vector<std::string> expected_warnings = {
      "shard 0: dropped line (" + ParseError(torn) + ")",
      "cell " + t + " (shard 0) quarantined by degraded merge: corrupt_record",
      "shard 0: dropped line (" + ParseError(flipped) + ")",
      "cell " + f + " (shard 0) quarantined by degraded merge: checksum_mismatch",
      "shard 0: stale record for cell " + r + " (duplicate or out of order); dropped",
  };
  EXPECT_EQ(report.merge_warnings, expected_warnings);
  for (const FleetCohortReport& cohort : report.cohorts) {
    EXPECT_EQ(cohort.cells + cohort.quarantined, cohort.planned) << cohort.name;
  }
  EXPECT_EQ(MergedJson(fleet, paths, degraded), FleetReportToJson(report));
}

TEST(FleetChaosMerge, DecodeAheadThreeShardsMatchOneShardByteForByte) {
  const Fleet fleet(WindowedPopulation(WindowedCells()));
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const Damage damage = PastTheFirstWindow();
  const std::vector<std::string> one = WriteMadeUpShards(fleet, TempDirFor("chaos_window_1"), 1);
  const std::vector<std::string> three =
      WriteMadeUpShards(fleet, TempDirFor("chaos_window_3"), 3);
  const FleetMergeOptions strict;
  EXPECT_EQ(MergedJson(fleet, three, strict), MergedJson(fleet, one, strict));

  for (const std::vector<std::string>* paths : {&one, &three}) {
    TearRecord(*paths, damage.torn);
    FlipRecord(*paths, damage.flipped);
    RepeatRecord(*paths, damage.repeated);
  }
  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  const std::string merged_one = MergedJson(fleet, one, degraded);
  EXPECT_NE(merged_one.find("checksum_mismatch"), std::string::npos);
  EXPECT_EQ(MergedJson(fleet, three, degraded), merged_one);
}

}  // namespace
}  // namespace wdmlat::lab
