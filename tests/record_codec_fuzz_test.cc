// Deterministic mutation fuzzing of the record codec's direct reader
// (report_json::Reader and its users: ParseRecordLine, FleetRecordFromLine
// and ReportFromJson). Three inputs are mutated:
//
//   * real fleet record lines, where nearly every mutant must fail the line
//     reader or the checksum;
//   * their payloads re-wrapped with RecordLineText, so the checksum passes
//     and the payload reader itself meets the damage;
//   * ReportToJson documents with episodes, anatomy and a sketch.
//
// The record lines include one whose sketch holds a value with no cycle
// count, so both sketch spellings of payload v2 (cycle counts with a
// gap-coded tail, and the hexfloat fallback) meet the mutants.
//
// Mutations are seeded (tests/json_mutator.h): bit flips, truncation,
// inserted and deleted bytes, swapped and duplicated fields, over-long digit
// runs, u64 overflow and escapes the writer never emits. Each mutant must
// either be rejected with
// an error, or decode and re-encode to its own bytes: the reader accepts one
// spelling per value. And it must never accept text that obs::ParseJson
// rejects.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/fleet.h"
#include "src/lab/record_log.h"
#include "src/lab/report_io.h"
#include "src/obs/json.h"
#include "src/workload/stress_profile.h"
#include "tests/json_mutator.h"
#include "tests/temp_path.h"

namespace wdmlat::lab {
namespace {

constexpr int kMutantsPerInput = 2500;

// Real record lines: short screening-shaped cells with the sketch and the
// anatomy on, so every field of the payload carries data.
std::vector<std::string> RealRecordLines() {
  FleetSpec spec;
  spec.name = "codec_fuzz";
  spec.master_seed = 1999;
  FleetCohort nt;
  nt.name = "nt-office";
  nt.os = "nt4";
  nt.workloads = {"office", "web"};
  nt.count = 2;
  nt.stress_minutes = 0.003;
  nt.warmup_seconds = 0.1;
  nt.pit_hz = 4000.0;
  nt.speed_mhz_lo = 150.0;
  nt.speed_mhz_hi = 450.0;
  nt.sketch = true;
  FleetCohort w98 = nt;
  w98.name = "98-games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.episode_threshold_us = 500.0;
  spec.cohorts = {nt, w98};
  const Fleet fleet(std::move(spec));
  FleetShardOptions options;
  options.out_path = testutil::TempFileFor("shard.jsonl");
  const FleetShardResult result = RunFleetShard(fleet, options);
  EXPECT_TRUE(result.ok()) << result.error;
  std::ifstream in(options.out_path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  EXPECT_EQ(lines.size(), 4u);
  return lines;
}

// RealRecordLines plus one line whose sketch also holds a value that is not
// a whole number of cycles, so it is spelled in hexfloat.
std::vector<std::string> CodecInputLines() {
  std::vector<std::string> lines = RealRecordLines();
  FleetCellRecord record;
  std::string error;
  EXPECT_TRUE(FleetRecordFromLine(lines.back(), &record, &error)) << error;
  record.thread_sketch.RecordMs(1e-9);
  lines.push_back(FleetRecordToLine(record));
  RecordLine cycles;
  RecordLine hexfloat;
  EXPECT_TRUE(ParseRecordLine(lines.front(), &cycles, &error)) << error;
  EXPECT_TRUE(ParseRecordLine(lines.back(), &hexfloat, &error)) << error;
  EXPECT_NE(cycles.payload.find("\"thread_sketch\": {\"unit\": \"cycles\""), std::string::npos);
  EXPECT_NE(hexfloat.payload.find("\"thread_sketch\": {\"levels\": [[\""), std::string::npos);
  return lines;
}

LabReport ReportWithEveryField() {
  LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::GamesStress();
  config.thread_priority = 28;
  config.stress_minutes = 0.05;
  config.warmup_seconds = 1.0;
  config.seed = 1999;
  config.obs.episode_threshold_us = 200.0;
  config.obs.max_episodes = 3;
  config.obs.anatomy = true;
  config.obs.sketch = true;
  return RunLatencyExperiment(config);
}

// What ParseJson says of text the reader accepted.
bool DomAccepts(std::string_view text) { return obs::ParseJson(text).valid; }

// Empty when the re-encoded text is the mutant; otherwise where they part,
// with a little context (the texts themselves run to tens of KB).
std::string Departure(const std::string& reencoded, const std::string& mutant) {
  if (reencoded == mutant) {
    return "";
  }
  std::size_t at = 0;
  while (at < reencoded.size() && at < mutant.size() && reencoded[at] == mutant[at]) {
    ++at;
  }
  const std::size_t from = at < 40 ? 0 : at - 40;
  return "byte " + std::to_string(at) + ": re-encoded \"" + reencoded.substr(from, 80) +
         "\" vs mutant \"" + mutant.substr(from, 80) + "\"";
}

TEST(RecordCodecFuzzTest, RecordLineMutantsAreRejectedOrReencodeExactly) {
  const std::vector<std::string> lines = CodecInputLines();
  ASSERT_FALSE(lines.empty());
  testutil::JsonMutator mutator(0x6c696e65);
  int rejected = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string mutant = mutator.Mutate(lines[i % lines.size()]);
    RecordLine parsed;
    FleetCellRecord record;
    std::string error;
    if (!ParseRecordLine(mutant, &parsed, &error)) {
      EXPECT_FALSE(error.empty());
      ++rejected;
      continue;
    }
    // The line reader accepted it: it must be a line the writer would write.
    ASSERT_EQ(Departure(RecordLineText(parsed.cell, parsed.seed, parsed.spec, parsed.payload),
                        mutant),
              "")
        << "mutant " << i;
    ASSERT_TRUE(DomAccepts(mutant)) << "mutant " << i;
    if (FleetRecordFromLine(mutant, &record, &error)) {
      ASSERT_EQ(Departure(FleetRecordToLine(record), mutant), "") << "mutant " << i;
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
  // Almost every mutant must die on the line grammar or the checksum.
  EXPECT_GT(rejected, kMutantsPerInput * 9 / 10);
}

TEST(RecordCodecFuzzTest, PayloadMutantsBehindAValidChecksumAreRejectedOrReencodeExactly) {
  const std::vector<std::string> lines = CodecInputLines();
  ASSERT_FALSE(lines.empty());
  std::vector<RecordLine> records(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    ASSERT_TRUE(ParseRecordLine(lines[i], &records[i], &error)) << error;
  }
  testutil::JsonMutator mutator(0x7061796c);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const RecordLine& base = records[i % records.size()];
    const std::string payload = mutator.Mutate(base.payload);
    const std::string line = RecordLineText(base.cell, base.seed, base.spec, payload);
    FleetCellRecord record;
    std::string error;
    if (!FleetRecordFromLine(line, &record, &error)) {
      EXPECT_FALSE(error.empty());
      EXPECT_EQ(error.find("checksum mismatch"), std::string::npos) << error;
      continue;
    }
    ++accepted;
    ASSERT_EQ(Departure(FleetRecordToLine(record), line), "") << "mutant " << i;
    ASSERT_TRUE(DomAccepts(payload)) << "mutant " << i;
  }
  // Some mutants (a changed sum or a changed sketch value) are valid
  // records; they are what proves the re-encode check runs.
  EXPECT_GT(accepted, 0);
}

TEST(RecordCodecFuzzTest, ReportMutantsAreRejectedOrReencodeExactly) {
  const LabReport report = ReportWithEveryField();
  ASSERT_FALSE(report.episodes.empty());
  ASSERT_FALSE(report.anatomy.empty());
  ASSERT_GT(report.thread_sketch.count(), 0u);
  const std::string doc = ReportToJson(report);
  testutil::JsonMutator mutator(0x7265706f);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string mutant = mutator.Mutate(doc);
    LabReport decoded;
    std::string error;
    if (!ReportFromJson(mutant, &decoded, &error)) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    ++accepted;
    ASSERT_EQ(Departure(ReportToJson(decoded), mutant), "") << "mutant " << i;
    ASSERT_TRUE(DomAccepts(mutant)) << "mutant " << i;
  }
  EXPECT_GT(accepted, 0);
}

// The cycle spelling has one form per sketch state: spellings the writer
// would not produce are rejected, each behind a valid checksum.
TEST(RecordCodecFuzzTest, CompactSketchRejectsSpellingsTheWriterWouldNotProduce) {
  const std::vector<std::string> lines = RealRecordLines();
  ASSERT_FALSE(lines.empty());
  RecordLine base;
  FleetCellRecord record;
  std::string error;
  ASSERT_TRUE(ParseRecordLine(lines[0], &base, &error)) << error;
  ASSERT_TRUE(FleetRecordFromLine(lines[0], &record, &error)) << error;
  const std::string& payload = base.payload;
  const std::size_t sketch = payload.find("\"thread_sketch\": ");
  const std::size_t tail = payload.find("\"tail\": [", sketch);
  const std::size_t second_gap = payload.find(',', tail) + 1;
  const std::size_t min = payload.find("\"min\": ", sketch);
  ASSERT_NE(sketch, std::string::npos);
  ASSERT_NE(tail, std::string::npos);
  ASSERT_NE(min, std::string::npos);
  const auto edited = [&](std::size_t at, std::size_t length, const std::string& with) {
    std::string text = payload;
    text.replace(at, length, with);
    return text;
  };
  std::string hexfloat = payload.substr(0, sketch);
  report_json::AppendSketch(hexfloat, "thread_sketch", record.thread_sketch);
  hexfloat += '}';
  const std::size_t unit = payload.find("\"unit\": \"cycles\"", sketch);
  ASSERT_NE(unit, std::string::npos);
  const std::pair<std::string, std::string> cases[] = {
      // An unsorted tail: a gap below zero.
      {edited(second_gap, 0, "-"), "expected a decimal u64"},
      // A cycle-exact sketch in hexfloat, or under another unit.
      {hexfloat, "cycle-exact values in hexfloat"},
      {edited(unit, 16, "\"unit\": \"ms\""), "expected \"{\\\"levels"},
      {edited(unit, 16, "\"unit\": \"Cycles\""), "expected \"{\\\"levels"},
      // Counts past 2^53, with a leading zero, or not a whole number.
      {edited(min + 7, payload.find(',', min) - min - 7, "9007199254740993"),
       "not its value's spelling"},
      {edited(min + 7, 0, "0"), "expected"},
      {edited(second_gap, 0, "1.5"), "expected"},
  };
  for (const auto& [text, message] : cases) {
    FleetCellRecord decoded;
    EXPECT_FALSE(FleetRecordFromLine(RecordLineText(base.cell, base.seed, base.spec, text),
                                     &decoded, &error))
        << text.substr(sketch, 200);
    EXPECT_NE(error.find(message), std::string::npos) << error;
  }
  // The writer's own spelling reads and re-encodes to itself.
  EXPECT_TRUE(FleetRecordFromLine(lines[0], &record, &error)) << error;
  EXPECT_EQ(FleetRecordToLine(record), lines[0]);
}

// Reordering keys keeps the document valid JSON, which the DOM readers
// accepted; the direct reader reads the writers' order only.
TEST(RecordCodecFuzzTest, ReorderedFieldsAreValidJsonButRejected) {
  const auto swap = [](std::string text, const std::string& a, const std::string& b) {
    const std::size_t at_a = text.find(a);
    const std::size_t at_b = text.find(b);
    EXPECT_NE(at_a, std::string::npos) << a;
    EXPECT_NE(at_b, std::string::npos) << b;
    EXPECT_LT(at_a, at_b) << a;  // so the first replace leaves at_a in place
    text.replace(at_b, b.size(), a);
    text.replace(at_a, a.size(), b);
    return text;
  };
  const std::vector<std::string> lines = RealRecordLines();
  ASSERT_FALSE(lines.empty());
  RecordLine record;
  std::string error;
  ASSERT_TRUE(ParseRecordLine(lines[0], &record, &error)) << error;

  const std::string line = swap(lines[0], "\"cell\": \"" + std::to_string(record.cell) + "\"",
                                "\"seed\": \"" + std::to_string(record.seed) + "\"");
  ASSERT_TRUE(DomAccepts(line));
  EXPECT_FALSE(ParseRecordLine(line, &record, &error));
  EXPECT_NE(error.find("expected"), std::string::npos) << error;

  const std::size_t samples = record.payload.find("\"samples\": ");
  const std::string samples_field =
      record.payload.substr(samples, record.payload.find(',', samples) - samples);
  const std::string payload = swap(record.payload, "\"cohort\": 0", samples_field);
  ASSERT_TRUE(DomAccepts(payload));
  FleetCellRecord decoded;
  EXPECT_FALSE(FleetRecordFromLine(
      RecordLineText(record.cell, record.seed, record.spec, payload), &decoded, &error));

  const LabReport report = ReportWithEveryField();
  const std::string doc = ReportToJson(report);
  const std::string reordered =
      swap(doc, "\"os_name\": \"" + report.os_name + "\"",
           "\"workload_name\": \"" + report.workload_name + "\"");
  ASSERT_TRUE(DomAccepts(reordered));
  LabReport restored;
  EXPECT_FALSE(ReportFromJson(reordered, &restored, &error));
}

TEST(RecordCodecFuzzTest, OlderReportsWithoutTrailingFieldsStillRead) {
  const LabReport report = ReportWithEveryField();
  const std::string doc = ReportToJson(report);
  const std::size_t anatomy = doc.find(",\n\"anatomy\": ");
  const std::size_t sketch = doc.find(",\n\"thread_sketch\": ");
  ASSERT_NE(anatomy, std::string::npos);
  ASSERT_NE(sketch, std::string::npos);
  const std::string without_anatomy = doc.substr(0, anatomy) + doc.substr(sketch);
  const std::string without_both = doc.substr(0, anatomy) + "}\n";
  LabReport restored;
  std::string error;
  ASSERT_TRUE(ReportFromJson(without_anatomy, &restored, &error)) << error;
  EXPECT_TRUE(restored.anatomy.empty());
  EXPECT_EQ(restored.thread_sketch.count(), report.thread_sketch.count());
  ASSERT_TRUE(ReportFromJson(without_both, &restored, &error)) << error;
  EXPECT_TRUE(restored.anatomy.empty());
  EXPECT_EQ(restored.thread_sketch.count(), 0u);
  EXPECT_EQ(restored.samples, report.samples);
}

}  // namespace
}  // namespace wdmlat::lab
