// Hardening of obs::ParseJson for hostile/corrupt input (record logs, fault
// plans, artifacts): duplicate-key rejection, double-overflow rejection,
// depth limiting, and precise line:column error positions. LintJson stays
// deliberately lenient — it validates this repo's own exporters. Integer
// fields go through the checked obs::ReadInteger, so a fleet spec or plan
// with a fractional, negative or huge count fails at parse time.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "src/fault/plan_json.h"
#include "src/lab/fleet.h"
#include "src/obs/json.h"

namespace wdmlat::obs {
namespace {

TEST(JsonHardeningTest, DuplicateObjectKeysRejectedWithPosition) {
  const std::string doc = "{\"a\": 1, \"b\": 2, \"a\": 3}";
  const JsonParseResult parsed = ParseJson(doc);
  ASSERT_FALSE(parsed.valid);
  EXPECT_NE(parsed.error.find("duplicate object key \"a\""), std::string::npos);
  // The position points at the offending (second) key, not the end.
  EXPECT_EQ(parsed.error_line, 1u);
  EXPECT_EQ(parsed.error_offset, doc.find("\"a\": 3"));

  // LintJson intentionally still accepts it (own-exporter validation only).
  EXPECT_TRUE(LintJson(doc).valid);
}

// String escapes decode to the exact bytes they stand for: a record payload
// is JSON text carried inside a JSON string, and its checksum covers the
// decoded bytes.
TEST(JsonHardeningTest, StringEscapesDecodeExactly) {
  const JsonParseResult parsed =
      ParseJson(R"({"s": "a\nb\tc\r\"q\"\\\/\b\f\u0041\u00e9\u20ac\u0001"})");
  ASSERT_TRUE(parsed.valid) << parsed.error;
  EXPECT_EQ(parsed.value.StringOr("s", ""),
            "a\nb\tc\r\"q\"\\/\b\fA\xc3\xa9\xe2\x82\xac\x01");
  EXPECT_FALSE(ParseJson(R"({"s": "\u00g1"})").valid);
}

TEST(JsonHardeningTest, NestedDuplicatesAlsoRejected) {
  EXPECT_FALSE(ParseJson("{\"outer\": {\"k\": 1, \"k\": 2}}").valid);
  EXPECT_FALSE(ParseJson("[{\"k\": 1, \"k\": 2}]").valid);
  // Same key at different depths is fine.
  EXPECT_TRUE(ParseJson("{\"k\": {\"k\": 1}}").valid);
}

TEST(JsonHardeningTest, NumberOverflowRejected) {
  const JsonParseResult overflow = ParseJson("{\"x\": 1e999}");
  ASSERT_FALSE(overflow.valid);
  EXPECT_NE(overflow.error.find("overflows double"), std::string::npos);
  EXPECT_EQ(overflow.error_offset, std::string("{\"x\": ").size());

  EXPECT_FALSE(ParseJson("[-1e999]").valid);
  EXPECT_TRUE(ParseJson("{\"x\": 1e308}").valid);
  EXPECT_TRUE(ParseJson("{\"x\": -1.7976931348623157e308}").valid);
}

TEST(JsonHardeningTest, DepthLimitFailsCleanly) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += ']';
  const JsonParseResult parsed = ParseJson(deep);
  ASSERT_FALSE(parsed.valid);
  EXPECT_NE(parsed.error.find("nesting too deep"), std::string::npos);

  std::string shallow;
  for (int i = 0; i < 32; ++i) shallow += '[';
  shallow += "1";
  for (int i = 0; i < 32; ++i) shallow += ']';
  EXPECT_TRUE(ParseJson(shallow).valid);
}

TEST(JsonHardeningTest, ErrorPositionsAreOneBasedLineColumn) {
  const std::string doc = "{\n  \"a\": 1,\n  \"b\": bogus\n}";
  const JsonParseResult parsed = ParseJson(doc);
  ASSERT_FALSE(parsed.valid);
  EXPECT_EQ(parsed.error_line, 3u);
  EXPECT_EQ(parsed.error_column, 8u);
  EXPECT_EQ(parsed.error_offset, doc.find("bogus"));
}

TEST(JsonHardeningTest, TrailingCharactersReportPosition) {
  const JsonParseResult parsed = ParseJson("{\"a\": 1} extra");
  ASSERT_FALSE(parsed.valid);
  EXPECT_EQ(parsed.error_line, 1u);
  EXPECT_GT(parsed.error_column, 1u);
}

TEST(JsonHardeningTest, ValidDocumentsStillParse) {
  const JsonParseResult parsed =
      ParseJson("{\"s\": \"\\u00e9\", \"n\": -1.5e-3, \"a\": [true, false, null]}");
  ASSERT_TRUE(parsed.valid);
  EXPECT_TRUE(parsed.value.is_object());
  EXPECT_EQ(parsed.value.NumberOr("n", 0.0), -1.5e-3);
  ASSERT_NE(parsed.value.Find("a"), nullptr);
  EXPECT_EQ(parsed.value.Find("a")->items().size(), 3u);
}

TEST(JsonHardeningTest, ReadIntegerRejectsNanFractionsAndOutOfRange) {
  std::int64_t out = 7;
  std::string error;
  EXPECT_FALSE(ReadInteger(JsonValue::Number(std::nan("")), "n", 0, 10, &out, &error));
  EXPECT_FALSE(ReadInteger(JsonValue::Number(2.9), "n", 0, 10, &out, &error));
  EXPECT_FALSE(ReadInteger(JsonValue::Number(-1.0), "n", 0, 10, &out, &error));
  EXPECT_FALSE(ReadInteger(JsonValue::Number(11.0), "n", 0, 10, &out, &error));
  EXPECT_FALSE(ReadInteger(JsonValue::Number(1e30), "n", 0, kMaxJsonInteger, &out, &error));
  EXPECT_FALSE(ReadInteger(JsonValue::String("3"), "n", 0, 10, &out, &error));
  EXPECT_EQ(out, 7);
  EXPECT_EQ(error, "n must be an integer in [0, 10]");
  ASSERT_TRUE(ReadInteger(JsonValue::Number(10.0), "n", 0, 10, &out, &error));
  EXPECT_EQ(out, 10);
  ASSERT_TRUE(ReadInteger(JsonValue::Number(9007199254740992.0), "seed", 0, kMaxJsonInteger,
                          &out, &error));
  EXPECT_EQ(out, kMaxJsonInteger);
}

TEST(JsonHardeningTest, FleetSpecIntegerFieldsAreRangeChecked) {
  // Each of these used to be cast straight from a double: -1 wrapped to a
  // 2^64-cell run, 1e30 and 1e12 were undefined behaviour, 2.9 ran 2 cells.
  const struct {
    const char* text;
    const char* field;
  } bad[] = {
      {R"({"cohorts": [{"count": -1}]})", "count"},
      {R"({"cohorts": [{"count": 1e30}]})", "count"},
      {R"({"cohorts": [{"count": 2.9}]})", "count"},
      {R"({"cohorts": [{"priority": 1e12}]})", "priority"},
      {R"({"master_seed": 1e300, "cohorts": [{}]})", "master_seed"},
  };
  for (const auto& c : bad) {
    lab::FleetSpec spec;
    std::string error;
    EXPECT_FALSE(lab::FleetSpecFromJson(c.text, &spec, &error)) << c.text;
    EXPECT_NE(error.find(std::string(c.field) + " must be an integer in ["), std::string::npos)
        << error;
  }
  lab::FleetSpec spec;
  std::string error;
  ASSERT_TRUE(lab::FleetSpecFromJson(
      R"({"master_seed": 9007199254740992, "cohorts": [{"count": 3, "priority": 31}]})",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.master_seed, 9007199254740992u);
  EXPECT_EQ(spec.cohorts[0].count, 3u);
  EXPECT_EQ(spec.cohorts[0].priority, 31);
}

TEST(JsonHardeningTest, FaultPlanIntegerFieldsAreRangeChecked) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(fault::ParseFaultPlan(
      R"({"faults": [{"kind": "dpc_storm", "trigger": "periodic", "period_ms": 5,
                      "burst": 1e10}]})",
      &plan, &error));
  EXPECT_NE(error.find("burst must be an integer in ["), std::string::npos) << error;
  EXPECT_FALSE(fault::ParseFaultPlan(R"({"seed": -3, "faults": []})", &plan, &error));
  EXPECT_NE(error.find("seed must be an integer in ["), std::string::npos) << error;
}

// Duration parameters a sampler cannot take (the mutation fuzz found an
// inverted uniform range, which the sampler asserted on) are parse errors,
// and so is any time past fault::kMaxPlanTimeUs, whose conversion to
// sim::Cycles would overflow.
TEST(JsonHardeningTest, FaultPlanDurationParametersAreRangeChecked) {
  const std::pair<const char*, const char*> cases[] = {
      {R"("duration_us": -1)", "duration_us must be a number >= 0"},
      {R"("duration": -1)", "duration must be >= 0"},
      {R"("duration": {"dist": "constant", "us": -0.5})", "constant needs us >= 0"},
      {R"("duration": {"dist": "uniform", "lo_us": 50, "hi_us": 10})", "uniform needs"},
      {R"("duration": {"dist": "uniform", "lo_us": -5, "hi_us": 10})", "uniform needs"},
      {R"("duration": {"dist": "exponential"})", "exponential needs mean_us > 0"},
      {R"("duration": {"dist": "lognormal", "median_us": 0})", "lognormal needs"},
      {R"("duration": {"dist": "lognormal", "median_us": 5, "sigma": -1})", "lognormal needs"},
      {R"("duration": {"dist": "bounded_pareto", "alpha": 0, "lo_us": 1, "hi_us": 9})",
       "bounded_pareto needs"},
      {R"("duration": {"dist": "bounded_pareto", "alpha": 1.2, "lo_us": 9, "hi_us": 9})",
       "bounded_pareto needs"},
      {R"("duration_us": 1e17)", "duration_us exceeds the plan time ceiling"},
      {R"("duration": 1e13)", "duration exceeds the plan time ceiling"},
      {R"("duration": {"dist": "constant", "us": 1e13})", "us exceeds the plan time ceiling"},
      {R"("duration": {"dist": "uniform", "lo_us": 0, "hi_us": 1e14})",
       "hi_us exceeds the plan time ceiling"},
      {R"("duration": {"dist": "exponential", "mean_us": 1e13})",
       "mean_us exceeds the plan time ceiling"},
      {R"("duration": {"dist": "lognormal", "median_us": 1e13})",
       "median_us exceeds the plan time ceiling"},
      {R"("duration": {"dist": "bounded_pareto", "lo_us": 1, "hi_us": 1e14})",
       "hi_us exceeds the plan time ceiling"},
      {R"("duration": {"dist": "exponential", "mean_us": 1e11})",
       "duration upper bound exceeds the plan time ceiling"},
      {R"("duration": {"dist": "lognormal", "median_us": 100, "sigma": 30})",
       "largest lognormal draw median_us * e^(8.58 sigma) exceeds the plan time ceiling"},
      {R"("duration": {"dist": "lognormal", "median_us": 1e-6, "sigma": 6})",
       "largest lognormal draw median_us * e^(8.58 sigma) exceeds the plan time ceiling"},
      {R"("at_ms": 1e14)", "at_ms exceeds the plan time ceiling"},
      {R"("trigger": "periodic", "period_ms": 1e14)", "period_ms exceeds the plan time ceiling"},
      {R"("trigger": "poisson", "rate_per_s": 1e-9)",
       "mean poisson gap 1 / rate_per_s exceeds the plan time ceiling"},
      {R"("spacing_us": 1e13)", "spacing_us * (burst - 1) exceeds the plan time ceiling"},
      {R"("burst": 3, "spacing_us": 6e11)",
       "spacing_us * (burst - 1) exceeds the plan time ceiling"},
  };
  for (const auto& [field, message] : cases) {
    const std::string text = std::string(R"({"faults": [{"kind": "masked_window", )") + field +
                             "}]}";
    fault::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(fault::ParseFaultPlan(text, &plan, &error)) << text;
    EXPECT_NE(error.find(message), std::string::npos) << text << ": " << error;
  }
  fault::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(fault::ParseFaultPlan(
      R"({"faults": [{"kind": "masked_window", "duration": {"dist": "uniform", "lo_us": 0,
                      "hi_us": 0}}]})",
      &plan, &error))
      << error;
  // Times at the ceiling itself are accepted.
  EXPECT_TRUE(fault::ParseFaultPlan(
      R"({"faults": [{"kind": "masked_window", "at_ms": 1e9, "duration_us": 1e12}]})", &plan,
      &error))
      << error;
}

}  // namespace
}  // namespace wdmlat::obs
