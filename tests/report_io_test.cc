// Lossless LabReport serialization (src/lab/report_io): hexfloat doubles,
// decimal-string u64s, and the FNV-1a artifact checksum — the bit-exactness
// that makes a resumed matrix merge identical to a fresh one.

#include "src/lab/report_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/lab.h"
#include "src/obs/json.h"
#include "src/stats/quantile_sketch.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::lab {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ReportIoTest, HexDoubleRoundTripsExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           1.5,
                           -1.0 / 3.0,
                           3.141592653589793,
                           1e-300,
                           4.9406564584124654e-324,  // smallest denormal
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           123456789.123456789};
  for (const double value : values) {
    double parsed = 0.0;
    ASSERT_TRUE(ParseHexDouble(HexDouble(value), &parsed)) << HexDouble(value);
    EXPECT_TRUE(SameBits(value, parsed)) << HexDouble(value);
  }
}

TEST(ReportIoTest, ParseHexDoubleRejectsPartialAndEmpty) {
  double out = 0.0;
  EXPECT_FALSE(ParseHexDouble("", &out));
  EXPECT_FALSE(ParseHexDouble("zzz", &out));
  EXPECT_FALSE(ParseHexDouble("0x1.8p+1 trailing", &out));
  EXPECT_TRUE(ParseHexDouble("0x1.8p+1", &out));
  EXPECT_EQ(out, 3.0);
}

TEST(ReportIoTest, ParseHexDoubleTakesFiniteHexOnly) {
  double out = 42.0;
  for (const char* text :
       {"inf", "nan", "-inf", "1e999", " 0x1p+0", "\t2", "1.5", "0X1P+0",
        // from_chars(hex) reads each of these after the "0x"; none is the
        // spelling the writer gives its value.
        "0xinf", "-0xnan", "0x1p+1024", "0x1P+0", "0x1.8", "0x1.80p+1", "0x1.8P+1",
        "0x1.8p+01", "0x3p+0", "0x0p-0", "0x0.0p+0", "0x1.p+0", "0x1p-1023", "0x0.8p-1021",
        "0x-1p+0", "--0x1p+0", "+0x1p+0", "0x1.8p+1 ", "0x1.00000000000001p+0"}) {
    EXPECT_FALSE(ParseHexDouble(text, &out)) << '"' << text << '"';
  }
  EXPECT_EQ(out, 42.0);  // a rejected parse leaves the output alone
  ASSERT_TRUE(ParseHexDouble("-0x0p+0", &out));
  EXPECT_TRUE(SameBits(out, -0.0));
  ASSERT_TRUE(ParseHexDouble("0x0.0000000000001p-1022", &out));
  EXPECT_TRUE(SameBits(out, std::numeric_limits<double>::denorm_min()));
  ASSERT_TRUE(ParseHexDouble("0x0.8p-1022", &out));
  EXPECT_TRUE(SameBits(out, std::ldexp(1.0, -1023)));
}

// The writer's bytes are glibc's %a, independent of whatever values a bench
// seed happens to produce: random bit patterns cover every exponent, and the
// edge values cover zero, the subnormals and the largest finite double.
TEST(ReportIoTest, HexDoubleMatchesPrintfA) {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  const auto check = [&](double value) {
    char expected[48];
    std::snprintf(expected, sizeof(expected), "%a", value);
    std::string written;
    report_json::AppendHexDouble(written, value);
    double parsed = 0.0;
    const bool round_trips = ParseHexDouble(written, &parsed) && SameBits(parsed, value);
    if (written != expected || HexDouble(value) != written || !round_trips) {
      if (mismatches++ == 0) {
        first_mismatch = std::string(expected) + " written as " + written;
      }
    }
    ++checked;
  };
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double dbl_min = std::numeric_limits<double>::min();
  const double dbl_max = std::numeric_limits<double>::max();
  for (const double value : {0.0, -0.0, denorm_min, -denorm_min, dbl_min, -dbl_min,
                             std::nextafter(dbl_min, 0.0), dbl_max, -dbl_max, 1.0, 0.5}) {
    check(value);
  }
  std::mt19937_64 rng(0x5eed2a);
  std::size_t finite = 0;
  while (finite < 1'000'000) {
    const double value = std::bit_cast<double>(rng());
    if (std::isfinite(value)) {
      ++finite;
      check(value);
    }
  }
  // Random patterns are subnormal only once in 2048; draw some directly.
  // A random shift varies how many fraction digits they need.
  constexpr std::uint64_t kFractionMask = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t bits = rng();
    const std::uint64_t fraction =
        std::max<std::uint64_t>((bits & kFractionMask) >> (bits >> 58), 1);
    check(std::bit_cast<double>((bits & kSignBit) | fraction));
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
  EXPECT_GE(checked, 1'020'000u);
  // No record field holds a non-finite value, but the writer still spells
  // one as %a does, and the parser refuses it.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double value : {inf, -inf, nan, -nan}) {
    char expected[48];
    std::snprintf(expected, sizeof(expected), "%a", value);
    EXPECT_EQ(HexDouble(value), expected);
    double parsed = 42.0;
    EXPECT_FALSE(ParseHexDouble(HexDouble(value), &parsed)) << expected;
  }
}

TEST(ReportIoTest, EscapedBytesReadBackThroughReaderAndDom) {
  std::string text;
  for (int c = 0; c < 256; ++c) {
    text += static_cast<char>(c);
  }
  text += "\"quoted\" \\ run";
  std::string quoted = "\"";
  report_json::AppendEscaped(quoted, text);
  quoted += '"';
  report_json::Reader in(quoted);
  std::string read;
  ASSERT_TRUE(in.String(&read) && in.ExpectEnd()) << in.error();
  EXPECT_EQ(read, text);
  const obs::JsonParseResult dom = obs::ParseJson(quoted);
  ASSERT_TRUE(dom.valid) << dom.error;
  EXPECT_EQ(dom.value.as_string(), text);
  // Escapes JSON allows but the writer never emits are refused.
  for (const char* other : {"\"\\/\"", "\"\\u0041\"", "\"\\u000A\"", "\"\\u000a\"",
                            "\"\\b\"", "\"\\f\"", "\"\\u0020\"", "\"raw\ttab\""}) {
    report_json::Reader strict(other);
    EXPECT_FALSE(strict.String(&read)) << other;
    EXPECT_FALSE(strict.error().empty());
  }
}

TEST(ReportIoTest, ParseU64TakesDigitsOnly) {
  std::uint64_t out = 7;
  for (const char* text : {"-1", " 7", "+7", "7 ", "", "18446744073709551616", "07", "00",
                           "99999999999999999999", "184467440737095516150", "1.5"}) {
    EXPECT_FALSE(report_json::ParseU64(text, &out)) << '"' << text << '"';
  }
  EXPECT_EQ(out, 7u);  // a rejected parse leaves the output alone
  ASSERT_TRUE(report_json::ParseU64("18446744073709551615", &out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(report_json::ParseU64("9999999999999999999", &out));
  EXPECT_EQ(out, 9999999999999999999u);
  ASSERT_TRUE(report_json::ParseU64("10000000000000000000", &out));
  EXPECT_EQ(out, 10000000000000000000u);
  ASSERT_TRUE(report_json::ParseU64("0", &out));
  EXPECT_EQ(out, 0u);
}

std::string CompactSketch(const stats::QuantileSketch& sketch) {
  std::string out;
  report_json::AppendCompactSketch(out, "s", sketch);
  return out;
}

// Whole cycle counts from 0 to 2^50 (tails whose radix sort takes one to
// seven byte passes, with repeats) are spelled in cycles and read back to
// the same values; one value that is not a cycle count moves the sketch to
// the hexfloat spelling, which reads back verbatim.
TEST(ReportIoTest, CompactSketchRoundTripsInEitherSpelling) {
  std::mt19937_64 rng(1999);
  for (const int bits : {0, 8, 20, 33, 50}) {
    stats::QuantileSketch sketch;
    for (int i = 0; i < 3000; ++i) {
      sketch.Record(bits == 0 ? 0 : rng() >> (64 - bits));
    }
    const std::string text = CompactSketch(sketch);
    ASSERT_EQ(text.rfind("\"s\": {\"unit\": \"cycles\", ", 0), 0u) << bits;
    report_json::Reader in(text);
    stats::QuantileSketch read;
    ASSERT_TRUE(report_json::ReadCompactSketch(in, "s", &read) && in.ExpectEnd()) << in.error();
    EXPECT_EQ(CompactSketch(read), text);
    stats::QuantileSketch::State want = sketch.ExportState();
    const stats::QuantileSketch::State got = read.ExportState();
    EXPECT_TRUE(std::is_sorted(got.tail.begin(), got.tail.end()));
    std::sort(want.tail.begin(), want.tail.end());
    EXPECT_EQ(got.tail, want.tail);  // the same values, ascending
    EXPECT_EQ(got.levels, want.levels);
    EXPECT_EQ(got.parities, want.parities);
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sum_ms), std::bit_cast<std::uint64_t>(want.sum_ms));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.min_ms), std::bit_cast<std::uint64_t>(want.min_ms));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_ms), std::bit_cast<std::uint64_t>(want.max_ms));

    sketch.RecordMs(1e-9);
    const std::string hexfloat = CompactSketch(sketch);
    std::string plain;
    report_json::AppendSketch(plain, "s", sketch);
    EXPECT_EQ(hexfloat, plain);
    report_json::Reader again(hexfloat);
    ASSERT_TRUE(report_json::ReadCompactSketch(again, "s", &read)) << again.error();
    EXPECT_EQ(CompactSketch(read), hexfloat);
  }
}

TEST(ReportIoTest, Fnv1a64KnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_NE(Fnv1a64("journal"), Fnv1a64("journa l"));
}

LabReport TinyRun() {
  LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::GamesStress();
  config.thread_priority = 28;
  config.stress_minutes = 0.05;
  config.warmup_seconds = 1.0;
  config.seed = 1999;
  config.obs.episode_threshold_us = 200.0;  // exercise the episodes array
  return RunLatencyExperiment(config);
}

TEST(ReportIoTest, ReportRoundTripsBitExactly) {
  const LabReport original = TinyRun();
  ASSERT_GT(original.samples, 0u);

  const std::string text = ReportToJson(original);
  LabReport restored;
  std::string error;
  ASSERT_TRUE(ReportFromJson(text, &restored, &error)) << error;

  EXPECT_EQ(restored.os_name, original.os_name);
  EXPECT_EQ(restored.workload_name, original.workload_name);
  EXPECT_EQ(restored.thread_priority, original.thread_priority);
  EXPECT_EQ(restored.has_interrupt_latency, original.has_interrupt_latency);
  EXPECT_EQ(restored.samples, original.samples);
  EXPECT_TRUE(SameBits(restored.samples_per_hour, original.samples_per_hour));
  EXPECT_EQ(restored.fault_activations, original.fault_activations);
  EXPECT_EQ(restored.usage.category, original.usage.category);
  EXPECT_TRUE(SameBits(restored.usage.compression, original.usage.compression));
  EXPECT_TRUE(SameBits(restored.usage.week_hours, original.usage.week_hours));

  auto same_hist = [](const char* name, const stats::LatencyHistogram& a,
                      const stats::LatencyHistogram& b) {
    EXPECT_EQ(a.count(), b.count()) << name;
    EXPECT_EQ(a.ToCsv(), b.ToCsv()) << name;
    EXPECT_TRUE(SameBits(a.mean_ms(), b.mean_ms())) << name;
    EXPECT_TRUE(SameBits(a.min_ms(), b.min_ms())) << name;
    EXPECT_TRUE(SameBits(a.max_ms(), b.max_ms())) << name;
  };
  same_hist("dpc_interrupt", original.dpc_interrupt, restored.dpc_interrupt);
  same_hist("thread", original.thread, restored.thread);
  same_hist("thread_interrupt", original.thread_interrupt, restored.thread_interrupt);
  same_hist("interrupt", original.interrupt, restored.interrupt);
  same_hist("isr_to_dpc", original.isr_to_dpc, restored.isr_to_dpc);
  same_hist("true_pit", original.true_pit_interrupt_latency,
            restored.true_pit_interrupt_latency);

  ASSERT_EQ(restored.episodes.size(), original.episodes.size());
  for (std::size_t i = 0; i < original.episodes.size(); ++i) {
    EXPECT_TRUE(SameBits(restored.episodes[i].latency_ms, original.episodes[i].latency_ms));
    EXPECT_EQ(restored.episodes[i].cause_module, original.episodes[i].cause_module);
    EXPECT_EQ(restored.episodes[i].attributed, original.episodes[i].attributed);
  }

  // Serialization is a pure function of the report: re-serializing the
  // restored report reproduces the artifact byte-for-byte, so the record log
  // checksum also survives a round trip.
  EXPECT_EQ(ReportToJson(restored), text);
  EXPECT_EQ(Fnv1a64(ReportToJson(restored)), Fnv1a64(text));
}

TEST(ReportIoTest, RejectsCorruptDocuments) {
  const LabReport original = TinyRun();
  const std::string text = ReportToJson(original);

  LabReport restored;
  std::string error;
  EXPECT_FALSE(ReportFromJson(text.substr(0, text.size() / 2), &restored, &error));
  EXPECT_FALSE(error.empty());

  EXPECT_FALSE(ReportFromJson("{\"format\": \"something-else\"}", &restored, &error));
  EXPECT_NE(error.find("wdmlat-cell-report"), std::string::npos);

  // A tampered histogram count breaks bucket/count conservation on import.
  std::string tampered = text;
  const std::string needle = "\"count\": \"";
  const std::size_t at = tampered.find(needle);
  ASSERT_NE(at, std::string::npos);
  tampered[at + needle.size()] = '9';
  tampered[at + needle.size() + 1] = '9';
  EXPECT_FALSE(ReportFromJson(tampered, &restored, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ReportIoTest, HistogramStateImportValidates) {
  stats::LatencyHistogram hist;
  hist.Record(sim::UsToCycles(100.0));
  hist.Record(sim::UsToCycles(250.0));
  const stats::LatencyHistogram::State good = hist.ExportState();

  stats::LatencyHistogram restored;
  ASSERT_TRUE(restored.ImportState(good));
  EXPECT_EQ(restored.ToCsv(), hist.ToCsv());

  stats::LatencyHistogram::State bad = good;
  bad.count += 1;  // counts no longer conserve
  stats::LatencyHistogram reject;
  EXPECT_FALSE(reject.ImportState(bad));
  EXPECT_EQ(reject.count(), 0u);  // failed import leaves a reset histogram

  stats::LatencyHistogram::State out_of_range = good;
  out_of_range.buckets.emplace_back(100000, 1);
  EXPECT_FALSE(reject.ImportState(out_of_range));
}

}  // namespace
}  // namespace wdmlat::lab
