// MetricsRegistry merge algebra and exporter checks, mirroring the
// histogram-merge property tests: counters must sum, gauges must take the
// maximum, histograms must merge bucket-for-bucket, and the JSON/CSV
// exporters must emit well-formed output with deterministic key order — the
// contract the matrix runner's grid-order registry merging rests on.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/lab.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/sim/rng.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::obs {
namespace {

MetricsRegistry SampleRegistry(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  MetricsRegistry reg;
  for (int i = 0; i < n; ++i) {
    reg.Add("events", 1.0);
    reg.Add("ms_total", rng.Uniform(0.0, 2.0));
    reg.Set("peak", rng.Uniform(0.0, 100.0));
    reg.Observe("depth", rng.Uniform(0.0, 16.0));
    reg.Observe("latency_ms", rng.BoundedPareto(1.1, 0.01, 50.0));
  }
  return reg;
}

void ExpectRegistriesIdentical(const MetricsRegistry& a, const MetricsRegistry& b) {
  // The CSV dump covers every counter, gauge and histogram statistic, so
  // textual equality is bucket-for-bucket equality.
  EXPECT_EQ(a.ToCsv(), b.ToCsv());
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(MetricsRegistryTest, AccessorsAndDefaults) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("missing"), 0.0);
  EXPECT_EQ(reg.gauge("missing"), 0.0);
  EXPECT_EQ(reg.histogram("missing"), nullptr);

  reg.Add("hits");
  reg.Add("hits", 2.5);
  reg.Set("depth", 7.0);
  reg.Set("depth", 3.0);  // gauges hold the latest value
  reg.Observe("wait_ms", 1.25);
  EXPECT_FALSE(reg.empty());
  EXPECT_DOUBLE_EQ(reg.counter("hits"), 3.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth"), 3.0);
  ASSERT_NE(reg.histogram("wait_ms"), nullptr);
  EXPECT_EQ(reg.histogram("wait_ms")->count(), 1u);
  // Observe stores in caller units: a 1.25 observation reads back as 1.25.
  EXPECT_DOUBLE_EQ(reg.histogram("wait_ms")->max_ms(), 1.25);
}

TEST(MetricsRegistryTest, MergeSemantics) {
  MetricsRegistry a;
  a.Add("events", 10.0);
  a.Set("peak", 5.0);
  a.Observe("depth", 1.0);
  MetricsRegistry b;
  b.Add("events", 32.0);
  b.Add("only_in_b", 1.0);
  b.Set("peak", 3.0);
  b.Set("only_in_b_gauge", 9.0);
  b.Observe("depth", 4.0);

  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.counter("events"), 42.0);      // counters sum
  EXPECT_DOUBLE_EQ(a.counter("only_in_b"), 1.0);    // missing counters adopt
  EXPECT_DOUBLE_EQ(a.gauge("peak"), 5.0);           // gauges take the max
  EXPECT_DOUBLE_EQ(a.gauge("only_in_b_gauge"), 9.0);
  ASSERT_NE(a.histogram("depth"), nullptr);
  EXPECT_EQ(a.histogram("depth")->count(), 2u);     // histograms pool
  EXPECT_DOUBLE_EQ(a.histogram("depth")->max_ms(), 4.0);
}

TEST(MetricsRegistryTest, MergeIsCommutativeOnBuckets) {
  const MetricsRegistry a = SampleRegistry(1, 500);
  const MetricsRegistry b = SampleRegistry(2, 300);
  MetricsRegistry ab = a;
  ab.Merge(b);
  MetricsRegistry ba = b;
  ba.Merge(a);
  // Histogram buckets and the gauge max are order-independent; counter sums
  // agree to double precision on these magnitudes.
  EXPECT_EQ(ab.histogram("depth")->ToCsv(), ba.histogram("depth")->ToCsv());
  EXPECT_EQ(ab.histogram("latency_ms")->ToCsv(), ba.histogram("latency_ms")->ToCsv());
  EXPECT_DOUBLE_EQ(ab.gauge("peak"), ba.gauge("peak"));
  EXPECT_DOUBLE_EQ(ab.counter("events"), ba.counter("events"));
}

TEST(MetricsRegistryTest, MergeIsAssociative) {
  const MetricsRegistry a = SampleRegistry(3, 400);
  const MetricsRegistry b = SampleRegistry(4, 200);
  const MetricsRegistry c = SampleRegistry(5, 300);
  MetricsRegistry left = a;  // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  MetricsRegistry bc = b;  // a + (b + c)
  bc.Merge(c);
  MetricsRegistry right = a;
  right.Merge(bc);
  // Bucket counts, quantiles and the gauge max are exact under any
  // association; floating-point counter sums and histogram means may differ
  // in ulps across orders (same caveat as LatencyHistogram::Merge).
  for (const char* name : {"depth", "latency_ms"}) {
    EXPECT_EQ(left.histogram(name)->ToCsv(), right.histogram(name)->ToCsv()) << name;
    EXPECT_EQ(left.histogram(name)->QuantileMs(0.99), right.histogram(name)->QuantileMs(0.99));
  }
  EXPECT_DOUBLE_EQ(left.gauge("peak"), right.gauge("peak"));
  EXPECT_DOUBLE_EQ(left.counter("events"), right.counter("events"));
  EXPECT_NEAR(left.counter("ms_total"), right.counter("ms_total"),
              1e-9 * right.counter("ms_total"));
}

TEST(MetricsRegistryTest, EmptyRegistryIsMergeIdentity) {
  const MetricsRegistry a = SampleRegistry(6, 250);
  MetricsRegistry left;  // empty + a
  left.Merge(a);
  ExpectRegistriesIdentical(left, a);
  MetricsRegistry right = a;  // a + empty
  right.Merge(MetricsRegistry());
  ExpectRegistriesIdentical(right, a);
}

TEST(MetricsRegistryTest, FixedOrderMergeIsBitDeterministic) {
  // The matrix runner's guarantee: merging the same per-cell registries in
  // the same (grid) order must produce byte-identical exports, run to run.
  std::vector<MetricsRegistry> cells;
  for (std::uint64_t s = 10; s < 18; ++s) {
    cells.push_back(SampleRegistry(s, 100));
  }
  MetricsRegistry once;
  MetricsRegistry twice;
  for (const MetricsRegistry& cell : cells) {
    once.Merge(cell);
  }
  for (const MetricsRegistry& cell : cells) {
    twice.Merge(cell);
  }
  ExpectRegistriesIdentical(once, twice);
}

TEST(MetricsRegistryTest, JsonExportIsWellFormed) {
  MetricsRegistry reg = SampleRegistry(7, 300);
  reg.Add("needs \"escaping\"\n", 1.0);  // exporter must escape metric names
  const JsonLintResult lint = LintJson(reg.ToJson());
  EXPECT_TRUE(lint.valid) << lint.error << " at offset " << lint.error_offset;
  EXPECT_TRUE(lint.HasTopLevelKey("counters"));
  EXPECT_TRUE(lint.HasTopLevelKey("gauges"));
  EXPECT_TRUE(lint.HasTopLevelKey("histograms"));

  // An empty registry still exports a complete, valid skeleton.
  const JsonLintResult empty_lint = LintJson(MetricsRegistry().ToJson());
  EXPECT_TRUE(empty_lint.valid) << empty_lint.error;
  EXPECT_TRUE(empty_lint.HasTopLevelKey("counters"));
}

TEST(MetricsRegistryTest, CsvExportShape) {
  MetricsRegistry reg;
  reg.Add("a.count", 3.0);
  reg.Set("b.peak", 2.0);
  reg.Observe("c.depth", 1.0);
  const std::string csv = reg.ToCsv();
  EXPECT_EQ(csv.rfind("kind,name,field,value\n", 0), 0u);
  EXPECT_NE(csv.find("counter,a.count,value,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b.peak,value,2"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c.depth,count,1"), std::string::npos);
}

TEST(MetricsRegistryTest, SeriesReferencesSurviveInsertsAndMerge) {
  MetricsRegistry reg;
  double& hits = reg.CounterSeries("hits");
  stats::LatencyHistogram& wait = reg.HistogramSeries("wait_ms");
  stats::QuantileSketch& tail = reg.SketchSeries("tail_ms");
  // A resolved series exists, empty, before its first write.
  EXPECT_EQ(reg.counter("hits"), 0.0);
  ASSERT_NE(reg.histogram("wait_ms"), nullptr);
  EXPECT_EQ(reg.histogram("wait_ms")->count(), 0u);

  // Many later inserts around the resolved names, then a merge that both
  // adds to them and inserts new series.
  for (int i = 0; i < 200; ++i) {
    const std::string suffix = std::to_string(i);
    reg.Add(std::string("a").append(suffix));
    reg.Observe(std::string("z").append(suffix), 1.0);
    reg.SketchSeries(std::string("s").append(suffix)).RecordMs(1.0);
  }
  MetricsRegistry other = SampleRegistry(3, 50);
  other.Add("hits", 10.0);
  other.Observe("wait_ms", 2.0);
  other.SketchSeries("tail_ms").RecordMs(3.0);
  reg.Merge(other);

  hits += 1.0;
  wait.RecordMs(4.0);
  tail.RecordMs(5.0);
  EXPECT_DOUBLE_EQ(reg.counter("hits"), 11.0);
  EXPECT_EQ(&reg.CounterSeries("hits"), &hits);
  EXPECT_EQ(reg.histogram("wait_ms"), &wait);
  EXPECT_EQ(reg.histogram("wait_ms")->count(), 2u);
  EXPECT_EQ(reg.sketch("tail_ms"), &tail);
  EXPECT_EQ(reg.sketch("tail_ms")->count(), 2u);
}

// The collector and sampler create a series at its first write, so a
// uniprocessor cell, which never emits SMP events, exports no SMP series.
TEST(MetricsRegistryTest, UniprocessorCellHasNoSmpSeries) {
  const auto run = [](kernel::KernelProfile profile) {
    lab::LabConfig config;
    config.os = std::move(profile);
    config.stress = workload::OfficeStress();
    config.stress_minutes = 0.05;
    config.seed = 11;
    MetricsRegistry metrics;
    config.obs.metrics = &metrics;
    config.obs.queue_sample_ms = 1.0;
    config.obs.sketch = true;
    lab::RunLatencyExperiment(config);
    return metrics.ToJson();
  };
  for (kernel::KernelProfile profile : {kernel::MakeWin98Profile(), kernel::MakeNt4Profile()}) {
    const std::string json = run(profile);
    EXPECT_NE(json.find("\"kernel.isr.count\""), std::string::npos) << profile.name;
    EXPECT_EQ(json.find("kernel.spinlock."), std::string::npos) << profile.name;
    EXPECT_EQ(json.find("kernel.ipi."), std::string::npos) << profile.name;
  }
  // The same check finds them where they are written: an SMP cell sends
  // IPIs (its spinlocks are rarely contended in so short a run).
  const std::string smp = run(kernel::MakeNt4SmpProfile(2));
  EXPECT_NE(smp.find("kernel.ipi."), std::string::npos);
}

// The exporters' number spelling as it was first written: the shortest
// "%.<p>g" that strtod reads back as the same double, found by trying every
// precision from 1, else "%.17g".
std::string PrintfSearch(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) {
      return shorter;
    }
  }
  return buf;
}

// JsonNumber starts its search at the shortest round-trip digit count and
// uses to_chars/from_chars; it must spell every value exactly as the
// printf search does. Over a million values: random bit patterns (most
// need 16 or 17 digits), every power of two with both neighbours and both
// signs, integers, thousandths, and the special values.
TEST(JsonNumberTest, MatchesThePrintfSearch) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                0.2,
                                0.1 + 0.2,
                                1.0 / 3.0,
                                2.0 / 3.0,
                                1e21,
                                1e22,
                                123456789012345678.0,
                                9007199254740993.0,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::epsilon(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(0x6a736f6e);
  // The printf search spends some 20 us on a 17-digit value, so the random
  // patterns are the fewest.
  for (int i = 0; i < 50000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  for (int e = -1074; e <= 1023; ++e) {
    const double power = std::ldexp(1.0, e);
    for (const double v : {power, std::nextafter(power, 0.0), std::nextafter(power, 2 * power)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (int k = 0; k < 470000; ++k) {
    values.push_back(static_cast<double>(k));
    values.push_back(static_cast<double>(k) / 1000.0);
  }
  ASSERT_GE(values.size(), 1000000u);
  int mismatches = 0;
  for (const double value : values) {
    const std::string want = PrintfSearch(value);
    const std::string got = JsonNumber(value);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(value)
                    << ": JsonNumber \"" << got << "\", printf search \"" << want << "\"";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace wdmlat::obs
