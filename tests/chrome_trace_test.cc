// ChromeTraceWriter exporter checks: the JSON must be well-formed, every
// track's B/E slices must nest and balance (including slices still open when
// the run ends), and per-track timestamps must be monotonic — the invariants
// Perfetto / chrome://tracing need to render the file at all. The golden
// cases pin the serialized bytes of two whole traced runs, and the number
// formatter is checked against printf("%.6f").

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/kernel/label.h"
#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/lab/lab.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_path.h"

namespace wdmlat::obs {
namespace {

using kernel::TraceEvent;
using kernel::TraceEventType;

TraceEvent Ev(TraceEventType type, double ts_us, kernel::Label label = {}, int arg = -1,
              double duration_us = 0.0) {
  TraceEvent event;
  event.type = type;
  event.tsc = sim::UsToCycles(ts_us);
  event.label = label;
  event.arg = arg;
  event.duration = sim::UsToCycles(duration_us);
  return event;
}

// The records of `writer`'s trace before its closing E events.
std::vector<JsonValue> Records(const ChromeTraceWriter& writer) {
  const JsonParseResult parsed = ParseJson(writer.ToJson());
  EXPECT_TRUE(parsed.valid) << parsed.error;
  const JsonValue* events = parsed.value.Find("traceEvents");
  if (events == nullptr) {
    ADD_FAILURE() << "no traceEvents";
    return {};
  }
  std::vector<JsonValue> records = events->items();
  records.resize(std::min(records.size(), writer.event_count()));
  return records;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// A small but representative dispatcher stream: a nested ISR-over-section
// window, a DPC, a context switch, a lockout, and a thread-ready mark.
void FeedScenario(ChromeTraceWriter& writer) {
  const kernel::Label vmm{"VMM", "_mmFindContig"};
  const kernel::Label isr{"LATDRV", "_PitIsr"};
  const kernel::Label dpc{"LATDRV", "_LatDpcRoutine"};
  writer.OnTraceEvent(Ev(TraceEventType::kSectionStart, 10.0, vmm, -1, 30.0));
  writer.OnTraceEvent(Ev(TraceEventType::kIsrEnter, 20.0, isr, 0));
  writer.OnTraceEvent(Ev(TraceEventType::kIsrExit, 25.0, isr, 0, 5.0));
  writer.OnTraceEvent(Ev(TraceEventType::kSectionEnd, 45.0, vmm, -1, 35.0));
  writer.OnTraceEvent(Ev(TraceEventType::kDpcStart, 46.0, dpc, -1, 1.0));
  writer.OnTraceEvent(Ev(TraceEventType::kDpcEnd, 48.0, dpc, -1, 2.0));
  writer.OnTraceEvent(Ev(TraceEventType::kThreadReady, 48.0, {}, 28));
  writer.OnTraceEvent(Ev(TraceEventType::kContextSwitch, 49.0, {}, 28));
  writer.OnTraceEvent(Ev(TraceEventType::kDispatchLockout, 60.0, vmm, -1, 12.0));
}

TEST(ChromeTraceTest, JsonIsWellFormed) {
  ChromeTraceWriter writer;
  FeedScenario(writer);
  writer.Counter(ChromeTraceWriter::kSimPid, 50.0, "dpc queue", 3.0);
  const JsonLintResult lint = LintJson(writer.ToJson());
  EXPECT_TRUE(lint.valid) << lint.error << " at offset " << lint.error_offset;
  EXPECT_TRUE(lint.HasTopLevelKey("traceEvents"));
  EXPECT_TRUE(lint.HasTopLevelKey("displayTimeUnit"));
}

TEST(ChromeTraceTest, BeginEndEventsBalancePerTrack) {
  ChromeTraceWriter writer;
  FeedScenario(writer);
  // The context switch leaves a thread slice open; serialization must close
  // it, so count phases in the rendered JSON, not in the stored records.
  const std::string json = writer.ToJson();
  std::map<char, int> phases;
  for (std::size_t pos = 0; (pos = json.find("\"ph\": \"", pos)) != std::string::npos;) {
    pos += 7;
    ++phases[json[pos]];
  }
  EXPECT_EQ(phases['B'], phases['E']);
  EXPECT_GT(phases['B'], 0);
  EXPECT_EQ(phases['X'], 1);  // the lockout window
  EXPECT_EQ(phases['i'], 1);  // the thread-ready mark
}

TEST(ChromeTraceTest, NestingNeverGoesNegativeAndTimestampsAreMonotonic) {
  ChromeTraceWriter writer;
  FeedScenario(writer);
  std::map<std::pair<int, int>, int> depth;
  std::map<std::pair<int, int>, double> last_ts;
  for (const JsonValue& record : Records(writer)) {
    const std::string phase = record.StringOr("ph", "");
    if (phase == "M") {
      continue;
    }
    const int pid = static_cast<int>(record.NumberOr("pid", -1));
    const int tid = static_cast<int>(record.NumberOr("tid", -1));
    const double ts = record.NumberOr("ts", -1);
    const std::pair<int, int> track{pid, tid};
    if (last_ts.count(track) != 0) {
      EXPECT_GE(ts, last_ts[track]) << "track " << pid << "/" << tid;
    }
    last_ts[track] = ts;
    if (phase == "B") {
      ++depth[track];
    } else if (phase == "E") {
      EXPECT_GT(depth[track], 0) << "E with no open B on track " << tid;
      --depth[track];
    }
  }
  // The ISR nested inside the VMM section on the interrupt track.
  EXPECT_EQ((depth[{ChromeTraceWriter::kSimPid, ChromeTraceWriter::kInterruptTid}]), 0);
}

// Events live in segments of 256, 512, 1024, ... events. Thousands of ISR
// slices spread over six of them while a VMM section, opened in the first
// segment, stays open across every boundary; a host slice is recorded
// before the section and a counter sample among the ISRs, and the run ends
// inside a thread slice. Each record must come back once and in order, the
// texts where they were recorded, the trace (past the 1 MiB stream block)
// must reach the file intact, and the two open slices must be closed at the
// last timestamp.
TEST(ChromeTraceTest, SegmentedStoreKeepsRecordsAcrossSegments) {
  ChromeTraceWriter writer;
  const std::size_t metadata = writer.event_count();
  const kernel::Label vmm{"VMM", "_mmFindContig"};
  const kernel::Label isr{"LATDRV", "_PitIsr"};
  writer.CompleteSlice(ChromeTraceWriter::kHostPid, 1, 0.0, 1.0, "host slice");
  writer.OnTraceEvent(Ev(TraceEventType::kSectionStart, 1.0, vmm, -1, 5.0));
  constexpr int kIsrs = 8000;
  constexpr int kCounterAfter = 5000;
  for (int i = 0; i < kIsrs; ++i) {
    if (i == kCounterAfter) {
      writer.Counter(ChromeTraceWriter::kSimPid, 2.0 + i, "depth", 1.0);
    }
    writer.OnTraceEvent(Ev(TraceEventType::kIsrEnter, 2.0 + i, isr, 0));
    writer.OnTraceEvent(Ev(TraceEventType::kIsrExit, 2.5 + i, isr, 0, 0.5));
  }
  writer.OnTraceEvent(Ev(TraceEventType::kContextSwitch, kIsrs + 3.0, {}, 28));
  const std::size_t stored = metadata + 3 + 2 * kIsrs + 1;
  EXPECT_EQ(writer.event_count(), stored);
  EXPECT_GT(stored, std::size_t{256 + 512 + 1024 + 2048 + 4096});

  const std::vector<JsonValue> records = Records(writer);
  EXPECT_EQ(records.size(), stored);
  std::vector<double> isr_starts;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonValue& record = records[i];
    const std::string phase = record.StringOr("ph", "");
    const JsonValue* args = record.Find("args");
    if (phase == "B" && args != nullptr && args->Find("line") != nullptr) {
      isr_starts.push_back(record.NumberOr("ts", -1));
    }
    if (phase == "X") {
      EXPECT_EQ(i, metadata) << "the host slice comes right after the track names";
    }
    if (phase == "C") {
      EXPECT_EQ(isr_starts.size(), static_cast<std::size_t>(kCounterAfter))
          << "the counter sample comes after the ISRs recorded before it";
    }
  }
  ASSERT_EQ(isr_starts.size(), static_cast<std::size_t>(kIsrs));
  for (int i = 0; i < kIsrs; ++i) {
    if (isr_starts[i] != 2.0 + i) {
      ADD_FAILURE() << "ISR " << i << " starts at " << isr_starts[i];
      break;
    }
  }

  const std::string json = writer.ToJson();
  EXPECT_GT(json.size(), std::size_t{1} << 20);
  const std::string path = testutil::TempFileFor("segments.trace.json");
  ASSERT_TRUE(writer.WriteFile(path));
  EXPECT_TRUE(ReadFile(path) == json) << "WriteFile differs from ToJson";
  std::filesystem::remove(path);
  std::map<char, int> phases;
  for (std::size_t pos = 0; (pos = json.find("\"ph\": \"", pos)) != std::string::npos;) {
    pos += 7;
    ++phases[json[pos]];
  }
  EXPECT_EQ(phases['B'], kIsrs + 2);
  EXPECT_EQ(phases['E'], phases['B']);
  const std::string closers =
      ",\n {\"ph\": \"E\", \"pid\": 1, \"tid\": 1, \"ts\": 8003.000000}"
      ",\n {\"ph\": \"E\", \"pid\": 1, \"tid\": 3, \"ts\": 8003.000000}"
      "\n], \"displayTimeUnit\": \"ms\"}\n";
  ASSERT_GE(json.size(), closers.size());
  EXPECT_EQ(json.substr(json.size() - closers.size()), closers);
  EXPECT_TRUE(LintJson(json).valid);
}

// The output is a function of what was recorded: rendering twice, or to a
// file and to a string, gives the same bytes, and events recorded after a
// render show up in the next one with the track state of the events before
// them. Core 1's tracks are named at its first event, before the render,
// and not again; its thread slice, open at the first render (a closer ends
// it there), is closed by the stop recorded after it.
TEST(ChromeTraceTest, OutputDependsOnlyOnWhatWasRecorded) {
  const kernel::Label isr{"LATDRV", "_PitIsr"};
  std::vector<TraceEvent> before = {Ev(TraceEventType::kContextSwitch, 5.0, {}, 24),
                                    Ev(TraceEventType::kIsrEnter, 6.0, isr, 0)};
  std::vector<TraceEvent> after = {Ev(TraceEventType::kIsrExit, 7.0, isr, 0, 1.0),
                                   Ev(TraceEventType::kThreadStop, 8.0, {}, 24),
                                   Ev(TraceEventType::kContextSwitch, 9.0, {}, 28)};
  for (TraceEvent& event : before) {
    event.core = 1;
  }
  for (TraceEvent& event : after) {
    event.core = 1;
  }
  ChromeTraceWriter writer;
  ChromeTraceWriter at_once;
  for (const TraceEvent& event : before) {
    writer.OnTraceEvent(event);
    at_once.OnTraceEvent(event);
  }
  const std::string first = writer.ToJson();
  EXPECT_EQ(writer.ToJson(), first);
  const std::string path = testutil::TempFileFor("rerender.trace.json");
  ASSERT_TRUE(writer.WriteFile(path));
  EXPECT_TRUE(ReadFile(path) == first) << "WriteFile differs from ToJson";
  std::filesystem::remove(path);
  EXPECT_EQ(at_once.ToJson(), first);
  EXPECT_NE(first.find("{\"ph\": \"E\", \"pid\": 1, \"tid\": 13, \"ts\": 6.000000}"),
            std::string::npos)
      << "the open thread slice is closed at the first render";

  writer.Counter(ChromeTraceWriter::kSimPid, 6.5, "depth", 1.0);
  at_once.Counter(ChromeTraceWriter::kSimPid, 6.5, "depth", 1.0);
  for (const TraceEvent& event : after) {
    writer.OnTraceEvent(event);
    at_once.OnTraceEvent(event);
  }
  const std::string second = writer.ToJson();
  EXPECT_EQ(second, at_once.ToJson());
  EXPECT_EQ(writer.event_count(), at_once.event_count());
  const auto count = [&second](std::string_view needle) {
    std::size_t n = 0;
    for (std::size_t pos = 0; (pos = second.find(needle, pos)) != std::string::npos; ++pos) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"cpu1: thread\""), 1u);
  EXPECT_EQ(count("\"ph\": \"E\", \"pid\": 1, \"tid\": 13, \"ts\": 8.000000}"), 1u)
      << "the stop closes the slice the first render saw open";
  EXPECT_EQ(count("\"ph\": \"E\", \"pid\": 1, \"tid\": 13, \"ts\": 9.000000}"), 1u)
      << "the second switch's slice is closed at the end";
  EXPECT_EQ(count("\"ph\": \"B\""), count("\"ph\": \"E\""));
  EXPECT_NE(second.find("\"name\": \"depth\""), std::string::npos);
}

TEST(ChromeTraceTest, TrackMetadataAndHostSlices) {
  ChromeTraceWriter writer;
  writer.SetProcessName(ChromeTraceWriter::kHostPid, "matrix runner (host)");
  writer.SetThreadName(ChromeTraceWriter::kHostPid, 1, "worker 0");
  writer.CompleteSlice(ChromeTraceWriter::kHostPid, 1, 0.0, 1500.0, "cell 0",
                       {{"seed", "1999"}}, {{"trial", 0.0}});
  const std::string json = writer.ToJson();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("matrix runner (host)"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1500"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": \"1999\""), std::string::npos);
  const JsonLintResult lint = LintJson(json);
  EXPECT_TRUE(lint.valid) << lint.error;
}

TEST(ChromeTraceTest, EscapesNamesAndSentinelIsIgnored) {
  ChromeTraceWriter writer;
  writer.CompleteSlice(ChromeTraceWriter::kSimPid, ChromeTraceWriter::kThreadTid, 1.0, 1.0,
                       "quote \" backslash \\ newline \n");
  const std::size_t before = writer.event_count();
  writer.OnTraceEvent(Ev(TraceEventType::kTraceEventTypeCount, 3.0));
  EXPECT_EQ(writer.event_count(), before);  // sentinel maps to nothing
  const JsonLintResult lint = LintJson(writer.ToJson());
  EXPECT_TRUE(lint.valid) << lint.error << " at offset " << lint.error_offset;
}

TEST(ChromeTraceTest, EmptyWriterStillSerializes) {
  ChromeTraceWriter writer;  // only the track-name metadata from the ctor
  const JsonLintResult lint = LintJson(writer.ToJson());
  EXPECT_TRUE(lint.valid) << lint.error;
  EXPECT_TRUE(lint.HasTopLevelKey("traceEvents"));
}

TEST(ChromeTraceTest, WriteFileReportsAFailedWrite) {
  ChromeTraceWriter writer;
  FeedScenario(writer);
  EXPECT_FALSE(writer.WriteFile(testutil::TempDirFor("missing") + "/no/such/dir/trace.json"));
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  // The trace fits the stream's buffer, so the write fails only when the
  // file is flushed on close.
  EXPECT_FALSE(writer.WriteFile("/dev/full"));
}

std::string Fixed6(double value) {
  std::string out;
  AppendFixed6(out, value);
  return out;
}

std::string Printf6(double value) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

// AppendFixed6 must match printf("%.6f") byte for byte: trace timestamps
// (cycles / 300 MHz), exact decimal halfway cases, negatives and -0.0,
// integer args, and magnitudes far past any trace timestamp. Values below
// 2^43 take an exact integer path, so the edges of that path are covered
// too: both sides of 2^43, the smallest normals and the subnormals, the
// dyadic fractions j/2^k (k = 7 gives the ties that round to even), and
// random bit patterns over every exponent.
TEST(ChromeTraceTest, Fixed6MatchesPrintf) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.5, 1e-7, 4e-7, 5e-7, 6e-7, -5e-7,
                                1e15, 1e16, 1e17, 1e22, 1e23, 1e300, DBL_MAX, -DBL_MAX,
                                DBL_MIN, std::numeric_limits<double>::denorm_min()};
  constexpr double kExactLimit = 8796093022208.0;  // 2^43
  const double inf = std::numeric_limits<double>::infinity();
  for (const double sign : {1.0, -1.0}) {
    double below = sign * kExactLimit;
    double above = sign * kExactLimit;
    for (int i = 0; i < 64; ++i) {
      values.push_back(below);
      values.push_back(above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, sign * inf);
    }
    double normal = sign * DBL_MIN;
    double subnormal = std::nextafter(sign * DBL_MIN, 0.0);
    for (int i = 0; i < 64; ++i) {
      values.push_back(normal);
      values.push_back(subnormal);
      normal = std::nextafter(normal, sign * inf);
      subnormal = std::nextafter(subnormal, 0.0);
    }
    values.push_back(sign * std::numeric_limits<double>::denorm_min());
  }
  std::mt19937_64 rng(19);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t cycles = rng() >> 14;  // up to 2^50
    values.push_back(static_cast<double>(cycles) / 300.0);
    values.push_back(-static_cast<double>(cycles) / 300.0);
  }
  // n/128 for odd n ends in ...5 at the seventh decimal: an exact halfway
  // case that rounds to even, also with a large integer part.
  for (int n = 1; n < 20000; n += 2) {
    values.push_back(n / 128.0);
    values.push_back(-n / 128.0);
    values.push_back(static_cast<double>(rng() >> 24) + n / 128.0);
  }
  for (int k = 1; k <= 30; ++k) {
    const double scale = std::ldexp(1.0, -k);
    for (std::uint64_t j = 1; j < 2000; j += 2) {
      values.push_back(static_cast<double>(j) * scale);
      values.push_back(static_cast<double>((rng() >> 11) | 1) * scale);  // j < 2^53: exact
    }
  }
  for (int line = -1000; line <= 1000; ++line) {
    values.push_back(static_cast<double>(line));
  }
  std::uniform_real_distribution<double> exponent(15.0, 300.0);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(std::pow(10.0, exponent(rng)));
  }
  // Random bit patterns: sign and mantissa uniform, the biased exponent
  // uniform over every finite exponent for a few, and for the rest over
  // the subnormals, the integer path and the first binades past it (the
  // long printf renderings of huge values would dominate the test's time).
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t bits = rng();
    const std::uint64_t biased =
        i % 50 == 0 ? (bits >> 52) % 2047 : (bits >> 52) % (1023 + 43 + 16);
    values.push_back(std::bit_cast<double>((bits & 0x800fffffffffffffull) | (biased << 52)));
  }
  int mismatches = 0;
  for (const double value : values) {
    if (Fixed6(value) != Printf6(value) && ++mismatches <= 5) {
      ADD_FAILURE() << Fixed6(value) << " != " << Printf6(value);
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << values.size() << " values";
  EXPECT_GE(values.size(), 1000000u);
}

TEST(ChromeTraceTest, NonFiniteNumbersWriteZero) {
  EXPECT_EQ(Fixed6(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(Fixed6(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(Fixed6(-std::numeric_limits<double>::infinity()), "0");
  ChromeTraceWriter writer;
  writer.Counter(ChromeTraceWriter::kSimPid, std::numeric_limits<double>::infinity(), "depth",
                 std::numeric_limits<double>::quiet_NaN());
  const std::string json = writer.ToJson();
  EXPECT_NE(json.find("\"ts\": 0, \"name\": \"depth\", \"args\": {\"value\": 0}"),
            std::string::npos)
      << json;
  EXPECT_TRUE(LintJson(json).valid);
}

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// One virtual second of a traced cell (after a short warm-up), followed by
// a hand-fed spin and IPI and host-side slices with string and number args
// and one name that needs escaping — every event shape and name form the
// writer renders. WriteFile
// must produce exactly the bytes of ToJson.
std::string GoldenTrace(kernel::KernelProfile os, workload::StressProfile stress,
                        double queue_sample_ms) {
  ChromeTraceWriter writer;
  MetricsRegistry metrics;
  lab::LabConfig config;
  config.os = std::move(os);
  config.stress = std::move(stress);
  config.stress_minutes = 1.0 / 60.0;
  config.warmup_seconds = 0.5;
  config.seed = 11;
  config.obs.trace_sink = &writer;
  if (queue_sample_ms > 0.0) {
    config.obs.metrics = &metrics;
    config.obs.queue_sample_ms = queue_sample_ms;
  }
  lab::RunLatencyExperiment(config);
  // Spinlock contention is rare in a one-second run: add one spin and one
  // IPI by hand, on a core the run never used.
  const kernel::Label lock{"NTOSKRNL", "_KiDispatcherLock"};
  TraceEvent spin = Ev(TraceEventType::kSpinlockWait, 2.0e6, lock, -1, 3.25);
  spin.core = 3;
  writer.OnTraceEvent(spin);
  TraceEvent ipi = Ev(TraceEventType::kIpi, 2.0e6 + 7.0, {"HAL", "_HalRequestIpi"}, -1, 1.5);
  ipi.core = 3;
  writer.OnTraceEvent(ipi);
  writer.SetProcessName(ChromeTraceWriter::kHostPid, "matrix runner (host)");
  writer.SetThreadName(ChromeTraceWriter::kHostPid, 1, "worker 0");
  writer.CompleteSlice(ChromeTraceWriter::kHostPid, 1, 12.5, 1500000.25,
                       "Windows 98 / games / prio 28", {{"seed", "1999"}},
                       {{"trial", 0.0}, {"samples", 1234.0}});
  writer.CompleteSlice(ChromeTraceWriter::kHostPid, 1, 1500020.0, 0.0000005,
                       "tab\tquote\" back\\slash\x01", {{"note", "line\nbreak"}}, {});
  const std::string json = writer.ToJson();
  const std::string path = testutil::TempFileFor("golden.trace.json");
  EXPECT_TRUE(writer.WriteFile(path));
  EXPECT_EQ(ReadFile(path), json);
  return json;
}

TEST(ChromeTraceTest, GoldenWin98GamesTraceBytes) {
  const std::string json =
      GoldenTrace(kernel::MakeWin98Profile(), workload::GamesStress(), 0.0);
  const JsonLintResult lint = LintJson(json);
  EXPECT_TRUE(lint.valid) << lint.error << " at offset " << lint.error_offset;
  std::printf("%zu bytes, fnv1a 0x%016llx\n", json.size(),
              static_cast<unsigned long long>(Fnv1a(json)));
  EXPECT_EQ(Fnv1a(json), 0xba92640bb91d0f33ull);
}

// SMP: per-core tracks are named lazily, and queue sampling adds 'C' events.
TEST(ChromeTraceTest, GoldenNtSmp2OfficeTraceBytes) {
  const std::string json =
      GoldenTrace(kernel::MakeNt4SmpProfile(2), workload::OfficeStress(), 1.0);
  const JsonLintResult lint = LintJson(json);
  EXPECT_TRUE(lint.valid) << lint.error << " at offset " << lint.error_offset;
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("cpu1: dpc"), std::string::npos);
  std::printf("%zu bytes, fnv1a 0x%016llx\n", json.size(),
              static_cast<unsigned long long>(Fnv1a(json)));
  EXPECT_EQ(Fnv1a(json), 0x4f6b1418067c74c9ull);
}

}  // namespace
}  // namespace wdmlat::obs
