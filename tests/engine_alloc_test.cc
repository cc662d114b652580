// Proves the engine hot path is allocation-free in steady state: after a
// warmup that grows the pool slabs and the calendar vector to their
// high-water marks, ScheduleAfter + Step with dispatcher-sized captures must
// perform zero heap allocations — including same-instant bursts and a
// calendar that keeps hundreds of far-future events pending. Asserted with a
// counting global operator new —
// which is why this test lives in its own binary (each tests/*.cc builds to
// a separate executable; see tests/CMakeLists.txt).
//
// The HotPathBudget suite below applies the same counter to a whole loaded
// cell: the host work per virtual second (engine events, trace events, heap
// allocations) is as deterministic as the latency samples, so it is gated
// exactly instead of timed.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>

#include "src/drivers/cause_tool.h"
#include "src/drivers/latency_driver.h"
#include "src/kernel/kernel.h"
#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/lab/test_system.h"
#include "src/obs/anatomy.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/kernel_metrics.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_fanout.h"
#include "src/sim/engine.h"
#include "src/workload/stress_load.h"
#include "src/workload/stress_profile.h"

namespace {

// Counting is off by default so gtest's own bookkeeping never trips it; each
// test arms it only around the region under scrutiny and reads the count
// before making any gtest assertion (which may itself allocate).
bool g_counting = false;
std::uint64_t g_allocations = 0;

struct AllocationScope {
  AllocationScope() {
    g_allocations = 0;
    g_counting = true;
  }
  std::uint64_t Finish() {
    g_counting = false;
    return g_allocations;
  }
  ~AllocationScope() { g_counting = false; }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting) {
    ++g_allocations;
  }
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) & ~(alignment - 1);
  if (void* p = std::aligned_alloc(alignment, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

// Out of line: inlined into a delete expression, the std::free would meet
// the pointer of the operator new call in view and g++ would take the pair
// for a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wdmlat::sim {
namespace {

struct FakeFrame {
  std::uint64_t ticks = 0;
};

// Grow the calendar vector and the pool slabs to `pending` events, past
// anything the measured loop keeps stored, then fire them all.
void WarmEngine(Engine& engine, int pending) {
  for (int i = 0; i < pending; ++i) {
    engine.ScheduleAfter(static_cast<Cycles>(i), [] {});
  }
  engine.RunUntilIdle();
}

TEST(EngineAllocTest, SteadyStateScheduleFireIsAllocationFree) {
  Engine engine;
  FakeFrame frame;
  WarmEngine(engine, 256);
  AllocationScope scope;
  for (int i = 0; i < 100000; ++i) {
    // The dispatcher's hottest shape: a two-pointer capture.
    engine.ScheduleAfter(10, [&engine, &frame] {
      (void)engine.now();
      ++frame.ticks;
    });
    engine.Step();
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(frame.ticks, 100000u);
}

TEST(EngineAllocTest, SteadyStateCancelChurnIsAllocationFree) {
  Engine engine;
  std::uint64_t fired = 0;
  EventHandle completion;
  WarmEngine(engine, 256);
  AllocationScope scope;
  for (int i = 0; i < 100000; ++i) {
    completion.Cancel();
    completion = engine.ScheduleAfter(100, [&fired] { ++fired; });
    if (i % 3 == 0) {
      engine.Step();
    }
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(fired, 0u);
}

TEST(EngineAllocTest, SameInstantBurstIsAllocationFree) {
  // Bursts of 64 same-instant events, as a PIT tick's worth of dispatcher
  // traffic: each lands in front of its peers and fires from the back in
  // insertion order. The whole burst/drain cycle must not allocate.
  Engine engine;
  std::uint64_t fired = 0;
  WarmEngine(engine, 256);
  AllocationScope scope;
  for (int i = 0; i < 2000; ++i) {
    const Cycles tick = engine.now() + 1000;
    for (int j = 0; j < 64; ++j) {
      engine.ScheduleAt(tick, [&fired] { ++fired; });
    }
    engine.RunUntil(tick);
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, 2000u * 64u);
}

TEST(EngineAllocTest, FarFutureScheduleFireIsAllocationFree) {
  // Every iteration advances time by kStep while scheduling an event 517
  // steps ahead, so about 517 events stay pending and every insert scans to
  // the front of the vector, since it fires after all of them. The vector
  // must serve that out of its warmed capacity.
  constexpr Cycles kStep = Cycles{1} << 16;
  Engine engine;
  std::uint64_t fired = 0;
  WarmEngine(engine, 1024);
  AllocationScope scope;
  for (int i = 0; i < 4000; ++i) {
    engine.ScheduleAfter(517 * kStep, [&fired] { ++fired; });
    engine.RunUntil(engine.now() + kStep);
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  // All but the last 517 steps' worth of events fired.
  EXPECT_GT(fired, 3000u);
}

TEST(EngineAllocTest, OversizedCaptureDoesAllocate) {
  // Sanity check that the hook actually counts: a capture past the inline
  // budget must take the heap fallback.
  Engine engine;
  char big[128] = {};
  AllocationScope scope;
  engine.ScheduleAfter(1, [big] { (void)big[0]; });
  const std::uint64_t allocations = scope.Finish();
  EXPECT_GE(allocations, 1u);
  engine.RunUntilIdle();
}

}  // namespace
}  // namespace wdmlat::sim

namespace wdmlat {
namespace {

// Counts trace events and folds each one, field by field, into an FNV-1a
// hash, so the budget pins the order and content of the dispatcher's event
// stream and not just its length. Optionally forwards every event to a
// second sink (a ChromeTraceWriter in the traced budget).
class CountingTraceSink : public kernel::TraceSink {
 public:
  explicit CountingTraceSink(kernel::TraceSink* forward = nullptr) : forward_(forward) {}

  void OnTraceEvent(const kernel::TraceEvent& event) override {
    if (forward_ != nullptr) {
      forward_->OnTraceEvent(event);
    }
    ++events_;
    Mix(static_cast<std::uint64_t>(event.type));
    Mix(event.tsc);
    Mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(event.arg)));
    Mix(event.duration);
    Mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(event.core)));
    MixString(event.label.module);
    MixString(event.label.function);
  }
  std::uint64_t events() const { return events_; }
  std::uint64_t hash() const { return hash_; }

 private:
  void MixByte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ull;
  }
  void Mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  // The terminating NUL separates the module from the function.
  void MixString(const char* s) {
    do {
      MixByte(static_cast<unsigned char>(*s));
    } while (*s++ != '\0');
  }

  kernel::TraceSink* forward_;
  std::uint64_t events_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct HotPathCounts {
  std::uint64_t engine_events = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t allocations = 0;
};

// Attaches observers to the warmed-up cell and returns the sink that
// receives every trace event behind the counting sink.
using AttachSinks = std::function<kernel::TraceSink*(lab::TestSystem&, drivers::LatencyDriver&)>;

// Ten virtual seconds of a loaded measurement cell after a 2 s warm-up:
// the unit of the Figure 4 grid, with every count taken over the measured
// window only. `attach`, if set, runs after the warm-up.
HotPathCounts MeasureLoadedCell(kernel::KernelProfile profile,
                                const workload::StressProfile& stress,
                                const AttachSinks& attach = nullptr) {
  lab::TestSystem system(std::move(profile), 42);
  workload::StressLoad load(system.deps(), stress, system.ForkRng());
  drivers::LatencyDriver driver(system.kernel(), drivers::LatencyDriver::Config{});
  load.Start();
  driver.Start();
  system.RunFor(2.0);

  CountingTraceSink sink(attach ? attach(system, driver) : nullptr);
  system.kernel().SetTraceSink(&sink);
  const std::uint64_t events_before = system.engine().events_processed();
  AllocationScope scope;
  system.RunFor(10.0);
  HotPathCounts counts;
  counts.allocations = scope.Finish();
  counts.engine_events = system.engine().events_processed() - events_before;
  counts.trace_events = sink.events();
  counts.trace_hash = sink.hash();
  system.kernel().SetTraceSink(nullptr);
  return counts;
}

// Engine events, trace events and the trace-stream hash are exact: any
// change to them is a change in what the simulator does and must show up in
// the diff that makes it. Allocations are a ceiling: a change that removes
// hot-path allocations lowers the ceiling to the printed count in the same
// diff. No allocation is left per latency sample: what remains is std::deque
// node churn in the event-waiter, ready and DPC queues, and the calendar
// vector's and event pool's high-water growth.
void ExpectBudget(const HotPathCounts& counts, std::uint64_t engine_events,
                  std::uint64_t trace_events, std::uint64_t trace_hash,
                  std::uint64_t max_allocations) {
  EXPECT_EQ(counts.engine_events, engine_events);
  EXPECT_EQ(counts.trace_events, trace_events);
  EXPECT_EQ(counts.trace_hash, trace_hash);
  EXPECT_LE(counts.allocations, max_allocations);
  std::printf(
      "engine events %llu, trace events %llu, trace hash 0x%016llx, allocations %llu "
      "(ceiling %llu)\n",
      static_cast<unsigned long long>(counts.engine_events),
      static_cast<unsigned long long>(counts.trace_events),
      static_cast<unsigned long long>(counts.trace_hash),
      static_cast<unsigned long long>(counts.allocations),
      static_cast<unsigned long long>(max_allocations));
}

TEST(HotPathBudget, Win98Games) {
  ExpectBudget(MeasureLoadedCell(kernel::MakeWin98Profile(), workload::GamesStress()),
               121066, 167119, 0xcbff71160d2b76ebull, 655);
}

// The same cell with a ChromeTraceWriter behind the counting sink. The
// writer stores compact records and renders names only when writing, so
// tracing adds only its record segments to the plain cell's count: nine
// allocations, doubling from 256 records.
TEST(HotPathBudget, Win98GamesTraced) {
  obs::ChromeTraceWriter writer;
  ExpectBudget(MeasureLoadedCell(kernel::MakeWin98Profile(), workload::GamesStress(),
                                 [&writer](lab::TestSystem&, drivers::LatencyDriver&) {
                                   return &writer;
                                 }),
               121066, 167119, 0xcbff71160d2b76ebull, 664);
}

// The obs stack of an observed lab run (metrics, 1 ms queue sampling, the
// episode flight recorder with the cause tool armed, and the anatomy), wired
// as lab::RunLatencyExperimentOn wires it, behind one fanout.
struct ObservedStack {
  static constexpr double kThresholdMs = 4.0;

  ObservedStack(lab::TestSystem& system, drivers::LatencyDriver& driver)
      : collector(metrics),
        sampler(system.kernel(), &metrics, nullptr, 1.0),
        cause_tool(system.kernel(), driver, CauseToolConfig()),
        recorder(system.kernel(), ring, RecorderConfig()) {
    cause_tool.Start();
    recorder.Arm(driver, &cause_tool);
    fanout.Add(&collector);
    fanout.Add(&ring);
    fanout.Add(&anatomy);
    driver.AddLongLatencyCallback(kThresholdMs, [this, &driver](double ms) {
      anatomy.OnEpisode(ms, driver.last_stamps().dpc_tsc, driver.last_stamps().thread_tsc);
    });
    sampler.Start();
  }
  static drivers::CauseTool::Config CauseToolConfig() {
    drivers::CauseTool::Config config;
    config.threshold_ms = kThresholdMs;
    return config;
  }
  static obs::EpisodeFlightRecorder::Config RecorderConfig() {
    obs::EpisodeFlightRecorder::Config config;
    config.threshold_ms = kThresholdMs;
    return config;
  }

  obs::MetricsRegistry metrics;
  obs::KernelMetricsCollector collector;
  obs::QueueDepthSampler sampler;
  drivers::CauseTool cause_tool;
  kernel::TraceRing ring;
  obs::EpisodeFlightRecorder recorder;
  obs::LatencyAnatomy anatomy;
  obs::TraceFanout fanout;
};

// The sinks are passive and the cause tool's PIT pre-hook costs no simulated
// time, so the trace stream is Win98Games's exactly; the engine runs only the
// sampler's 10,000 samples more. What the obs stack adds is its storage's
// growth to its high-water marks (the anatomy's span blocks, the recorder's
// episode summaries, tallied in place over the ring it borrows, with no copy
// of events or cause-tool samples) and each metric series' one-time creation.
TEST(HotPathBudget, Win98GamesObserved) {
  std::unique_ptr<ObservedStack> stack;
  ExpectBudget(MeasureLoadedCell(kernel::MakeWin98Profile(), workload::GamesStress(),
                                 [&stack](lab::TestSystem& system, drivers::LatencyDriver& driver) {
                                   stack = std::make_unique<ObservedStack>(system, driver);
                                   return &stack->fanout;
                                 }),
               131066, 167119, 0xcbff71160d2b76ebull, 947);
  EXPECT_GT(stack->metrics.counter("kernel.isr.count"), 0.0);
  EXPECT_GT(stack->metrics.counter("kernel.queue_samples"), 0.0);
}

TEST(HotPathBudget, Nt4Games) {
  ExpectBudget(MeasureLoadedCell(kernel::MakeNt4Profile(), workload::GamesStress()),
               73004, 108847, 0x201732abb9f7175dull, 473);
}

TEST(HotPathBudget, Nt4Smp2Office) {
  ExpectBudget(MeasureLoadedCell(kernel::MakeNt4SmpProfile(2), workload::OfficeStress()),
               69847, 89759, 0xc36b2e7604a21b76ull, 446);
}

}  // namespace
}  // namespace wdmlat
