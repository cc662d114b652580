// Scenario tests: combinations the paper's lab actually ran, end to end.

#include <gtest/gtest.h>

#include "src/drivers/latency_driver.h"
#include "src/drivers/periodic_load_tool.h"
#include "src/kernel/profile.h"
#include "src/lab/test_system.h"
#include "src/obs/kernel_metrics.h"
#include "src/obs/metrics.h"
#include "src/workload/stress_load.h"
#include "src/workload/stress_profile.h"
#include "src/workload/winstone.h"

namespace wdmlat {
namespace {

// Winstone with the default sound scheme on Windows 98: the configuration
// that produced the paper's Table 4 episodes. The suite must still complete
// (sounds degrade latency, not progress).
TEST(ScenarioTest, WinstoneWithSoundSchemeCompletesOn98) {
  lab::TestSystemOptions options;
  options.sound_scheme = vmm98::SchemeKind::kDefault;
  lab::TestSystem system(kernel::MakeWin98Profile(), 61, options);
  workload::WinstoneSuite suite(system.deps(), workload::BusinessWinstone97(),
                                system.ForkRng());
  double elapsed = 0.0;
  suite.Start([&](double seconds) { elapsed = seconds; });
  system.RunFor(900.0);
  EXPECT_TRUE(suite.finished());
  EXPECT_GT(system.sound_scheme()->sounds_played(), 20u);
  EXPECT_GT(elapsed, 1.0);
}

// Virus scanner + Winstone: file-heavy install phases trigger scans.
TEST(ScenarioTest, WinstoneWithScannerTriggersScans) {
  lab::TestSystemOptions options;
  options.virus_scanner = true;
  lab::TestSystem system(kernel::MakeWin98Profile(), 62, options);
  workload::WinstoneSuite suite(system.deps(), workload::BusinessWinstone97(),
                                system.ForkRng());
  suite.Start(nullptr);
  system.RunFor(900.0);
  EXPECT_TRUE(suite.finished());
  EXPECT_GT(system.virus_scanner()->scans(), 200u);
}

// The USB audio path is what the games workload streams through on 98: the
// per-frame interrupt traffic must show up while the stream runs.
TEST(ScenarioTest, GamesOn98StreamThroughUsbAudio) {
  lab::TestSystem system(kernel::MakeWin98Profile(), 63);
  workload::StressLoad load(system.deps(), workload::GamesStress(), system.ForkRng());
  load.Start();
  system.RunFor(5.0);
  ASSERT_NE(system.usb_audio_driver(), nullptr);
  // USB 1.1 frames at 1 kHz while the game's audio stream is open.
  EXPECT_NEAR(static_cast<double>(system.usb_audio_driver()->frames_processed()), 5000.0,
              100.0);
  // Driver-visible buffers at the 20 ms game audio period.
  EXPECT_NEAR(static_cast<double>(system.usb_audio_driver()->buffers_processed()), 250.0,
              10.0);
}

// On NT the same games load uses the PCI path: buffer-rate interrupts only.
TEST(ScenarioTest, GamesOnNtStreamThroughPciAudio) {
  lab::TestSystem system(kernel::MakeNt4Profile(), 63);
  workload::StressLoad load(system.deps(), workload::GamesStress(), system.ForkRng());
  load.Start();
  system.RunFor(5.0);
  ASSERT_NE(system.audio_driver(), nullptr);
  EXPECT_NEAR(static_cast<double>(system.audio_driver()->buffers_processed()), 250.0, 10.0);
}

// Trace the measurement stack itself: every sample involves a timer DPC and
// (at least) two context switches (measurement thread + control app).
TEST(ScenarioTest, TraceAccountsForTheMeasurementCycle) {
  lab::TestSystemOptions quiet;
  quiet.kernel_self_noise = false;
  lab::TestSystem system(kernel::MakeNt4Profile(), 64, quiet);
  obs::MetricsRegistry metrics;
  obs::KernelMetricsCollector collector(metrics);
  system.kernel().dispatcher().set_trace_sink(&collector);
  drivers::LatencyDriver driver(system.kernel(), drivers::LatencyDriver::Config{});
  driver.Start();
  system.RunFor(10.0);
  const double samples = static_cast<double>(driver.sample_count());
  ASSERT_GT(samples, 1000.0);
  const double dpcs = metrics.counter("kernel.dpc.count");
  const double switches = metrics.counter("kernel.context_switch.count");
  EXPECT_GE(dpcs, samples * 0.95);
  EXPECT_GE(switches, samples * 1.9);
}

// A live datapump and the measurement driver coexist: the datapump's DPC
// load is visible in the measured DPC-interrupt latency (the Section 6.1
// "examine its impact on other kernel mode services" use case).
TEST(ScenarioTest, DpcDatapumpDegradesOtherDpcService) {
  auto run = [](bool with_datapump) {
    lab::TestSystemOptions quiet;
    quiet.kernel_self_noise = false;
    lab::TestSystem system(kernel::MakeNt4Profile(), 65, quiet);
    drivers::LatencyDriver driver(system.kernel(), drivers::LatencyDriver::Config{});
    driver.Start();
    drivers::PeriodicTask::Config config;
    config.modality = drivers::Modality::kDpc;
    config.period_ms = 8.0;
    config.compute_ms = 2.0;  // a gross 2 ms DPC, as a 98 soft modem needs
    drivers::PeriodicTask datapump(system.kernel(), config);
    if (with_datapump) {
      datapump.Start();
    }
    system.RunFor(60.0);
    return driver.thread_latency().QuantileMs(0.99);
  };
  const double clean = run(false);
  const double loaded = run(true);
  // Timer expiries are tick-quantized, so the measurement DPC and the
  // datapump DPC expire on the same tick and the FIFO queue serves the
  // measurement DPC first — but the measurement *thread* then waits out the
  // datapump's entire 2 ms DPC body (DPCs run before any thread). The
  // degradation shows up squarely in thread latency, exactly why "gross" DPC
  // processing hurts every thread-based service in the system.
  EXPECT_GT(loaded, clean + 1.0);
}

}  // namespace
}  // namespace wdmlat
