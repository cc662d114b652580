#include <gtest/gtest.h>

#include "src/hw/audio_device.h"
#include "src/hw/ide_disk.h"
#include "src/hw/interrupt_controller.h"
#include "src/hw/nic.h"
#include "src/hw/pit.h"
#include "src/hw/tsc.h"
#include "src/hw/usb_uhci.h"
#include "src/sim/engine.h"

namespace wdmlat::hw {
namespace {

using kernel::Irql;

TEST(InterruptControllerTest, AssertSetsPendingAndNotifies) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("dev", static_cast<Irql>(10));
  int notifications = 0;
  pic.set_pending_notifier([&] { ++notifications; });
  EXPECT_FALSE(pic.pending(line));
  pic.Assert(line);
  EXPECT_TRUE(pic.pending(line));
  EXPECT_EQ(notifications, 1);
}

TEST(InterruptControllerTest, EdgeLostWhilePending) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("dev", static_cast<Irql>(10));
  pic.Assert(line);
  pic.Assert(line);
  pic.Assert(line);
  EXPECT_EQ(pic.dropped_edges(), 2u);
  EXPECT_EQ(pic.asserts(line), 3u);
}

TEST(InterruptControllerTest, AcknowledgeReturnsAssertTime) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("dev", static_cast<Irql>(10));
  engine.ScheduleAt(5000, [&] { pic.Assert(line); });
  engine.RunUntilIdle();
  EXPECT_EQ(pic.Acknowledge(line), 5000u);
  EXPECT_FALSE(pic.pending(line));
}

TEST(InterruptControllerTest, HighestPendingRespectsIrqlOrderAndCeiling) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int low = pic.ConnectLine("low", static_cast<Irql>(5));
  const int high = pic.ConnectLine("high", static_cast<Irql>(20));
  pic.Assert(low);
  pic.Assert(high);
  EXPECT_EQ(pic.HighestPending(Irql::kPassive, 0), high);
  pic.Acknowledge(high);
  EXPECT_EQ(pic.HighestPending(Irql::kPassive, 0), low);
  // A ceiling at or above the line's IRQL masks it.
  EXPECT_EQ(pic.HighestPending(static_cast<Irql>(5), 0), InterruptController::kNoLine);
  EXPECT_EQ(pic.HighestPending(static_cast<Irql>(4), 0), low);
}

// With no router every latched line goes to core 0; with one, a core sees
// only the lines routed to it.
TEST(InterruptControllerTest, HighestPendingSeesOnlyTheCoresLines) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int low = pic.ConnectLine("low", static_cast<Irql>(5));
  const int high = pic.ConnectLine("high", static_cast<Irql>(20));
  pic.Assert(low);
  EXPECT_EQ(pic.target_core(low), 0);
  EXPECT_EQ(pic.HighestPending(Irql::kPassive, 1), InterruptController::kNoLine);
  pic.set_irq_router([high](int line) { return line == high ? 1 : 0; });
  pic.Assert(high);
  EXPECT_EQ(pic.target_core(high), 1);
  EXPECT_EQ(pic.HighestPending(Irql::kPassive, 0), low);
  EXPECT_EQ(pic.HighestPending(Irql::kPassive, 1), high);
}

TEST(PitTest, TicksAtProgrammedFrequency) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("PIT", Irql::kClock);
  Pit pit(engine, pic, line);
  pit.SetFrequencyHz(1000.0);
  int asserts = 0;
  pic.set_pending_notifier([&] {
    ++asserts;
    pic.Acknowledge(line);
  });
  pit.Start();
  engine.RunUntil(sim::SecToCycles(1.0));
  EXPECT_EQ(asserts, 1000);
}

TEST(PitTest, FrequencyChangeTakesEffect) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("PIT", Irql::kClock);
  Pit pit(engine, pic, line);
  pit.SetFrequencyHz(100.0);
  int asserts = 0;
  pic.set_pending_notifier([&] {
    ++asserts;
    pic.Acknowledge(line);
  });
  pit.Start();
  engine.RunUntil(sim::SecToCycles(1.0));
  EXPECT_NEAR(asserts, 100, 1);
  pit.SetFrequencyHz(1000.0);
  engine.RunUntil(sim::SecToCycles(2.0));
  // The tick already scheduled at the old period fires first (10 ms), then
  // 1 kHz: 100 + 1 + 990.
  EXPECT_NEAR(asserts, 1091, 5);
}

TEST(PitTest, StopHaltsTicks) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("PIT", Irql::kClock);
  Pit pit(engine, pic, line);
  pit.SetFrequencyHz(1000.0);
  pic.set_pending_notifier([&] { pic.Acknowledge(line); });
  pit.Start();
  engine.RunUntil(sim::SecToCycles(0.5));
  const std::uint64_t at_stop = pit.ticks();
  pit.Stop();
  engine.RunUntil(sim::SecToCycles(1.0));
  EXPECT_EQ(pit.ticks(), at_stop);
}

TEST(IdeDiskTest, CompletesTransfersInFifoOrderWithInterrupts) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("IDE", static_cast<Irql>(12));
  int interrupts = 0;
  pic.set_pending_notifier([&] {
    ++interrupts;
    pic.Acknowledge(line);
  });
  IdeDisk disk(engine, pic, line, sim::Rng(5));
  std::vector<int> completion_order;
  disk.SubmitTransfer(4096, [&] { completion_order.push_back(1); });
  disk.SubmitTransfer(4096, [&] { completion_order.push_back(2); });
  disk.SubmitTransfer(4096, [&] { completion_order.push_back(3); });
  EXPECT_EQ(disk.queue_depth(), 3u);
  engine.RunUntilIdle();
  EXPECT_EQ(completion_order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(interrupts, 3);
  EXPECT_EQ(disk.completed_transfers(), 3u);
  EXPECT_EQ(disk.queue_depth(), 0u);
}

TEST(IdeDiskTest, LargerTransfersTakeLonger) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("IDE", static_cast<Irql>(12));
  pic.set_pending_notifier([&] { pic.Acknowledge(line); });
  DiskGeometry geometry;
  geometry.cache_hit_probability = 1.0;  // deterministic access time
  geometry.cache_hit_ms = 0.1;
  IdeDisk disk(engine, pic, line, sim::Rng(6), geometry);
  sim::Cycles small_done = 0;
  sim::Cycles large_done = 0;
  disk.SubmitTransfer(1024, [&] { small_done = engine.now(); });
  engine.RunUntilIdle();
  disk.SubmitTransfer(10 * 1024 * 1024, [&] { large_done = engine.now() - small_done; });
  engine.RunUntilIdle();
  EXPECT_GT(large_done, sim::MsToCycles(500.0));  // 10 MB at 10 MB/s ~ 1 s
}

TEST(NicTest, StreamDeliversAllBytesAsFrames) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("NIC", static_cast<Irql>(10));
  pic.set_pending_notifier([&] { pic.Acknowledge(line); });
  Nic nic(engine, pic, line, sim::Rng(7));
  bool done = false;
  nic.StartReceiveStream(15140, 1514, [&] { done = true; });
  EXPECT_TRUE(nic.stream_active());
  engine.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(nic.frames_delivered(), 10u);
}

TEST(NicTest, InterruptCoalescing) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("NIC", static_cast<Irql>(10));
  int edges = 0;
  pic.set_pending_notifier([&] { ++edges; });
  Nic nic(engine, pic, line, sim::Rng(8));
  nic.DeliverFrame(1514);
  nic.DeliverFrame(1514);
  nic.DeliverFrame(1514);
  // Ring was non-empty after the first frame: one edge only.
  EXPECT_EQ(edges, 1);
  pic.Acknowledge(line);
  EXPECT_EQ(nic.DrainRing(), 3u);
  nic.DeliverFrame(1514);
  EXPECT_EQ(edges, 2);
}

TEST(NicTest, LinkRatePacesDelivery) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("NIC", static_cast<Irql>(10));
  pic.set_pending_notifier([&] { pic.Acknowledge(line); });
  Nic nic(engine, pic, line, sim::Rng(9), 100.0);  // 100 Mbit/s
  bool done = false;
  sim::Cycles done_at = 0;
  nic.StartReceiveStream(12'500'000, 1514, [&] {  // 12.5 MB = 1 s at line rate
    done = true;
    done_at = engine.now();
  });
  engine.RunUntilIdle();
  ASSERT_TRUE(done);
  const double seconds = sim::CyclesToSec(done_at);
  EXPECT_GT(seconds, 0.9);
  EXPECT_LT(seconds, 1.6);  // jitter adds up to ~30%
}

TEST(AudioDeviceTest, PeriodicBufferInterrupts) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("AUD", static_cast<Irql>(14));
  int interrupts = 0;
  pic.set_pending_notifier([&] {
    ++interrupts;
    pic.Acknowledge(line);
  });
  AudioDevice audio(engine, pic, line);
  audio.StartStream(10.0);
  engine.RunUntil(sim::SecToCycles(1.0));
  EXPECT_EQ(interrupts, 100);
  audio.StopStream();
  engine.RunUntil(sim::SecToCycles(2.0));
  EXPECT_EQ(interrupts, 100);
}

TEST(UhciTest, OneInterruptPerFrameWhileStreaming) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("USB", static_cast<Irql>(14));
  int interrupts = 0;
  pic.set_pending_notifier([&] {
    ++interrupts;
    pic.Acknowledge(line);
  });
  UhciController uhci(engine, pic, line);
  uhci.StartStream(10.0);
  engine.RunUntil(sim::SecToCycles(1.0));
  // USB 1.1: one frame per millisecond.
  EXPECT_NEAR(interrupts, 1000, 2);
  EXPECT_NEAR(static_cast<double>(uhci.frames()), 1000.0, 2.0);
  uhci.StopStream();
  engine.RunUntil(sim::SecToCycles(2.0));
  EXPECT_NEAR(interrupts, 1000, 2);
}

TEST(UhciTest, BufferBoundariesEveryPeriod) {
  sim::Engine engine;
  InterruptController pic(engine);
  const int line = pic.ConnectLine("USB", static_cast<Irql>(14));
  UhciController uhci(engine, pic, line);
  int boundaries = 0;
  pic.set_pending_notifier([&] {
    pic.Acknowledge(line);
    if (uhci.ConsumeBufferBoundary()) {
      ++boundaries;
    }
  });
  uhci.StartStream(8.0);
  engine.RunUntil(sim::SecToCycles(1.0));
  // 8 ms buffers: ~125 boundaries per second.
  EXPECT_NEAR(boundaries, 125, 2);
}

TEST(TscTest, ReadsEngineTime) {
  sim::Engine engine;
  Tsc tsc(engine);
  EXPECT_EQ(tsc.GetCycleCount(), 0u);
  engine.ScheduleAt(777, [] {});
  engine.RunUntilIdle();
  EXPECT_EQ(tsc.GetCycleCount(), 777u);
}

}  // namespace
}  // namespace wdmlat::hw
