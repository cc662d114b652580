// Tests for the I/O manager: driver objects, device stacks, IRP routing and
// completion-routine unwinding.

#include "src/kernel/io_manager.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/drivers/latency_driver.h"
#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

TEST(IoManagerTest, CreatesDriversAndDevices) {
  IoManager io;
  DriverObject* driver = io.IoCreateDriver("TESTDRV");
  EXPECT_EQ(driver->name(), "TESTDRV");
  DeviceObject* device = io.IoCreateDevice(driver, "\\Device\\Test0");
  EXPECT_EQ(device->driver(), driver);
  EXPECT_EQ(device->StackDepth(), 0);
  EXPECT_EQ(io.driver_count(), 1u);
  EXPECT_EQ(io.device_count(), 1u);
}

TEST(IoManagerTest, DispatchRoutesToTheRightMajorFunction) {
  IoManager io;
  DriverObject* driver = io.IoCreateDriver("TESTDRV");
  int reads = 0;
  int writes = 0;
  driver->SetMajorFunction(IrpMajor::kRead,
                           [&](DeviceObject&, Irp& irp) { ++reads; io.IoCompleteRequest(&irp); });
  driver->SetMajorFunction(IrpMajor::kWrite,
                           [&](DeviceObject&, Irp& irp) { ++writes; io.IoCompleteRequest(&irp); });
  DeviceObject* device = io.IoCreateDevice(driver, "\\Device\\Test0");
  Irp irp;
  io.IoCallDriver(device, &irp, IrpMajor::kRead);
  io.IoCallDriver(device, &irp, IrpMajor::kRead);
  io.IoCallDriver(device, &irp, IrpMajor::kWrite);
  EXPECT_EQ(reads, 2);
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(io.irps_routed(), 3u);
}

TEST(IoManagerTest, AttachBuildsAStackAndTopOfStackFindsIt) {
  IoManager io;
  DriverObject* function_driver = io.IoCreateDriver("FUNC");
  DriverObject* filter_driver = io.IoCreateDriver("FILTER");
  DeviceObject* function_device = io.IoCreateDevice(function_driver, "\\Device\\Fun0");
  DeviceObject* filter_device = io.IoCreateDevice(filter_driver, "\\Device\\Flt0");
  DeviceObject* attached_to = io.IoAttachDeviceToStack(filter_device, function_device);
  EXPECT_EQ(attached_to, function_device);
  EXPECT_EQ(filter_device->lower(), function_device);
  EXPECT_EQ(function_device->upper(), filter_device);
  EXPECT_EQ(filter_device->StackDepth(), 1);
  // Opening the function device's name resolves to the stack top (the
  // filter) — how filter drivers interpose transparently.
  EXPECT_EQ(io.TopOfStack("\\Device\\Fun0"), filter_device);
  io.IoDetachDevice(filter_device);
  EXPECT_EQ(io.TopOfStack("\\Device\\Fun0"), function_device);
}

TEST(IoManagerTest, TopOfStackTakesANameSlice) {
  IoManager io;
  DeviceObject* device = io.IoCreateDevice(io.IoCreateDriver("FUNC"), "\\Device\\Fun0");
  // A view into a longer buffer: matched by its length, not up to a NUL.
  const std::string_view line = "\\Device\\Fun0 \\Device\\Fun";
  EXPECT_EQ(io.TopOfStack(line.substr(0, 12)), device);
  EXPECT_EQ(io.TopOfStack(line.substr(13)), nullptr);
}

TEST(IoManagerTest, CompletionRoutineGetsTheDeviceItWasRegisteredFor) {
  IoManager io;
  DeviceObject* lower = io.IoCreateDevice(io.IoCreateDriver("FUNC"), "\\Device\\Fun0");
  DeviceObject* upper = io.IoCreateDevice(io.IoCreateDriver("FILTER"), "\\Device\\Flt0");
  io.IoAttachDeviceToStack(upper, lower);
  Irp irp;
  std::vector<DeviceObject*> seen;
  io.IoSetCompletionRoutine(&irp, upper, [&](DeviceObject& d, Irp&) { seen.push_back(&d); });
  io.IoSetCompletionRoutine(&irp, lower, [&](DeviceObject& d, Irp&) { seen.push_back(&d); });
  io.IoCompleteRequest(&irp);
  EXPECT_EQ(seen, (std::vector<DeviceObject*>{lower, upper}));
  EXPECT_TRUE(irp.completion_routines.empty());
}

TEST(IoManagerTest, FilterDriverSeesIrpsAndCompletionsInStackOrder) {
  IoManager io;
  std::vector<std::string> trace;

  DriverObject* function_driver = io.IoCreateDriver("FUNC");
  function_driver->SetMajorFunction(IrpMajor::kRead, [&](DeviceObject&, Irp& irp) {
    trace.push_back("func-dispatch");
    io.IoCompleteRequest(&irp);
  });
  DeviceObject* function_device = io.IoCreateDevice(function_driver, "\\Device\\Fun0");

  DriverObject* filter_driver = io.IoCreateDriver("FILTER");
  DeviceObject* filter_device = io.IoCreateDevice(filter_driver, "\\Device\\Flt0");
  filter_driver->SetMajorFunction(IrpMajor::kRead, [&](DeviceObject& device, Irp& irp) {
    trace.push_back("filter-dispatch");
    io.IoSetCompletionRoutine(&irp, &device,
                              [&](DeviceObject&, Irp&) { trace.push_back("filter-complete"); });
    io.IoCallDriver(device.lower(), &irp, IrpMajor::kRead);
  });
  io.IoAttachDeviceToStack(filter_device, function_device);

  Irp irp;
  bool app_completed = false;
  irp.on_complete = [&](Irp*) { app_completed = true; };
  io.IoCallDriver(io.TopOfStack("\\Device\\Fun0"), &irp, IrpMajor::kRead);

  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], "filter-dispatch");
  EXPECT_EQ(trace[1], "func-dispatch");
  EXPECT_EQ(trace[2], "filter-complete");
  EXPECT_TRUE(app_completed);
}

TEST(IoManagerTest, MultiLevelCompletionUnwindsLifo) {
  IoManager io;
  std::vector<int> order;
  DriverObject* driver = io.IoCreateDriver("D");
  DeviceObject* device = io.IoCreateDevice(driver, "\\Device\\D0");
  Irp irp;
  io.IoSetCompletionRoutine(&irp, device, [&](DeviceObject&, Irp&) { order.push_back(1); });
  io.IoSetCompletionRoutine(&irp, device, [&](DeviceObject&, Irp&) { order.push_back(2); });
  io.IoSetCompletionRoutine(&irp, device, [&](DeviceObject&, Irp&) { order.push_back(3); });
  io.IoCompleteRequest(&irp);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  // Completion consumed the routines: completing again runs none.
  order.clear();
  io.IoCompleteRequest(&irp);
  EXPECT_TRUE(order.empty());
}

TEST(IoManagerTest, KernelRoutesCompletionThroughIoManager) {
  MiniSystem sys;
  Irp irp;
  bool completed = false;
  irp.on_complete = [&](Irp*) { completed = true; };
  int filter_runs = 0;
  DriverObject* driver = sys.kernel().io().IoCreateDriver("D");
  DeviceObject* device = sys.kernel().io().IoCreateDevice(driver, "\\Device\\D0");
  sys.kernel().io().IoSetCompletionRoutine(&irp, device,
                                           [&](DeviceObject&, Irp&) { ++filter_runs; });
  sys.kernel().IoCompleteRequest(&irp);
  EXPECT_TRUE(completed);
  EXPECT_EQ(filter_runs, 1);
}

// The latency driver registers as a real WDM driver: its device must be
// reachable through the I/O manager and reads must flow as IRPs.
TEST(IoManagerTest, LatencyDriverIsAProperWdmDriver) {
  MiniSystem sys;
  drivers::LatencyDriver driver(sys.kernel(), drivers::LatencyDriver::Config{});
  driver.Start();
  EXPECT_NE(sys.kernel().io().TopOfStack("\\Device\\LatMeter"), nullptr);
  sys.RunForMs(500.0);
  EXPECT_GT(driver.sample_count(), 100u);
  // One IRP routed per sample (plus warmup).
  EXPECT_GE(sys.kernel().io().irps_routed(), driver.sample_count());
}

}  // namespace
}  // namespace wdmlat::kernel
