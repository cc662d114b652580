// The I/O manager: driver objects, layered device objects and IRP routing —
// the structural half of the Windows Driver Model.
//
// "Each user mode call to a Win32 driver interface function (e.g., Read)
// generates an IRP that is passed to the appropriate driver routine" (paper
// Section 2.2). Drivers register dispatch routines per major function;
// devices stack (filter drivers attach above function drivers); IoCallDriver
// sends an IRP down one level and IoCompleteRequest walks completion
// routines back up the stack. The measurement driver and the filter-driver
// example are written against this API.

#ifndef SRC_KERNEL_IO_MANAGER_H_
#define SRC_KERNEL_IO_MANAGER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/irp.h"
#include "src/sim/inplace_callback.h"

namespace wdmlat::kernel {

class DeviceObject;
class DriverObject;
class IoManager;

enum class IrpMajor : std::uint8_t {
  kCreate,
  kRead,
  kWrite,
  kDeviceControl,
  kClose,
  kCount,
};

// Dispatch routines run in the requesting thread's context, in zero
// simulated time (model CPU costs with Kernel::Compute around the call).
using DispatchRoutine = sim::InplaceFunction<void(DeviceObject& device, Irp& irp)>;

// Completion routines run, most-recently-attached first, when the IRP
// completes; also zero simulated time.
using CompletionRoutine = sim::InplaceFunction<void(DeviceObject& device, Irp& irp)>;

class DriverObject {
 public:
  explicit DriverObject(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void SetMajorFunction(IrpMajor major, DispatchRoutine routine) {
    dispatch_[static_cast<std::size_t>(major)] = std::move(routine);
  }
  DispatchRoutine& MajorFunction(IrpMajor major) {
    return dispatch_[static_cast<std::size_t>(major)];
  }

 private:
  std::string name_;
  std::array<DispatchRoutine, static_cast<std::size_t>(IrpMajor::kCount)> dispatch_;
};

class DeviceObject {
 public:
  DeviceObject(DriverObject* driver, std::string name)
      : driver_(driver), name_(std::move(name)) {}

  DriverObject* driver() const { return driver_; }
  const std::string& name() const { return name_; }
  // The device this one is attached on top of (nullptr at the bottom).
  DeviceObject* lower() const { return lower_; }
  // The device attached on top of this one (nullptr at the top).
  DeviceObject* upper() const { return upper_; }
  // Stack depth below (0 for the bottom device).
  int StackDepth() const;

 private:
  friend class IoManager;
  DriverObject* driver_;
  std::string name_;
  DeviceObject* lower_ = nullptr;
  DeviceObject* upper_ = nullptr;
};

class IoManager {
 public:
  IoManager() = default;
  IoManager(const IoManager&) = delete;
  IoManager& operator=(const IoManager&) = delete;

  // --- Object creation --------------------------------------------------------
  DriverObject* IoCreateDriver(std::string name);
  DeviceObject* IoCreateDevice(DriverObject* driver, std::string name);

  // Attach `upper` on top of the stack containing `target`; returns the
  // device it ended up attached to (the previous top).
  DeviceObject* IoAttachDeviceToStack(DeviceObject* upper, DeviceObject* target);
  void IoDetachDevice(DeviceObject* upper);

  // Find a named device's stack top (how a Win32 open resolves), or nullptr.
  DeviceObject* TopOfStack(std::string_view device_name);

  // --- IRP routing --------------------------------------------------------------
  // Send the IRP to `device`'s driver dispatch for `major`. Typically called
  // with a stack top; a dispatch routine forwards with IoCallDriver on
  // device->lower().
  void IoCallDriver(DeviceObject* device, Irp* irp, IrpMajor major);

  // Register a completion routine to run when the IRP completes (LIFO, as
  // completion walks back up the stack).
  void IoSetCompletionRoutine(Irp* irp, DeviceObject* device, CompletionRoutine routine);

  // Complete the IRP: run completion routines most-recent-first, then the
  // IRP's on_complete (the I/O manager's return to the issuing application).
  void IoCompleteRequest(Irp* irp);

  std::size_t driver_count() const { return drivers_.size(); }
  std::size_t device_count() const { return devices_.size(); }
  std::uint64_t irps_routed() const { return irps_routed_; }

 private:
  std::vector<std::unique_ptr<DriverObject>> drivers_;
  std::vector<std::unique_ptr<DeviceObject>> devices_;
  std::uint64_t irps_routed_ = 0;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_IO_MANAGER_H_
