#include "src/kernel/io_manager.h"

#include <cassert>
#include <utility>

namespace wdmlat::kernel {

int DeviceObject::StackDepth() const {
  int depth = 0;
  for (const DeviceObject* device = lower_; device != nullptr; device = device->lower_) {
    ++depth;
  }
  return depth;
}

DriverObject* IoManager::IoCreateDriver(std::string name) {
  drivers_.push_back(std::make_unique<DriverObject>(std::move(name)));
  return drivers_.back().get();
}

DeviceObject* IoManager::IoCreateDevice(DriverObject* driver, std::string name) {
  assert(driver != nullptr);
  devices_.push_back(std::make_unique<DeviceObject>(driver, std::move(name)));
  return devices_.back().get();
}

DeviceObject* IoManager::IoAttachDeviceToStack(DeviceObject* upper, DeviceObject* target) {
  assert(upper != nullptr && target != nullptr && upper != target);
  assert(upper->lower_ == nullptr && "device already attached");
  // Walk to the current top of the target's stack.
  DeviceObject* top = target;
  while (top->upper_ != nullptr) {
    top = top->upper_;
  }
  top->upper_ = upper;
  upper->lower_ = top;
  return top;
}

void IoManager::IoDetachDevice(DeviceObject* upper) {
  assert(upper != nullptr && upper->lower_ != nullptr);
  upper->lower_->upper_ = nullptr;
  upper->lower_ = nullptr;
}

DeviceObject* IoManager::TopOfStack(std::string_view device_name) {
  for (const auto& device : devices_) {
    if (device->name() == device_name) {
      DeviceObject* top = device.get();
      while (top->upper_ != nullptr) {
        top = top->upper_;
      }
      return top;
    }
  }
  return nullptr;
}

void IoManager::IoCallDriver(DeviceObject* device, Irp* irp, IrpMajor major) {
  assert(device != nullptr && irp != nullptr);
  ++irps_routed_;
  DispatchRoutine& dispatch = device->driver()->MajorFunction(major);
  assert(dispatch && "driver has no dispatch routine for this major function");
  dispatch(*device, *irp);
}

void IoManager::IoSetCompletionRoutine(Irp* irp, DeviceObject* device,
                                       CompletionRoutine routine) {
  assert(irp != nullptr && routine);
  irp->completion_routines.push_back(Irp::Completion{device, std::move(routine)});
}

void IoManager::IoCompleteRequest(Irp* irp) {
  assert(irp != nullptr);
  // Completion walks back up the stack: most recently registered first.
  while (!irp->completion_routines.empty()) {
    Irp::Completion completion = std::move(irp->completion_routines.back());
    irp->completion_routines.pop_back();
    completion.routine(*completion.device, *irp);
  }
  if (irp->on_complete) {
    irp->on_complete(irp);
  }
}

}  // namespace wdmlat::kernel
