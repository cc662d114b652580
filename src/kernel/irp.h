// I/O Request Packets.
//
// Each user-mode call to a Win32 driver interface generates an IRP passed to
// the driver; the paper's tool returns latency triplets to its control
// application through IRP->AssociatedIrp.SystemBuffer, completed with
// IoCompleteRequest (Sections 2.2.2-2.2.4).

#ifndef SRC_KERNEL_IRP_H_
#define SRC_KERNEL_IRP_H_

#include <array>
#include <vector>

#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::kernel {

class DeviceObject;

struct Irp {
  // The paper abbreviates IRP->AssociatedIrp.SystemBuffer as IRP->ASB and
  // treats it as an array of LARGE_INTEGER timestamps:
  //   [0] TSC at the driver I/O read routine
  //   [1] TSC at the DPC's first instruction
  //   [2] TSC at the thread's first instruction after the wait
  std::array<sim::Cycles, 4> asb{};

  // Completion notification to the issuing application (ReadFileEx I/O
  // completion). Runs in zero simulated time in the completing context.
  sim::InplaceFunction<void(Irp*)> on_complete;

  // Completion routines registered by drivers in the device stack
  // (IoSetCompletionRoutine), each with the device it was registered for;
  // run most-recently-registered first when the IRP completes, before
  // on_complete. Managed by kernel::IoManager.
  struct Completion {
    DeviceObject* device = nullptr;
    sim::InplaceFunction<void(DeviceObject& device, Irp& irp)> routine;
  };
  std::vector<Completion> completion_routines;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_IRP_H_
