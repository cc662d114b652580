// WDM device drivers for the simulated hardware.
//
// Each driver follows the WDM paradigm the paper describes (Section 2.2):
// "In the WDM paradigm, ISRs queue DPCs to do work on their behalf" — the
// ISR is very short (acknowledge, capture DMA state, queue DPC) and the DPC
// does the real completion processing. The DPC traffic these drivers
// generate under load is one of the things that delays the measurement
// driver's own DPC, since ordinary DPCs queue FIFO.

#ifndef SRC_DRIVERS_DEVICE_DRIVERS_H_
#define SRC_DRIVERS_DEVICE_DRIVERS_H_

#include <cstddef>
#include <cstdint>
#include <deque>

#include "src/hw/audio_device.h"
#include "src/hw/ide_disk.h"
#include "src/hw/nic.h"
#include "src/hw/usb_uhci.h"
#include "src/kernel/kernel.h"
#include "src/sim/inplace_callback.h"

namespace wdmlat::drivers {

// Bus-master IDE driver (Intel PIIX on NT, the default DMA driver on 98).
class DiskDriver {
 public:
  DiskDriver(kernel::Kernel& kernel, hw::IdeDisk& disk, int line);

  // Submit a transfer; `on_done` (optional) runs in DPC context when the
  // request's completion DPC executes.
  void SubmitIo(std::uint32_t bytes, sim::InplaceCallback on_done = nullptr);

  std::uint64_t completions() const { return completions_; }

 private:
  kernel::Kernel& kernel_;
  hw::IdeDisk& disk_;
  kernel::KDpc dpc_;
  // The disk serves requests FIFO, so the submitted requests' callbacks
  // queue here in completion order; the disk only counts how many of them
  // have finished for the next completion DPC to deliver.
  std::deque<sim::InplaceCallback> in_flight_;
  std::size_t finished_ = 0;
  std::uint64_t completions_ = 0;
};

// EtherExpress Pro 100 NDIS miniport model.
class NicDriver {
 public:
  NicDriver(kernel::Kernel& kernel, hw::Nic& nic, int line);

  std::uint64_t frames_processed() const { return frames_processed_; }

 private:
  kernel::Kernel& kernel_;
  hw::Nic& nic_;
  kernel::KDpc dpc_;
  std::uint32_t pending_frames_ = 0;
  std::uint64_t frames_processed_ = 0;
};

// WDM audio driver (port class + KMixer completion work).
class AudioDriver {
 public:
  AudioDriver(kernel::Kernel& kernel, hw::AudioDevice& device, int line);

  std::uint64_t buffers_processed() const { return buffers_processed_; }

 private:
  kernel::Kernel& kernel_;
  hw::AudioDevice& device_;
  kernel::KDpc dpc_;
  std::uint64_t buffers_processed_ = 0;
};

// USB audio driver stack (USBD + UHCI miniport + WDM audio): the Windows 98
// path to the Philips USB speakers. One short ISR + DPC per 1 ms USB frame
// while streaming; KMixer work per driver-visible buffer.
class UsbAudioDriver {
 public:
  UsbAudioDriver(kernel::Kernel& kernel, hw::UhciController& controller, int line);

  std::uint64_t frames_processed() const { return frames_processed_; }
  std::uint64_t buffers_processed() const { return buffers_processed_; }

 private:
  kernel::Kernel& kernel_;
  hw::UhciController& controller_;
  kernel::KDpc dpc_;
  std::uint64_t frames_processed_ = 0;
  std::uint64_t buffers_processed_ = 0;
};

}  // namespace wdmlat::drivers

#endif  // SRC_DRIVERS_DEVICE_DRIVERS_H_
