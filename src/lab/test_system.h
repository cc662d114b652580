// The assembled test machine of the paper's Table 2: a 300 MHz Pentium II
// with PCI/USB devices only (no legacy ISA), DMA IDE disk, EtherExpress Pro
// 100 NIC and a WDM audio device, running one of the two OS personalities.

#ifndef SRC_LAB_TEST_SYSTEM_H_
#define SRC_LAB_TEST_SYSTEM_H_

#include <cstdint>
#include <memory>

#include "src/drivers/device_drivers.h"
#include "src/hw/audio_device.h"
#include "src/hw/ide_disk.h"
#include "src/hw/interrupt_controller.h"
#include "src/hw/nic.h"
#include "src/hw/pit.h"
#include "src/hw/usb_uhci.h"
#include "src/kernel/kernel.h"
#include "src/kernel/profile.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/vmm98/sound_scheme.h"
#include "src/vmm98/virus_scanner.h"
#include "src/workload/stress_load.h"

namespace wdmlat::lab {

struct TestSystemOptions {
  // Plus! 98 Pack virus scanner (Windows 98 only; Figure 5). Ignored on NT.
  bool virus_scanner = false;
  // Windows sound scheme (Windows 98 only; Table 4). Default: "no sound".
  vmm98::SchemeKind sound_scheme = vmm98::SchemeKind::kNoSounds;
  // Baseline OS self-noise (disable only for deterministic unit tests).
  bool kernel_self_noise = true;
};

class TestSystem {
 public:
  TestSystem(kernel::KernelProfile os, std::uint64_t seed,
             TestSystemOptions options = TestSystemOptions{});

  // Warm reuse (lab::Fleet): tear down the kernel, devices and drivers,
  // Reset() the engine — keeping its grown bucket/slab capacity — and
  // rebuild the machine for a new cell. Bit-identical to constructing a
  // fresh TestSystem with the same arguments (the engine restarts at time 0
  // / sequence 0 and the RNG is reseeded), but without reallocating the
  // event calendar; guarded by the fleet warm-runner golden-checksum test.
  void Reset(kernel::KernelProfile os, std::uint64_t seed,
             TestSystemOptions options = TestSystemOptions{});

  sim::Engine& engine() { return engine_; }
  kernel::Kernel& kernel() { return *kernel_; }
  hw::IdeDisk& disk() { return *disk_; }
  hw::Nic& nic() { return *nic_; }
  // The OS-appropriate audio path (Table 2): the PCI Ensoniq device on NT,
  // the Philips USB speakers behind the UHCI controller on Windows 98.
  hw::AudioStreamDevice& audio() {
    return usb_audio_ ? static_cast<hw::AudioStreamDevice&>(*usb_audio_)
                      : static_cast<hw::AudioStreamDevice&>(*audio_);
  }
  hw::UhciController* usb_controller() { return usb_audio_.get(); }
  drivers::DiskDriver& disk_driver() { return *disk_driver_; }
  drivers::NicDriver& nic_driver() { return *nic_driver_; }
  drivers::AudioDriver* audio_driver() { return audio_driver_.get(); }
  drivers::UsbAudioDriver* usb_audio_driver() { return usb_audio_driver_.get(); }
  vmm98::VirusScanner* virus_scanner() { return virus_scanner_.get(); }
  vmm98::SoundScheme* sound_scheme() { return sound_scheme_.get(); }

  // Dependency bundle for workloads.
  workload::StressLoad::Deps deps();

  // Fork a deterministic child RNG for tools/workloads on this system.
  sim::Rng ForkRng() { return rng_.Fork(); }

  // Advance virtual time. Throws std::logic_error on a spent system.
  void RunFor(double seconds);
  void RunForMinutes(double minutes) { RunFor(minutes * 60.0); }

  // A measurement run (lab::RunLatencyExperimentOn) leaves callbacks into
  // its own, now dead, locals registered on the machine; it marks the
  // system spent, and RunFor refuses to run it again until Reset.
  void MarkSpent() { spent_ = true; }
  bool spent() const { return spent_; }

 private:
  // Shared tail of the constructor and Reset(): everything downstream of the
  // engine and RNG (controller, devices, kernel, drivers, self-noise).
  void Build(kernel::KernelProfile os, const TestSystemOptions& options);

  sim::Engine engine_;
  sim::Rng rng_;
  std::unique_ptr<hw::InterruptController> pic_;
  int pit_line_;
  int disk_line_;
  int nic_line_;
  int audio_line_;
  std::unique_ptr<hw::Pit> pit_;
  std::unique_ptr<hw::IdeDisk> disk_;
  std::unique_ptr<hw::Nic> nic_;
  std::unique_ptr<hw::AudioDevice> audio_;
  std::unique_ptr<hw::UhciController> usb_audio_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<drivers::DiskDriver> disk_driver_;
  std::unique_ptr<drivers::NicDriver> nic_driver_;
  std::unique_ptr<drivers::AudioDriver> audio_driver_;
  std::unique_ptr<drivers::UsbAudioDriver> usb_audio_driver_;
  std::unique_ptr<vmm98::VirusScanner> virus_scanner_;
  std::unique_ptr<vmm98::SoundScheme> sound_scheme_;
  bool spent_ = false;
};

}  // namespace wdmlat::lab

#endif  // SRC_LAB_TEST_SYSTEM_H_
