#include "src/lab/test_system.h"

#include <stdexcept>
#include <utility>

namespace wdmlat::lab {

using kernel::Irql;

TestSystem::TestSystem(kernel::KernelProfile os, std::uint64_t seed, TestSystemOptions options)
    : rng_(seed) {
  Build(std::move(os), options);
}

void TestSystem::Reset(kernel::KernelProfile os, std::uint64_t seed,
                       TestSystemOptions options) {
  // Teardown in reverse dependency order while the engine is still alive, so
  // destructors that cancel their pending events do so against a valid pool.
  sound_scheme_.reset();
  virus_scanner_.reset();
  usb_audio_driver_.reset();
  audio_driver_.reset();
  nic_driver_.reset();
  disk_driver_.reset();
  kernel_.reset();
  usb_audio_.reset();
  audio_.reset();
  nic_.reset();
  disk_.reset();
  pit_.reset();
  pic_.reset();
  engine_.Reset();
  rng_ = sim::Rng(seed);
  spent_ = false;
  Build(std::move(os), options);
}

void TestSystem::RunFor(double seconds) {
  if (spent_) {
    throw std::logic_error("TestSystem::RunFor: system is spent by a measurement run; Reset it");
  }
  engine_.RunUntil(engine_.now() + sim::SecToCycles(seconds));
}

void TestSystem::Build(kernel::KernelProfile os, const TestSystemOptions& options) {
  pic_ = std::make_unique<hw::InterruptController>(engine_);
  // IRQL assignments follow the usual x86 HAL ordering: the clock outranks
  // all device interrupts.
  pit_line_ = pic_->ConnectLine("PIT", Irql::kClock);
  disk_line_ = pic_->ConnectLine("IDE", static_cast<Irql>(12));
  nic_line_ = pic_->ConnectLine("NIC", static_cast<Irql>(10));
  audio_line_ = pic_->ConnectLine("AUDIO", static_cast<Irql>(14));

  pit_ = std::make_unique<hw::Pit>(engine_, *pic_, pit_line_);
  disk_ = std::make_unique<hw::IdeDisk>(engine_, *pic_, disk_line_, rng_.Fork());
  nic_ = std::make_unique<hw::Nic>(engine_, *pic_, nic_line_, rng_.Fork());

  const bool legacy = os.legacy_vmm;
  // Table 2: "Audio solution — Ensoniq PCI sound card" on NT, "Phillips DSS
  // 350 USB speakers" on Windows 98 (NT 4.0 does not support USB).
  if (legacy) {
    usb_audio_ = std::make_unique<hw::UhciController>(engine_, *pic_, audio_line_);
  } else {
    audio_ = std::make_unique<hw::AudioDevice>(engine_, *pic_, audio_line_);
  }

  kernel_ = std::make_unique<kernel::Kernel>(engine_, rng_.Fork(), *pic_, *pit_, pit_line_,
                                             std::move(os));

  disk_driver_ = std::make_unique<drivers::DiskDriver>(*kernel_, *disk_, disk_line_);
  nic_driver_ = std::make_unique<drivers::NicDriver>(*kernel_, *nic_, nic_line_);
  if (legacy) {
    usb_audio_driver_ =
        std::make_unique<drivers::UsbAudioDriver>(*kernel_, *usb_audio_, audio_line_);
  } else {
    audio_driver_ = std::make_unique<drivers::AudioDriver>(*kernel_, *audio_, audio_line_);
  }

  if (legacy && options.virus_scanner) {
    virus_scanner_ = std::make_unique<vmm98::VirusScanner>(*kernel_, rng_.Fork());
  }
  if (legacy && options.sound_scheme != vmm98::SchemeKind::kNoSounds) {
    vmm98::SoundScheme::Config sound_config;
    sound_config.kind = options.sound_scheme;
    sound_scheme_ = std::make_unique<vmm98::SoundScheme>(*kernel_, rng_.Fork(), sound_config);
  }
  if (options.kernel_self_noise) {
    kernel_->StartSelfNoise();
  }
}

workload::StressLoad::Deps TestSystem::deps() {
  workload::StressLoad::Deps d;
  d.kernel = kernel_.get();
  d.disk = disk_driver_.get();
  d.nic = nic_.get();
  d.audio = &audio();
  d.virus_scanner = virus_scanner_.get();
  d.sound_scheme = sound_scheme_.get();
  return d;
}

}  // namespace wdmlat::lab
