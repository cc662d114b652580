#include "src/hw/audio_device.h"

namespace wdmlat::hw {

AudioDevice::AudioDevice(sim::Engine& engine, InterruptController& pic, int line)
    : pic_(pic), line_(line), next_(engine, [this] { BufferComplete(); }) {}

void AudioDevice::StartStream(double period_ms) {
  period_ = sim::MsToCycles(period_ms);
  if (streaming_) {
    return;
  }
  streaming_ = true;
  next_.ArmAfter(period_);
}

void AudioDevice::StopStream() {
  streaming_ = false;
  next_.Disarm();
}

void AudioDevice::BufferComplete() {
  if (!streaming_) {
    return;
  }
  pic_.Assert(line_);
  next_.ArmAfter(period_);
}

}  // namespace wdmlat::hw
