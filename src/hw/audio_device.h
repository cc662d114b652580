// Audio codec model (Ensoniq PCI sound card / Philips USB speakers).
//
// While a stream plays, the codec consumes one hardware buffer per period and
// raises a buffer-completion interrupt. Games and media playback in the
// workloads keep an audio stream running, which contributes periodic
// interrupt + DPC traffic on both OSes.

#ifndef SRC_HW_AUDIO_DEVICE_H_
#define SRC_HW_AUDIO_DEVICE_H_


#include "src/hw/interrupt_controller.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace wdmlat::hw {

// Common interface for the two audio paths of the paper's Table 2: the PCI
// Ensoniq card (NT) and the Philips USB speakers behind a UHCI controller
// (Windows 98).
class AudioStreamDevice {
 public:
  virtual ~AudioStreamDevice() = default;
  // Start a stream with driver-visible buffers of `period_ms`. Idempotent;
  // a second call re-programs the period.
  virtual void StartStream(double period_ms) = 0;
  virtual void StopStream() = 0;
  virtual bool streaming() const = 0;
};

class AudioDevice : public AudioStreamDevice {
 public:
  AudioDevice(sim::Engine& engine, InterruptController& pic, int line);
  // Its timer's callable captures `this`.
  AudioDevice(const AudioDevice&) = delete;
  AudioDevice& operator=(const AudioDevice&) = delete;

  // Raises one buffer-completion interrupt every `period_ms`.
  void StartStream(double period_ms) override;
  void StopStream() override;

  bool streaming() const override { return streaming_; }

 private:
  void BufferComplete();

  InterruptController& pic_;
  int line_;
  bool streaming_ = false;
  sim::Cycles period_ = sim::kCyclesPerMs * 10;
  sim::Timer next_;
};

}  // namespace wdmlat::hw

#endif  // SRC_HW_AUDIO_DEVICE_H_
