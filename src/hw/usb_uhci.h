// UHCI USB 1.1 host controller with an isochronous audio endpoint
// (the Philips DSS 350 USB speakers of the paper's Windows 98 system,
// Table 2 — "Windows NT 4.0 does not support USB").
//
// USB 1.1 runs a strict 1 ms frame schedule. While an isochronous audio
// stream is open, every frame carries audio data and the controller raises
// a transfer-completion interrupt per frame (IOC on the isochronous TDs) —
// a 1 kHz interrupt source that the PCI audio path does not have. The
// driver-visible buffer still completes every `period_ms`; the per-frame
// interrupts are pure additional load, which is exactly why USB audio was
// hard on Windows 98-era machines.

#ifndef SRC_HW_USB_UHCI_H_
#define SRC_HW_USB_UHCI_H_

#include <cstdint>

#include "src/hw/audio_device.h"
#include "src/hw/interrupt_controller.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace wdmlat::hw {

class UhciController : public AudioStreamDevice {
 public:
  UhciController(sim::Engine& engine, InterruptController& pic, int line);
  // Its timer's callable captures `this`.
  UhciController(const UhciController&) = delete;
  UhciController& operator=(const UhciController&) = delete;

  // AudioStreamDevice: open/close the isochronous audio stream. While open,
  // the controller interrupts every USB frame (1 ms); every `period_ms`
  // worth of frames completes one driver-visible buffer.
  void StartStream(double period_ms) override;
  void StopStream() override;
  bool streaming() const override { return streaming_; }

  // Frames elapsed since the stream opened.
  std::uint64_t frames() const { return frames_; }
  // Driver side: true once per buffer period (consumed by the ISR/DPC path).
  bool ConsumeBufferBoundary();

  static constexpr double kFrameMs = 1.0;  // USB 1.1 frame period

 private:
  void Frame();

  InterruptController& pic_;
  int line_;
  bool streaming_ = false;
  std::uint64_t frames_ = 0;
  std::uint32_t frames_per_buffer_ = 10;
  std::uint32_t frames_into_buffer_ = 0;
  bool buffer_boundary_pending_ = false;
  sim::Timer next_frame_;
};

}  // namespace wdmlat::hw

#endif  // SRC_HW_USB_UHCI_H_
