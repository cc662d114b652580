#include "src/hw/usb_uhci.h"

#include <algorithm>
#include <cmath>

namespace wdmlat::hw {

UhciController::UhciController(sim::Engine& engine, InterruptController& pic, int line)
    : pic_(pic), line_(line), next_frame_(engine, [this] { Frame(); }) {}

void UhciController::StartStream(double period_ms) {
  frames_per_buffer_ = static_cast<std::uint32_t>(
      std::max(1.0, std::round(period_ms / kFrameMs)));
  if (streaming_) {
    return;
  }
  streaming_ = true;
  frames_into_buffer_ = 0;
  next_frame_.ArmAfter(sim::MsToCycles(kFrameMs));
}

void UhciController::StopStream() {
  streaming_ = false;
  next_frame_.Disarm();
}

bool UhciController::ConsumeBufferBoundary() {
  const bool pending = buffer_boundary_pending_;
  buffer_boundary_pending_ = false;
  return pending;
}

void UhciController::Frame() {
  if (!streaming_) {
    return;
  }
  ++frames_;
  if (++frames_into_buffer_ >= frames_per_buffer_) {
    frames_into_buffer_ = 0;
    buffer_boundary_pending_ = true;
  }
  // IOC on every isochronous TD: one interrupt per frame while streaming.
  pic_.Assert(line_);
  next_frame_.ArmAfter(sim::MsToCycles(kFrameMs));
}

}  // namespace wdmlat::hw
