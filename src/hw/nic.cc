#include "src/hw/nic.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace wdmlat::hw {

Nic::Nic(sim::Engine& engine, InterruptController& pic, int line, sim::Rng rng,
         double link_mbit_per_s)
    : engine_(engine),
      pic_(pic),
      line_(line),
      rng_(rng),
      bytes_per_cycle_(link_mbit_per_s * 1e6 / 8.0 / static_cast<double>(sim::kCyclesPerSec)) {}

void Nic::StartReceiveStream(std::uint64_t total_bytes, std::uint32_t frame_bytes,
                             sim::InplaceCallback on_done) {
  assert(frame_bytes > 0);
  if (stream_active_) {
    // Back-to-back streams just extend the current one.
    stream_remaining_bytes_ += total_bytes;
    return;
  }
  stream_active_ = true;
  stream_remaining_bytes_ = total_bytes;
  stream_frame_bytes_ = frame_bytes;
  stream_done_ = std::move(on_done);
  NextFrame();
}

void Nic::NextFrame() {
  if (stream_remaining_bytes_ == 0) {
    stream_active_ = false;
    if (stream_done_) {
      sim::InplaceCallback done = std::move(stream_done_);  // leaves stream_done_ empty
      done();
    }
    return;
  }
  const std::uint32_t frame =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(stream_frame_bytes_, stream_remaining_bytes_));
  stream_remaining_bytes_ -= frame;
  // Wire time for the frame plus a little inter-frame jitter from the remote
  // peer and switches.
  const double wire_cycles = static_cast<double>(frame) / bytes_per_cycle_;
  const double jitter = rng_.Uniform(0.0, 0.3 * wire_cycles);
  engine_.ScheduleAfter(static_cast<sim::Cycles>(wire_cycles + jitter), [this, frame] {
    DeliverFrame(frame);
    NextFrame();
  });
}

void Nic::DeliverFrame(std::uint32_t bytes) {
  (void)bytes;
  ++frames_delivered_;
  ++ring_occupancy_;
  // Interrupt coalescing: assert only if the ring was previously empty; the
  // driver's DPC drains the ring and re-arms.
  if (ring_occupancy_ == 1) {
    pic_.Assert(line_);
  }
}

std::uint32_t Nic::DrainRing() {
  const std::uint32_t taken = ring_occupancy_;
  ring_occupancy_ = 0;
  return taken;
}

}  // namespace wdmlat::hw
