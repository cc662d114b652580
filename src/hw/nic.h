// Network interface (Intel EtherExpress Pro 100 model).
//
// The web-browsing workload downloads over 10/100 Mbit Ethernet "at speeds
// far in excess of those achievable on a regular phone line" (Section 3.1.3).
// The NIC delivers received frames by DMA and raises a receive interrupt;
// like real hardware of the era it coalesces: a frame arriving while the
// interrupt is still pending does not raise another edge.

#ifndef SRC_HW_NIC_H_
#define SRC_HW_NIC_H_

#include <cstdint>

#include "src/hw/interrupt_controller.h"
#include "src/sim/engine.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace wdmlat::hw {

class Nic {
 public:
  Nic(sim::Engine& engine, InterruptController& pic, int line, sim::Rng rng,
      double link_mbit_per_s = 100.0);

  // Begin a bulk receive stream of `total_bytes` arriving at the link rate in
  // `frame_bytes` frames. Each frame arrival increments the receive ring and
  // asserts the interrupt line. `on_done` fires when the stream completes.
  void StartReceiveStream(std::uint64_t total_bytes, std::uint32_t frame_bytes,
                          sim::InplaceCallback on_done);

  // Deliver a single frame immediately (interactive traffic, ACKs).
  void DeliverFrame(std::uint32_t bytes);

  // Driver side: drain the receive ring. Returns frames taken.
  std::uint32_t DrainRing();

  bool stream_active() const { return stream_active_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }

 private:
  void NextFrame();

  sim::Engine& engine_;
  InterruptController& pic_;
  int line_;
  sim::Rng rng_;
  double bytes_per_cycle_;
  bool stream_active_ = false;
  std::uint64_t stream_remaining_bytes_ = 0;
  std::uint32_t stream_frame_bytes_ = 1514;
  sim::InplaceCallback stream_done_;
  std::uint32_t ring_occupancy_ = 0;
  std::uint64_t frames_delivered_ = 0;
};

}  // namespace wdmlat::hw

#endif  // SRC_HW_NIC_H_
