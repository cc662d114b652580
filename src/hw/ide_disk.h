// Bus-master (DMA) IDE disk model.
//
// Both test systems in the paper use DMA IDE drivers (Table 2, "a key point,
// easily overlooked"): the disk transfers data by DMA and raises one
// interrupt per request, so the CPU cost per request is an ISR + DPC, not
// programmed I/O. Workloads submit transfers; the device completes them
// after seek + media time and asserts its interrupt line.

#ifndef SRC_HW_IDE_DISK_H_
#define SRC_HW_IDE_DISK_H_

#include <cstdint>
#include <deque>

#include "src/hw/interrupt_controller.h"
#include "src/sim/engine.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace wdmlat::hw {

struct DiskGeometry {
  // Maxtor DiamondMax 6.4 GB UDMA era numbers.
  double seek_min_ms = 0.3;          // track-to-track / cached
  double seek_max_ms = 12.0;         // full stroke
  double sustained_mb_per_s = 10.0;  // media rate
  double cache_hit_probability = 0.35;
  double cache_hit_ms = 0.15;
};

class IdeDisk {
 public:
  using Geometry = DiskGeometry;

  IdeDisk(sim::Engine& engine, InterruptController& pic, int line, sim::Rng rng,
          Geometry geometry = Geometry{});

  // Submit a DMA transfer. The disk services requests one at a time in FIFO
  // order; on completion it asserts its interrupt line. `on_complete` runs at
  // completion time, before the interrupt is asserted — the kernel's disk
  // driver uses it to know which request finished.
  void SubmitTransfer(std::uint32_t bytes, sim::InplaceCallback on_complete);

  std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  std::uint64_t completed_transfers() const { return completed_; }

 private:
  struct Request {
    std::uint32_t bytes;
    sim::InplaceCallback on_complete;
  };

  void StartNext();
  void Complete();

  sim::Engine& engine_;
  InterruptController& pic_;
  int line_;
  sim::Rng rng_;
  Geometry geometry_;
  std::deque<Request> queue_;
  bool busy_ = false;
  Request current_{};
  std::uint64_t completed_ = 0;
};

}  // namespace wdmlat::hw

#endif  // SRC_HW_IDE_DISK_H_
