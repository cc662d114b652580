#include "src/hw/ide_disk.h"

#include <utility>

namespace wdmlat::hw {

IdeDisk::IdeDisk(sim::Engine& engine, InterruptController& pic, int line, sim::Rng rng,
                 Geometry geometry)
    : engine_(engine), pic_(pic), line_(line), rng_(rng), geometry_(geometry) {}

void IdeDisk::SubmitTransfer(std::uint32_t bytes, sim::InplaceCallback on_complete) {
  queue_.push_back(Request{bytes, std::move(on_complete)});
  if (!busy_) {
    StartNext();
  }
}

void IdeDisk::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  current_ = std::move(queue_.front());
  queue_.pop_front();

  double access_ms;
  if (rng_.Bernoulli(geometry_.cache_hit_probability)) {
    access_ms = geometry_.cache_hit_ms;
  } else {
    access_ms = rng_.Uniform(geometry_.seek_min_ms, geometry_.seek_max_ms);
  }
  const double media_ms =
      static_cast<double>(current_.bytes) / (geometry_.sustained_mb_per_s * 1e6) * 1e3;
  engine_.ScheduleAfter(sim::MsToCycles(access_ms + media_ms), [this] { Complete(); });
}

void IdeDisk::Complete() {
  ++completed_;
  if (current_.on_complete) {
    current_.on_complete();
  }
  pic_.Assert(line_);
  StartNext();
}

}  // namespace wdmlat::hw
