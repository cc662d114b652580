// Deferred Procedure Calls.
//
// In WDM an ISR queues a DPC to do time-critical work on its behalf; DPCs
// execute after all ISRs but before any thread (paper Section 2.2). Ordinary
// DPCs queue FIFO, so "DPC latency encompasses the time required to enqueue
// and dequeue a DPC as well as the aggregate time to execute all DPCs in the
// DPC queue when the DPC was enqueued."

#ifndef SRC_KERNEL_DPC_H_
#define SRC_KERNEL_DPC_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "src/kernel/label.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace wdmlat::kernel {

class KDpc {
 public:
  enum class Importance : std::uint8_t { kLow, kMedium, kHigh };

  // `routine` runs (in zero simulated time) at the DPC's first instruction;
  // `body` is the simulated execution time of the rest of the routine,
  // sampled per dispatch.
  KDpc(sim::InplaceCallback routine, sim::DurationDist body, Label label,
       Importance importance = Importance::kMedium)
      : routine_(std::move(routine)), body_(body), label_(label), importance_(importance) {}

  Label label() const { return label_; }

  // Optional completion callback, invoked (in zero simulated time) when the
  // DPC's body finishes executing. Used by tools that need the completion
  // instant (e.g. the periodic-load datapump model).
  void set_on_complete(sim::InplaceCallback on_complete) {
    on_complete_ = std::move(on_complete);
  }

  Importance importance() const { return importance_; }
  bool queued() const { return queued_; }
  sim::Cycles enqueue_time() const { return enqueue_time_; }
  std::uint64_t dispatch_count() const { return dispatch_count_; }

 private:
  friend class DpcQueue;
  friend class Dispatcher;
  friend class Smp;

  sim::InplaceCallback routine_;
  sim::InplaceCallback on_complete_;
  sim::DurationDist body_;
  Label label_;
  Importance importance_;
  bool queued_ = false;
  sim::Cycles enqueue_time_ = 0;
  std::uint64_t dispatch_count_ = 0;
};

// A system DPC queue. Uniprocessor profiles have exactly one (the paper's
// testbed); SMP profiles (kernel::Smp) instantiate one per core.
class DpcQueue {
 public:
  // Returns false if the DPC is already queued (KeInsertQueueDpc semantics).
  // High-importance DPCs go to the front, others to the back.
  bool Insert(KDpc* dpc, sim::Cycles now);

  // Dequeue the next DPC; nullptr if empty. Clears the queued flag.
  KDpc* Pop();

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  // Notified on the empty->nonempty transition (the dispatcher requests a
  // software interrupt at DISPATCH level).
  void set_notifier(sim::InplaceCallback notifier) { notifier_ = std::move(notifier); }

 private:
  std::deque<KDpc*> queue_;
  sim::InplaceCallback notifier_;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_DPC_H_
