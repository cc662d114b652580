// Kernel timers.
//
// KeSetTimer arms a timer whose expiry is detected by the clock (PIT) ISR at
// the next tick at or after the due time; expiry queues the timer's DPC.
// This matches the paper's tool exactly: "The PIT ISR will enqueue
// LatDpcRoutine in the DPC queue" (Section 2.2.2), and gives timer expiry the
// ±1-tick resolution the paper describes. Single-shot timers are WDM
// original; NT 4.0 added periodic timers (paper Section 2.2), which we also
// support.
//
// The queue shares the engine calendar's allocation-free design — POD
// entries, generation-tagged so Cancel/re-Set invalidate lazily, with bulk
// compaction once stale entries outnumber active timers — but keeps them in
// a binary heap where the calendar keeps a sorted vector.
// ExpireDue is templated on the fire functor so the per-tick call from the
// clock ISR wraps it in no callable object, and dispatches in collect-then-fire
// batches so a tick with many due timers does one heap drain, not an
// interleaved pop-fire-pop walk.

#ifndef SRC_KERNEL_TIMER_H_
#define SRC_KERNEL_TIMER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/kernel/dpc.h"
#include "src/sim/time.h"

namespace wdmlat::kernel {

class KTimer {
 public:
  KTimer() = default;
  KTimer(const KTimer&) = delete;
  KTimer& operator=(const KTimer&) = delete;

  bool active() const { return active_; }
  sim::Cycles due() const { return due_; }

 private:
  friend class TimerQueue;

  sim::Cycles due_ = 0;
  sim::Cycles period_ = 0;  // 0 = single shot
  KDpc* dpc_ = nullptr;
  bool active_ = false;
  std::uint64_t generation_ = 0;  // invalidates stale heap entries
};

class TimerQueue {
 public:
  // Arm `timer` to expire `due` cycles absolute; `period` > 0 re-arms it
  // after each expiry. Re-setting an active timer implicitly cancels the
  // previous arming (KeSetTimer semantics).
  void Set(KTimer* timer, sim::Cycles due, sim::Cycles period, KDpc* dpc);

  // Returns true if the timer was active (KeCancelTimer semantics).
  bool Cancel(KTimer* timer);

  // Called from the clock ISR: fire every timer due at or before `now`.
  // `fire` receives the timer and its DPC (possibly nullptr — timers without
  // DPCs simply complete). Returns the number of timers expired.
  //
  // Dispatch is batched: one collection pass pops every due entry in
  // (due, seq) order — re-arming periodic timers and popping them again in
  // the same pass if their next due is still within `now`, exactly as the
  // per-pop loop did — then the fire functor runs over the whole batch.
  // The outer loop re-collects afterwards so a timer Set from inside `fire`
  // with an already-elapsed due still expires on this tick. Not reentrant
  // (single scratch buffer); only the clock ISR calls it.
  template <typename Fire>
  int ExpireDue(sim::Cycles now, Fire&& fire) {
    int expired = 0;
    for (;;) {
      scratch_.clear();
      while (!heap_.empty() && heap_.front().due <= now) {
        const HeapEntry entry = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
        heap_.pop_back();
        KTimer* timer = entry.timer;
        if (!timer->active_ || entry.generation != timer->generation_) {
          continue;  // stale: cancelled or superseded by a re-Set
        }
        if (timer->period_ > 0) {
          // Periodic: re-arm relative to the due time, not the tick, so the
          // period does not drift.
          timer->due_ += timer->period_;
          ++timer->generation_;
          Push(HeapEntry{timer->due_, next_seq_++, timer, timer->generation_});
        } else {
          timer->active_ = false;
          --active_count_;
        }
        // The DPC is latched at expiry: a re-Set from inside `fire` must not
        // retarget this batch's dispatch.
        scratch_.push_back(ExpiredTimer{timer, timer->dpc_});
      }
      if (scratch_.empty()) {
        return expired;
      }
      expired += static_cast<int>(scratch_.size());
      for (const ExpiredTimer& due : scratch_) {
        fire(due.timer, due.dpc);
      }
    }
  }

  std::size_t pending() const { return active_count_; }

  // Observability: stale (cancelled / superseded) entries still in the heap.
  std::size_t stale_entries() const {
    return heap_.size() > active_count_ ? heap_.size() - active_count_ : 0;
  }

 private:
  struct HeapEntry {
    sim::Cycles due;
    std::uint64_t seq;
    KTimer* timer;
    std::uint64_t generation;
  };
  struct ExpiredTimer {
    KTimer* timer;
    KDpc* dpc;
  };
  struct FiresLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.due != b.due) {
        return a.due > b.due;
      }
      return a.seq > b.seq;
    }
  };

  void Push(HeapEntry entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
  }
  void MaybeCompact();

  std::vector<HeapEntry> heap_;
  std::vector<ExpiredTimer> scratch_;  // batched-dispatch buffer, reused per tick
  std::uint64_t next_seq_ = 0;
  std::size_t active_count_ = 0;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_TIMER_H_
