// Slab-allocated pool of event records.
//
// The engine owns one pool and addresses records by 32-bit slot index; freed
// slots are recycled through an intrusive free list, so steady-state
// scheduling never allocates. A one-shot slot (Engine::ScheduleAt) holds its
// callable from scheduling until it fires; nothing cancels a one-shot.
//
// A timer slot (sim::Timer) is persistent: its callable is built once and
// the slot stays off the free list until the timer is destroyed. While the
// timer is armed the slot records the (when, seq) of its one calendar entry,
// which is how the engine finds and erases that entry when the timer is
// disarmed, re-armed or destroyed.
//
// The pool knows nothing of the calendar; the engine keeps the two in step
// (every pending slot owns exactly one calendar entry) and its audit checks
// that they are.

#ifndef SRC_SIM_EVENT_POOL_H_
#define SRC_SIM_EVENT_POOL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::sim {

class EventPool {
 public:
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  // Slab granularity: 256 slots per slab, allocated on demand and never
  // released until the pool dies, so slot addresses are stable.
  static constexpr std::uint32_t kSlabBits = 8;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  // Claim a free slot for a newly scheduled one-shot, constructing the
  // callable directly in the slot (no relocation). Returns the slot index.
  template <typename F>
  std::uint32_t Allocate(F&& cb) {
    const std::uint32_t index = PopFree();
    Slot& s = slot(index);
    s.flags = kPending;
    s.callback.emplace(std::forward<F>(cb));
    return index;
  }

  // Claim a slot for a timer and build its callable once. The slot starts
  // disarmed and stays off the free list until FreeTimer.
  template <typename F>
  std::uint32_t AllocateTimer(F&& cb) {
    const std::uint32_t index = PopFree();
    Slot& s = slot(index);
    s.flags = kTimerSlot;
    s.callback.emplace(std::forward<F>(cb));
    ++timers_;
    return index;
  }

  // Record the arming of disarmed timer `index` at (`when`, `seq`).
  void ArmTimer(std::uint32_t index, Cycles when, std::uint64_t seq) {
    Slot& s = slot(index);
    assert(is_timer(index) && !armed(index));
    s.flags |= kPending;
    s.when = when;
    s.seq = seq;
  }

  // Mark armed timer `index` disarmed; the engine has erased its entry.
  void DisarmTimer(std::uint32_t index) {
    Slot& s = slot(index);
    assert(armed(index));
    s.flags &= static_cast<std::uint8_t>(~kPending);
  }

  // Scheduled (a one-shot) or armed (a timer).
  bool pending(std::uint32_t index) const { return (slot(index).flags & kPending) != 0; }
  bool armed(std::uint32_t index) const {
    return (slot(index).flags & (kTimerSlot | kPending)) == (kTimerSlot | kPending);
  }
  // The (when, seq) of armed timer `index`'s calendar entry.
  Cycles when(std::uint32_t index) const { return slot(index).when; }
  std::uint64_t seq(std::uint32_t index) const { return slot(index).seq; }

  // The disarmed timer is being destroyed: release its callable and return
  // the slot to the free list. A timer destroyed by its own callable keeps
  // the slot until that callable returns (EndTimerFire).
  void FreeTimer(std::uint32_t index) {
    Slot& s = slot(index);
    assert(!armed(index));
    if ((s.flags & kFiring) != 0) {
      s.flags |= kFreedWhileFiring;
      return;
    }
    ReturnTimerSlot(index, s);
  }

  bool is_timer(std::uint32_t index) const { return (slot(index).flags & kTimerSlot) != 0; }

  // Fire armed timer `index`, whose entry the engine has popped: disarm it
  // and invoke its callable in place, with no move and no slot release. The
  // callable may re-arm its timer.
  void FireTimer(std::uint32_t index) {
    Slot& s = slot(index);
    assert(armed(index));
    s.flags = static_cast<std::uint8_t>((s.flags & ~kPending) | kFiring);
    // Slabs never move, so `s` stays valid however the callable grows the
    // pool; the scope clears the firing mark even if the callable throws.
    struct FiringScope {
      EventPool* pool;
      std::uint32_t index;
      ~FiringScope() { pool->EndTimerFire(index); }
    } scope{this, index};
    s.callback();
  }

  // Move the one-shot's callback out and free the slot (the event is firing).
  InplaceCallback Take(std::uint32_t index) {
    Slot& s = slot(index);
    assert(s.flags == kPending && "taking a slot that is not a scheduled one-shot");
    InplaceCallback cb = std::move(s.callback);
    s.flags = 0;
    s.next_free = free_head_;
    free_head_ = index;
    return cb;
  }

  // Timers alive (constructed and not yet destroyed) on this pool.
  std::size_t timers() const { return timers_; }

  // Total slots ever created (capacity high-water mark), for tests.
  std::size_t capacity() const { return slabs_.size() * kSlabSize; }

  // Self-check for the invariant auditor. Appends one line per violation:
  // the free list must be cycle-free and hold only idle one-shot slots,
  // and free slots, scheduled one-shots and timer slots must account for
  // exactly capacity() slots. Returns the pending slot count (scheduled
  // one-shots and armed timers), which the engine matches against its
  // calendar.
  std::size_t AuditConsistency(std::vector<std::string>* violations) const {
    std::size_t pending = 0;
    std::size_t oneshots = 0;
    std::size_t timer_slots = 0;
    for (const auto& slab : slabs_) {
      for (std::uint32_t i = 0; i < kSlabSize; ++i) {
        const std::uint8_t flags = slab[i].flags;
        pending += (flags & kPending) != 0 ? 1 : 0;
        if ((flags & kTimerSlot) != 0) {
          ++timer_slots;
        } else if ((flags & kPending) != 0) {
          ++oneshots;
        }
      }
    }
    if (timer_slots != timers_) {
      violations->push_back("event_pool: " + std::to_string(timer_slots) +
                            " timer slots but timers()=" + std::to_string(timers_));
    }
    const std::size_t cap = capacity();
    std::size_t free_len = 0;
    for (std::uint32_t cursor = free_head_; cursor != kInvalidSlot;
         cursor = slot(cursor).next_free) {
      if (cursor >= cap) {
        violations->push_back("event_pool: free list points at slot " +
                              std::to_string(cursor) + " beyond capacity " +
                              std::to_string(cap));
        break;
      }
      if ((slot(cursor).flags & kPending) != 0) {
        violations->push_back("event_pool: free list contains scheduled slot " +
                              std::to_string(cursor));
        break;
      }
      if ((slot(cursor).flags & kTimerSlot) != 0) {
        violations->push_back("event_pool: free list contains timer slot " +
                              std::to_string(cursor));
        break;
      }
      if (++free_len > cap) {
        violations->push_back("event_pool: free list is cyclic (walked " +
                              std::to_string(free_len) + " links over capacity " +
                              std::to_string(cap) + ")");
        break;
      }
    }
    if (free_len <= cap && free_len + oneshots + timer_slots != cap) {
      violations->push_back("event_pool: free(" + std::to_string(free_len) +
                            ") + scheduled(" + std::to_string(oneshots) + ") + timers(" +
                            std::to_string(timer_slots) + ") != capacity(" +
                            std::to_string(cap) + ")");
    }
    return pending;
  }

  // Warm reuse (Engine::Reset): drop every scheduled one-shot, releasing its
  // captured state, and disarm every timer, keeping its callable, then
  // rethread the free list across the retained slabs over every slot that
  // is not a timer's. Slot numbering never feeds the simulation — fire
  // order is strictly (when, seq) — so a run on a reset pool is
  // bit-identical to one on a fresh pool.
  void ResetAll() {
    free_head_ = kInvalidSlot;
    // Walk the slots from the top down so the free list runs from the
    // lowest free slot upward, the order a freshly grown slab starts with.
    for (std::uint32_t index = static_cast<std::uint32_t>(capacity()); index-- > 0;) {
      Slot& s = slot(index);
      s.flags &= static_cast<std::uint8_t>(~kPending);
      if ((s.flags & kTimerSlot) == 0) {
        s.callback.reset();
        s.next_free = free_head_;
        free_head_ = index;
      }
    }
  }

  // Test-only corruption for the invariant auditor's own tests: thread
  // `index` onto the free list as is, whatever it holds.
  void ThreadOntoFreeListForTesting(std::uint32_t index) {
    slot(index).next_free = free_head_;
    free_head_ = index;
  }

 private:
  // Slot::flags bits. kFiring and kFreedWhileFiring only ever accompany
  // kTimerSlot.
  static constexpr std::uint8_t kPending = 1;           // scheduled, or armed
  static constexpr std::uint8_t kTimerSlot = 2;         // owned by a sim::Timer
  static constexpr std::uint8_t kFiring = 4;            // its callable is running
  static constexpr std::uint8_t kFreedWhileFiring = 8;  // its timer died meanwhile

  struct Slot {
    InplaceCallback callback;
    Cycles when = 0;        // armed timer: its calendar entry's key
    std::uint64_t seq = 0;
    std::uint32_t next_free = kInvalidSlot;
    std::uint8_t flags = 0;
  };

  Slot& slot(std::uint32_t index) { return slabs_[index >> kSlabBits][index & (kSlabSize - 1)]; }
  const Slot& slot(std::uint32_t index) const {
    return slabs_[index >> kSlabBits][index & (kSlabSize - 1)];
  }

  std::uint32_t PopFree() {
    if (free_head_ == kInvalidSlot) {
      Grow();
    }
    const std::uint32_t index = free_head_;
    free_head_ = slot(index).next_free;
    return index;
  }

  // A disarmed timer slot becomes an ordinary free slot.
  void ReturnTimerSlot(std::uint32_t index, Slot& s) {
    s.flags = 0;
    s.callback.reset();
    s.next_free = free_head_;
    free_head_ = index;
    --timers_;
  }

  void EndTimerFire(std::uint32_t index) {
    Slot& s = slot(index);
    s.flags &= static_cast<std::uint8_t>(~kFiring);
    if ((s.flags & kFreedWhileFiring) != 0) {
      ReturnTimerSlot(index, s);
    }
  }

  void Grow() {
    const std::uint32_t base = static_cast<std::uint32_t>(slabs_.size()) << kSlabBits;
    assert(slabs_.size() < (1u << (32 - kSlabBits)) && "event pool exhausted");
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
    // Thread the new slab onto the free list in ascending index order.
    Slot* slab = slabs_.back().get();
    for (std::uint32_t i = 0; i < kSlabSize - 1; ++i) {
      slab[i].next_free = base + i + 1;
    }
    slab[kSlabSize - 1].next_free = free_head_;
    free_head_ = base;
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t free_head_ = kInvalidSlot;
  std::size_t timers_ = 0;
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_EVENT_POOL_H_
