// Slab-allocated, generation-tagged pool of event records.
//
// The engine owns one pool and addresses records by 32-bit slot index; freed
// slots are recycled through an intrusive free list, so steady-state
// scheduling never allocates. Every slot carries a 64-bit generation counter
// that increments on allocate *and* on release: a generation is odd exactly
// while that incarnation is scheduled, and an EventHandle's stored generation
// matches the slot's current one only for the incarnation it was issued for.
// Stale handles (fired, cancelled, or slot-reused) therefore read "not
// pending" and cancel as a no-op without any per-event heap record.
//
// A timer slot (sim::Timer) is persistent: its callable is built once and
// the slot stays off the free list until the timer is destroyed. Its
// generation is odd while armed and even while disarmed; arming, disarming
// and firing bump it exactly as allocate, cancel and fire do for a one-shot
// slot, so a stale calendar entry is dead for both kinds alike.
//
// Handles keep the pool alive through a non-atomic intrusive refcount (the
// engine and all its handles live on one thread by construction), which is
// what makes Cancel()/pending() safe even on a handle that outlives the
// engine: the engine's destructor Shutdown()s the pool — releasing captured
// state and bumping every live generation — and drops its reference, while
// the memory stays valid until the last handle lets go.

#ifndef SRC_SIM_EVENT_POOL_H_
#define SRC_SIM_EVENT_POOL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/inplace_callback.h"

namespace wdmlat::sim {

class EventPool {
 public:
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  // Slab granularity: 256 slots ≈ 16 KiB per slab, allocated on demand and
  // never released until the pool dies, so slot addresses are stable.
  static constexpr std::uint32_t kSlabBits = 8;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  void AddRef() { ++refs_; }
  void Release() {
    assert(refs_ > 0);
    if (--refs_ == 0) {
      Destroy();
    }
  }

  // Claim a free slot for a newly scheduled event, constructing the callable
  // directly in the slot (no relocation). Returns the slot index; the slot's
  // generation (now odd) identifies this incarnation.
  template <typename F>
  std::uint32_t Allocate(F&& cb) {
    const std::uint32_t index = PopFree();
    Slot& s = slot(index);
    ++s.generation;  // odd: scheduled
    s.callback.emplace(std::forward<F>(cb));
    ++live_;
    return index;
  }

  // Claim a slot for a timer and build its callable once. The slot starts
  // disarmed (even generation) and stays off the free list until FreeTimer.
  template <typename F>
  std::uint32_t AllocateTimer(F&& cb) {
    const std::uint32_t index = PopFree();
    Slot& s = slot(index);
    s.flags = kTimerSlot;
    s.callback.emplace(std::forward<F>(cb));
    return index;
  }

  // Arm timer `index`, disarming it first if it is armed. Returns the new
  // (odd) generation, which the calendar entry for this arming carries.
  std::uint64_t ArmTimer(std::uint32_t index) {
    Slot& s = slot(index);
    assert((s.flags & kTimerSlot) != 0 && "arming a slot that is not a timer");
    if ((s.generation & 1) != 0) {
      ++s.generation;  // re-arm: the old entry goes stale
    } else {
      ++live_;
    }
    ++s.generation;
    return s.generation;
  }

  // Disarm timer `index`; a no-op when it is not armed. Its calendar entry
  // goes stale and the callable stays in place for the next arming.
  void DisarmTimer(std::uint32_t index) {
    Slot& s = slot(index);
    if ((s.generation & 1) != 0) {
      ++s.generation;
      assert(live_ > 0);
      --live_;
    }
  }

  // The timer is being destroyed: disarm it, release its callable and
  // return the slot to the free list. A timer destroyed by its own
  // callable keeps the slot until that callable returns (EndTimerFire).
  void FreeTimer(std::uint32_t index) {
    DisarmTimer(index);
    Slot& s = slot(index);
    if ((s.flags & kFiring) != 0) {
      s.flags |= kFreedWhileFiring;
      return;
    }
    ReturnTimerSlot(index, s);
  }

  bool is_timer(std::uint32_t index) const { return (slot(index).flags & kTimerSlot) != 0; }

  // Fire armed timer `index`: disarm it and invoke its callable in place,
  // with no move and no slot release. The callable may re-arm its timer.
  void FireTimer(std::uint32_t index) {
    Slot& s = slot(index);
    assert((s.flags & kTimerSlot) != 0 && (s.generation & 1) != 0);
    ++s.generation;
    --live_;
    s.flags |= kFiring;
    // Slabs never move, so `s` stays valid however the callable grows the
    // pool; the scope clears the firing mark even if the callable throws.
    struct FiringScope {
      EventPool* pool;
      std::uint32_t index;
      ~FiringScope() { pool->EndTimerFire(index); }
    } scope{this, index};
    s.callback();
  }

  // Move the callback out and free the slot (the event is firing).
  InplaceCallback Take(std::uint32_t index) {
    Slot& s = slot(index);
    assert((s.generation & 1) != 0 && "taking a slot that is not scheduled");
    assert((s.flags & kTimerSlot) == 0 && "timer slots fire in place");
    InplaceCallback cb = std::move(s.callback);
    ReleaseSlot(index, s);
    return cb;
  }

  // Cancel incarnation `generation` of `index` if it is still the current
  // one. Returns true when the event was live and is now cancelled; stale
  // generations (fired / already cancelled / slot reused / engine shut down)
  // are a no-op.
  bool CancelIfCurrent(std::uint32_t index, std::uint64_t generation) {
    Slot& s = slot(index);
    if (s.generation != generation) {
      return false;
    }
    assert((s.flags & kTimerSlot) == 0 && "timers disarm, they are not cancelled");
    s.callback.reset();  // release captured state eagerly
    ReleaseSlot(index, s);
    return true;
  }

  std::uint64_t generation(std::uint32_t index) const { return slot(index).generation; }

  // Scheduled-and-not-yet-fired events, excluding cancelled ones.
  std::size_t live() const { return live_; }

  // Total slots ever created (capacity high-water mark), for tests.
  std::size_t capacity() const { return slabs_.size() * kSlabSize; }

  // Self-check for the invariant auditor. Appends one line per violation:
  // the odd-generation (scheduled or armed) slot count must equal live_, the
  // free list must be cycle-free and contain only even-generation one-shot
  // slots, free, live and disarmed timer slots must account for exactly
  // capacity() slots, and the pool must be referenced.
  void AuditConsistency(std::vector<std::string>* violations) const {
    std::size_t scheduled = 0;
    std::size_t idle_timers = 0;
    for (const auto& slab : slabs_) {
      for (std::uint32_t i = 0; i < kSlabSize; ++i) {
        if ((slab[i].generation & 1) != 0) {
          ++scheduled;
        } else if ((slab[i].flags & kTimerSlot) != 0) {
          ++idle_timers;
        }
      }
    }
    if (scheduled != live_) {
      violations->push_back("event_pool: " + std::to_string(scheduled) +
                            " slots carry a scheduled (odd) generation but live()=" +
                            std::to_string(live_));
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
      if ((slot(cursor).generation & 1) != 0) {
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
    if (free_len <= cap && free_len + live_ + idle_timers != cap) {
      violations->push_back("event_pool: free(" + std::to_string(free_len) +
                            ") + live(" + std::to_string(live_) + ") + disarmed timers(" +
                            std::to_string(idle_timers) + ") != capacity(" +
                            std::to_string(cap) + ")");
    }
    if (refs_ == 0) {
      violations->push_back("event_pool: refcount is zero while in use");
    }
  }

  // Called by the engine's destructor: cancel every live incarnation and
  // release every timer's callable, so captured state is released and
  // outstanding handles and timers read "not pending" / "not armed".
  void Shutdown() {
    for (auto& slab : slabs_) {
      for (std::uint32_t i = 0; i < kSlabSize; ++i) {
        Slot& s = slab[i];
        if ((s.generation & 1) != 0) {
          ++s.generation;
        }
        s.callback.reset();
      }
    }
    live_ = 0;
  }

  // Warm reuse (Engine::Reset): cancel every live one-shot incarnation like
  // Shutdown and disarm every timer, keeping its callable, then rethread the
  // free list across the retained slabs over every slot that is not a
  // timer's. Generations keep counting (never rewound), so handles issued
  // before the reset still read "not pending" afterwards. Slot numbering
  // and generation values never feed the simulation — fire order is
  // strictly (when, seq) — so a run on a reset pool is bit-identical to one
  // on a fresh pool.
  void ResetAll() {
    live_ = 0;
    free_head_ = kInvalidSlot;
    // Walk the slots from the top down so the free list runs from the
    // lowest free slot upward, the order a freshly grown slab starts with.
    for (std::uint32_t index = static_cast<std::uint32_t>(capacity()); index-- > 0;) {
      Slot& s = slot(index);
      if ((s.generation & 1) != 0) {
        ++s.generation;
        if ((s.flags & kTimerSlot) == 0) {
          s.callback.reset();
        }
      }
      if ((s.flags & kTimerSlot) == 0) {
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
  // Deletes the pool; out of line, so a caller that drops two references
  // in a row does not inline a `delete this` between the two decrements.
  [[gnu::cold, gnu::noinline]] void Destroy();

  // Slot::flags bits. kFiring and kFreedWhileFiring only ever accompany
  // kTimerSlot.
  static constexpr std::uint8_t kTimerSlot = 1;        // owned by a sim::Timer
  static constexpr std::uint8_t kFiring = 2;           // its callable is running
  static constexpr std::uint8_t kFreedWhileFiring = 4;  // its timer died meanwhile

  struct Slot {
    InplaceCallback callback;
    std::uint64_t generation = 0;  // odd while scheduled or armed, else even
    std::uint32_t next_free = kInvalidSlot;
    std::uint8_t flags = 0;
  };

  Slot& slot(std::uint32_t index) { return slabs_[index >> kSlabBits][index & (kSlabSize - 1)]; }
  const Slot& slot(std::uint32_t index) const {
    return slabs_[index >> kSlabBits][index & (kSlabSize - 1)];
  }

  void ReleaseSlot(std::uint32_t index, Slot& s) {
    ++s.generation;  // even: free
    s.next_free = free_head_;
    free_head_ = index;
    assert(live_ > 0);
    --live_;
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
  std::size_t live_ = 0;
  std::size_t refs_ = 1;  // the engine's reference
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_EVENT_POOL_H_
