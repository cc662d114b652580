// Discrete-event simulation engine.
//
// A single-threaded event calendar: callbacks are scheduled at absolute
// virtual times and executed in (time, insertion-order) order. Everything in
// wdmlat — hardware devices, the kernel, workloads, the measurement drivers —
// is driven from this calendar. There is no wall-clock anywhere; virtual
// hours of Windows activity run in wall-clock seconds.
//
// The calendar is one vector kept sorted in reverse fire order, so the next
// event sits at the back: pop is pop_back, and insert scans in from the back,
// which is short because most events are scheduled a little way ahead. The
// simulated machine keeps few events pending (a mean of 13-16 and a maximum
// of 162 across the benches; EXPERIMENTS.md, "A calendar sized to its
// traffic"), so a flat vector beats any tiered structure. The hot path is
// allocation-free in steady state: event records live in a slab/free-list
// EventPool, callbacks are small-buffer-optimized InplaceCallbacks, and the
// calendar stores plain POD entries in a vector that keeps its capacity.
// The calendar holds live entries only: disarming a timer erases its entry
// at once (see DESIGN.md §7 for the invariants).
//
// Two kinds of event share the calendar. A one-shot event (ScheduleAt /
// ScheduleAfter) builds its callable into a pool slot that is freed when it
// fires; it cannot be cancelled. A Timer owns one pool slot for its whole
// life and builds its callable there once: each arming inserts one calendar
// entry, disarming or re-arming erases it, and firing runs the callable in
// place. Both take the next insertion sequence number per calendar entry,
// so a client that moves from re-scheduling one callable to re-arming a
// Timer fires in exactly the same order.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/calendar.h"
#include "src/sim/event_pool.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::sim {

class Engine {
 public:
  using Callback = InplaceCallback;

  Engine() = default;
  // Every Timer on this engine must be destroyed before it.
  ~Engine() { assert(pool_.timers() == 0 && "a sim::Timer outlived its engine"); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current virtual time. Monotonically non-decreasing.
  Cycles now() const { return now_; }

  // Schedule `cb` at absolute time `when`. Times in the past are clamped to
  // now(). Events scheduled for the same instant fire in insertion order.
  // The callable is constructed directly into its pool slot, so for captures
  // within InplaceCallback::kInlineSize this performs no heap allocation.
  template <typename F>
  void ScheduleAt(Cycles when, F&& cb) {
    if (when < now_) {
      when = now_;
    }
    const std::uint32_t slot = pool_.Allocate(std::forward<F>(cb));
    CalendarInsert(calendar_, QueueEntry{when, next_seq_++, slot});
  }

  // Schedule `cb` `delay` cycles from now.
  template <typename F>
  void ScheduleAfter(Cycles delay, F&& cb) {
    ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  // Execute the next pending event, if any. Returns false when the calendar
  // is empty.
  bool Step() {
    QueueEntry entry;
    if (!PopNext(kNoDeadline, &entry)) {
      return false;
    }
    Fire(entry);
    return true;
  }

  // Run events until the calendar is empty or a callback calls RequestStop().
  void RunUntilIdle();

  // Run all events with time <= `deadline` (or until RequestStop()), then
  // advance now() to `deadline`.
  void RunUntil(Cycles deadline);

  // Abort a RunUntil / RunUntilIdle loop from inside a callback.
  void RequestStop() { stop_requested_ = true; }

  // Warm reuse: return the engine to its freshly constructed state — time 0,
  // sequence 0, empty calendar — while keeping the calendar vector's and the
  // pool's grown capacity. Outstanding one-shots are dropped (their captured
  // state is released) and live timers are disarmed, keeping their slots
  // and callables, so callers must have torn down anything that expects its
  // callbacks to still fire. A run on a reset engine is bit-identical to one
  // on a new engine: fire order is (when, seq) and both restart from zero
  // (guarded by the fleet golden-checksum test). Defined in engine.cc.
  void Reset();

  std::uint64_t events_processed() const { return events_processed_; }

  // Scheduled-and-not-yet-fired one-shots plus armed timers: the calendar
  // holds exactly one entry for each.
  std::size_t events_pending() const { return calendar_.size(); }

  // Always 0: the calendar holds live entries only, so there is nothing to
  // compact. Kept only because perfbench/workloads.cc reads it for its
  // sim.compactions_per_vsec metric.
  std::uint64_t compactions() const { return 0; }

  // Invariant audit for sim::InvariantAuditor: validates that the calendar
  // is sorted in fire order, that its sequence numbers were issued before
  // next_seq_, that no entry is scheduled in the past, that each entry's
  // slot is a scheduled one-shot or the armed timer whose (when, seq) the
  // entry carries, that the pending slots number exactly the entries, and
  // the pool's slab/free-list consistency. Appends one line per violation;
  // appends nothing when healthy.
  void AuditCalendar(std::vector<std::string>* violations) const;

 private:
  struct QueueEntry {
    Cycles when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr Cycles kNoDeadline = std::numeric_limits<Cycles>::max();

  // Pop the next entry into `out` if its time is <= `deadline`. Shared by
  // Step and RunUntil.
  bool PopNext(Cycles deadline, QueueEntry* out) {
    if (calendar_.empty() || calendar_.back().when > deadline) {
      return false;
    }
    *out = calendar_.back();
    calendar_.pop_back();
    return true;
  }

  friend class Timer;

  // Timer support: erase the timer's pending entry, if any, then insert one
  // calendar entry with the next sequence number, exactly as ScheduleAt
  // would insert it.
  void ArmTimer(std::uint32_t slot, Cycles when) {
    if (when < now_) {
      when = now_;
    }
    DisarmTimer(slot);
    const std::uint64_t seq = next_seq_++;
    pool_.ArmTimer(slot, when, seq);
    CalendarInsert(calendar_, QueueEntry{when, seq, slot});
  }

  void DisarmTimer(std::uint32_t slot) {
    if (pool_.armed(slot)) {
      CalendarErase(calendar_, pool_.when(slot), pool_.seq(slot));
      pool_.DisarmTimer(slot);
    }
  }

  // Fire a popped entry: advance time, run the callback. A timer's callable
  // runs in place in its persistent slot; a one-shot's slot is freed first.
  void Fire(const QueueEntry& entry) {
    now_ = entry.when;
    ++events_processed_;
    if (pool_.is_timer(entry.slot)) {
      pool_.FireTimer(entry.slot);
      return;
    }
    // Move the callback out of the pool (freeing the slot for reuse) so the
    // callback may itself schedule into the freed slot.
    InplaceCallback cb = pool_.Take(entry.slot);
    cb();
  }

  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  EventPool pool_;
  // One entry per scheduled one-shot and armed timer, sorted under
  // FiresLater: the back is the next to fire.
  std::vector<QueueEntry> calendar_;
};

// Re-armable event: a callable built once into a persistent pool slot,
// fired each time the timer is armed. Arming an armed timer disarms it
// first; disarming erases its calendar entry. When the timer fires it is
// disarmed before its callable runs, so the callable may re-arm it.
// Destroying a timer disarms it and frees its slot. A timer must not outlive
// its engine; the engine's destructor asserts that none does.
class Timer {
 public:
  Timer() = default;
  template <typename F>
  Timer(Engine& engine, F&& cb)
      : engine_(&engine), slot_(engine.pool_.AllocateTimer(std::forward<F>(cb))) {
    static_assert(InplaceCallback::kFitsInline<F>,
                  "timers re-fire one callable for the life of their owner and "
                  "must never take the callback heap-fallback path");
  }
  Timer(Timer&& other) noexcept
      : engine_(std::exchange(other.engine_, nullptr)), slot_(other.slot_) {}
  Timer& operator=(Timer&& other) noexcept {
    Timer moved(std::move(other));
    std::swap(engine_, moved.engine_);
    std::swap(slot_, moved.slot_);
    return *this;
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() {
    if (engine_ != nullptr) {
      engine_->DisarmTimer(slot_);
      engine_->pool_.FreeTimer(slot_);
    }
  }

  // Fire at absolute time `when` (clamped to now()), replacing any pending
  // arming.
  void ArmAt(Cycles when) { engine_->ArmTimer(slot_, when); }
  void ArmAfter(Cycles delay) { ArmAt(engine_->now() + delay); }

  // Cancel the pending arming, if any. Safe to call in any state.
  void Disarm() {
    if (engine_ != nullptr) {
      engine_->DisarmTimer(slot_);
    }
  }

  bool armed() const { return engine_ != nullptr && engine_->pool_.armed(slot_); }

 private:
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = EventPool::kInvalidSlot;
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_ENGINE_H_
