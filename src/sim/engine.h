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
// Cancelled events leave stale entries behind that are dropped when they
// reach the back and compacted when they outnumber the live ones (see
// DESIGN.md §7 for the invariants).
//
// Two kinds of event share the calendar. A one-shot event (ScheduleAt /
// ScheduleAfter) builds its callable into a pool slot that is freed when it
// fires or is cancelled; an EventHandle cancels it. A Timer owns one pool
// slot for its whole life and builds its callable there once: each arming
// inserts one calendar entry, and firing runs the callable in place. Both
// take the next insertion sequence number per calendar entry, so a client
// that moves from re-scheduling one callable to re-arming a Timer fires in
// exactly the same order.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_pool.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::sim {

class Engine;

// Cancellable reference to a scheduled event: {pool, slot, generation}.
// Default-constructed handles are inert; cancelling an already-fired or
// already-cancelled event is a no-op, as is cancelling through a handle whose
// slot has been recycled for a newer event or whose engine has been
// destroyed (the handle's pool reference keeps the slot memory valid).
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : pool_(other.pool_), generation_(other.generation_), slot_(other.slot_) {
    if (pool_ != nullptr) {
      pool_->AddRef();
    }
  }
  EventHandle(EventHandle&& other) noexcept
      : pool_(other.pool_), generation_(other.generation_), slot_(other.slot_) {
    other.pool_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& other) {
    EventHandle copy(other);
    swap(copy);
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    swap(other);
    return *this;
  }
  ~EventHandle() {
    if (pool_ != nullptr) {
      pool_->Release();
    }
  }

  // True if the event is still pending (not fired, not cancelled).
  bool pending() const { return pool_ != nullptr && pool_->generation(slot_) == generation_; }

  // Prevent the event from firing. Safe to call in any state.
  void Cancel() {
    if (pool_ != nullptr) {
      pool_->CancelIfCurrent(slot_, generation_);
    }
  }

 private:
  friend class Engine;
  EventHandle(EventPool* pool, std::uint32_t slot, std::uint64_t generation)
      : pool_(pool), generation_(generation), slot_(slot) {
    pool_->AddRef();
  }
  void swap(EventHandle& other) noexcept {
    std::swap(pool_, other.pool_);
    std::swap(generation_, other.generation_);
    std::swap(slot_, other.slot_);
  }

  EventPool* pool_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint32_t slot_ = EventPool::kInvalidSlot;
};

class Engine {
 public:
  using Callback = InplaceCallback;

  Engine() : pool_(new EventPool) {}
  ~Engine() {
    pool_->Shutdown();
    pool_->Release();
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current virtual time. Monotonically non-decreasing.
  Cycles now() const { return now_; }

  // Schedule `cb` at absolute time `when`. Times in the past are clamped to
  // now(). Events scheduled for the same instant fire in insertion order.
  // The callable is constructed directly into its pool slot, so for captures
  // within InplaceCallback::kInlineSize this performs no heap allocation.
  template <typename F>
  EventHandle ScheduleAt(Cycles when, F&& cb) {
    if (when < now_) {
      when = now_;
    }
    const std::uint32_t slot = pool_->Allocate(std::forward<F>(cb));
    const std::uint64_t generation = pool_->generation(slot);
    Insert(QueueEntry{when, next_seq_++, generation, slot});
    return EventHandle(pool_, slot, generation);
  }

  // Schedule `cb` `delay` cycles from now.
  template <typename F>
  EventHandle ScheduleAfter(Cycles delay, F&& cb) {
    return ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  // Execute the next pending event, if any. Returns false when the calendar
  // is empty.
  bool Step() {
    QueueEntry entry;
    if (!PopNextLive(kNoDeadline, &entry)) {
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
  // pool's grown capacity. Outstanding events are cancelled wholesale (their
  // captured state is released and stale handles read "not pending") and
  // live timers are disarmed, keeping their slots and callables, so
  // callers must have torn down anything that expects its callbacks to still
  // fire. A run on a reset engine is bit-identical to one on a new engine:
  // fire order is (when, seq) and both restart from zero (guarded by the
  // fleet golden-checksum test). Defined in engine.cc.
  void Reset();

  std::uint64_t events_processed() const { return events_processed_; }

  // Number of scheduled-and-not-yet-fired events and armed timers, excluding
  // cancelled ones (their calendar entries linger until they reach the back
  // of the calendar or are compacted away, but they no longer count). Tests
  // can therefore assert on calendar size.
  std::size_t events_pending() const { return pool_->live(); }

  // Observability: stale (cancelled) entries still occupying the calendar,
  // and how many times the calendar has been compacted.
  std::size_t stale_entries() const { return calendar_.size() - pool_->live(); }
  std::uint64_t compactions() const { return compactions_; }

  // Invariant audit for sim::InvariantAuditor: validates that the calendar
  // is sorted in fire order, that no live entry is scheduled in the past,
  // that sequence numbers were issued before next_seq_, that every live pool
  // slot owns exactly one calendar entry, and the pool's
  // slab/free-list/generation consistency. Appends one line per violation;
  // appends nothing when healthy.
  void AuditCalendar(std::vector<std::string>* violations) const;

 private:
  // POD calendar entry: no refcounts, no indirection on insert. `generation`
  // pins the entry to one pool-slot incarnation; a mismatch means the event
  // was cancelled and the entry is dead.
  struct QueueEntry {
    Cycles when;
    std::uint64_t seq;
    std::uint64_t generation;
    std::uint32_t slot;
  };
  // The engine's total fire order is ascending (when, seq); the calendar is
  // kept sorted under "fires later", so the next event sits at the back.
  static bool FiresLater(const QueueEntry& a, const QueueEntry& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  static constexpr Cycles kNoDeadline = std::numeric_limits<Cycles>::max();
  // Below this calendar size, compaction is never worth the sweep; dead
  // entries are dropped for free when they reach the back.
  static constexpr std::size_t kCompactMinEntries = 64;

  // Insert in fire order. The new entry carries the largest seq issued, so
  // it goes in front of (fires after) every entry with the same `when`. Most
  // events are scheduled a short way ahead, so the scan from the back is
  // short and the insert moves few entries.
  void Insert(const QueueEntry& entry) {
    auto pos = calendar_.end();
    while (pos != calendar_.begin() && FiresLater(entry, *(pos - 1))) {
      --pos;
    }
    calendar_.insert(pos, entry);
    MaybeCompact();
  }

  // Drop dead entries (generation mismatch = cancelled) from the back, even
  // beyond the deadline, then pop the next live entry into `out` if its
  // time is <= `deadline`. Shared by Step and RunUntil.
  bool PopNextLive(Cycles deadline, QueueEntry* out) {
    while (!calendar_.empty()) {
      const QueueEntry& entry = calendar_.back();
      if (pool_->generation(entry.slot) != entry.generation) {
        calendar_.pop_back();
        continue;
      }
      if (entry.when > deadline) {
        return false;
      }
      *out = entry;
      calendar_.pop_back();
      return true;
    }
    return false;
  }

  friend class Timer;

  // Timer support: one calendar entry per arming, with the next sequence
  // number, exactly as ScheduleAt would insert it.
  void ArmTimer(std::uint32_t slot, Cycles when) {
    if (when < now_) {
      when = now_;
    }
    Insert(QueueEntry{when, next_seq_++, pool_->ArmTimer(slot), slot});
  }

  // Fire a popped entry: advance time, run the callback. A timer's callable
  // runs in place in its persistent slot; a one-shot's slot is freed first.
  void Fire(const QueueEntry& entry) {
    now_ = entry.when;
    ++events_processed_;
    if (pool_->is_timer(entry.slot)) {
      pool_->FireTimer(entry.slot);
      return;
    }
    // Move the callback out of the pool (freeing the slot for reuse) so
    // captured state dies with this scope even if a handle outlives the
    // event, and so the callback may itself schedule into the freed slot.
    InplaceCallback cb = pool_->Take(entry.slot);
    cb();
  }

  // Sweep dead entries out once they outnumber live ones. Every live event
  // owns exactly one calendar entry, so the dead-entry count is the stored
  // excess over the pool's live count.
  void MaybeCompact() {
    const std::size_t stored = calendar_.size();
    if (stored >= kCompactMinEntries && stored - pool_->live() > stored / 2) {
      Compact();
    }
  }
  void Compact();

  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t compactions_ = 0;
  bool stop_requested_ = false;
  EventPool* pool_;
  // Every scheduled entry, live or dead, sorted under FiresLater: the back
  // is the next to fire.
  std::vector<QueueEntry> calendar_;
};

// Re-armable event: a callable built once into a persistent pool slot,
// fired each time the timer is armed. For a recurring completion this
// replaces ScheduleAfter + EventHandle::Cancel, without a per-arming
// callable, pool claim or handle refcount. Arming an armed timer disarms it
// first; disarming leaves a stale calendar entry, as Cancel does. When the
// timer fires it is disarmed before its callable runs, so the callable may
// re-arm it. Destroying a timer disarms it and frees its slot; the timer
// holds a pool reference, so it may outlive its engine (it is then inert).
class Timer {
 public:
  Timer() = default;
  template <typename F>
  Timer(Engine& engine, F&& cb)
      : engine_(&engine),
        pool_(engine.pool_),
        slot_(engine.pool_->AllocateTimer(std::forward<F>(cb))) {
    static_assert(InplaceCallback::kFitsInline<F>,
                  "timers re-fire one callable for the life of their owner and "
                  "must never take the callback heap-fallback path");
    pool_->AddRef();
  }
  Timer(Timer&& other) noexcept
      : engine_(other.engine_), pool_(std::exchange(other.pool_, nullptr)), slot_(other.slot_) {}
  Timer& operator=(Timer&& other) noexcept {
    Timer moved(std::move(other));
    std::swap(engine_, moved.engine_);
    std::swap(pool_, moved.pool_);
    std::swap(slot_, moved.slot_);
    return *this;
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() {
    if (pool_ != nullptr) {
      pool_->FreeTimer(slot_);
      pool_->Release();
    }
  }

  // Fire at absolute time `when` (clamped to now()), replacing any pending
  // arming. The engine must still be alive.
  void ArmAt(Cycles when) { engine_->ArmTimer(slot_, when); }
  void ArmAfter(Cycles delay) { ArmAt(engine_->now() + delay); }

  // Cancel the pending arming, if any. Safe to call in any state.
  void Disarm() {
    if (pool_ != nullptr) {
      pool_->DisarmTimer(slot_);
    }
  }

  bool armed() const { return pool_ != nullptr && (pool_->generation(slot_) & 1) != 0; }

 private:
  Engine* engine_ = nullptr;
  EventPool* pool_ = nullptr;
  std::uint32_t slot_ = EventPool::kInvalidSlot;
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_ENGINE_H_
