// kernel::Smp — the multiprocessor extension of the execution model.
//
// The paper's testbed is a uniprocessor, and every golden artifact in this
// repo pins the uniprocessor event stream byte-for-byte. This subsystem
// therefore hangs *beside* the UP fast path instead of inside it: a Kernel
// built from a profile with cores == 1 never constructs an Smp, never calls
// into one (every hook is a null check), and produces the exact event/RNG
// sequence it did before the SMP work existed. With cores > 1 the Smp owns
// one extra execution context per additional core — its own Dispatcher (so
// per-core IRQL, interrupt stack, preemption state), ReadyQueue and DpcQueue
// — plus the machinery that only exists between cores:
//
//   * simulated spinlocks with owner/contention accounting. Kernel-internal
//     acquisitions (DPC queue locks, the global dispatcher lock) are
//     zero-cost and uncontended by construction — the event loop is
//     sequential, so an acquire/release pair can never be interleaved. Real
//     spin time appears only when the fault injector holds a named lock
//     (spinlock_contention faults): cores that then need the lock stall at
//     DISPATCH (no DPC drain, no thread dispatch; interrupts above DISPATCH
//     are still taken) until the release grants them FIFO, emitting a
//     kSpinlockWait trace event carrying the measured spin time;
//
//   * IPIs as engine events. Cross-core thread wakes and cross-core DPC
//     inserts are delayed by a sample of the profile's ipi_cost and emit a
//     kIpi event on the target core at delivery. Latency ground truth is
//     preserved: the wake keeps its original signaled_at and the DPC its
//     original enqueue time, so IPI flight shows up *in* the measured
//     latency, exactly where a real SMP machine pays it;
//
//   * interrupt routing. An irq_router installed on the PIC sends each
//     device assertion to a core (static line%cores or round-robin per the
//     profile); the PIT always interrupts core 0, which then broadcasts
//     quantum accounting to the other cores as a real clock IPI would;
//
//   * placement and work stealing. ReadyThread picks a target core from the
//     thread's affinity mask — last core if idle (cache warmth), else the
//     least-loaded allowed core, lowest id on ties — and idle cores may
//     steal ready threads whose mask allows them when the profile enables
//     work_stealing. All policies are deterministic functions of simulation
//     state: SMP runs are bit-reproducible.
//
// The "current core" is tracked with an explicit context stack pushed around
// every ISR body, DPC routine and thread continuation; kernel API calls made
// from those contexts (wakes, DPC inserts, section injection) are attributed
// to the core that executed them. Engine-level callers (device models, the
// fault injector) run in no context and default to core 0.

#ifndef SRC_KERNEL_SMP_H_
#define SRC_KERNEL_SMP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/hw/interrupt_controller.h"
#include "src/kernel/dispatcher.h"
#include "src/kernel/dpc.h"
#include "src/kernel/label.h"
#include "src/kernel/profile.h"
#include "src/kernel/ready_queue.h"
#include "src/kernel/thread.h"
#include "src/sim/engine.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/rng.h"

namespace wdmlat::kernel {

// A simulated queued spinlock. Pure accounting object: all semantics live in
// Smp, which is the only writer.
class SpinLock {
 public:
  static constexpr int kFree = -1;
  static constexpr int kInjectedOwner = -2;  // held by a fault-injected activity

  explicit SpinLock(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  bool held() const { return owner_ != kFree; }
  int owner() const { return owner_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contentions() const { return contentions_; }
  sim::Cycles total_spin_cycles() const { return total_spin_; }

 private:
  friend class Smp;

  struct Waiter {
    Dispatcher* dispatcher = nullptr;  // core spinning for the lock
    sim::Cycles since = 0;
  };
  struct DeferredOp {
    sim::InplaceFunction<void(sim::Cycles waited)> op;  // runs at release, FIFO
    sim::Cycles since = 0;
  };

  std::string name_;
  int owner_ = kFree;
  Label holder_label_{};
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contentions_ = 0;
  sim::Cycles total_spin_ = 0;
  std::vector<Waiter> waiters_;
  std::vector<DeferredOp> deferred_;
};

class Smp {
 public:
  // Builds the extra cores 1..cores-1 (core 0's queues/dispatcher belong to
  // the Kernel and are adopted here), attaches every dispatcher, installs the
  // IRQ router and the poke-all-cores pending notifier, and registers the
  // already-connected interrupt objects on the new dispatchers. Forks RNG
  // streams from `parent_rng` in a fixed order (per-core dispatcher, then
  // IPI); callers must make these forks *after* every uniprocessor fork so
  // existing streams keep their seeds.
  Smp(sim::Engine& engine, sim::Rng& parent_rng, hw::InterruptController& pic,
      const KernelProfile& profile, int pit_line, Dispatcher& boot_dispatcher,
      ReadyQueue& boot_ready, DpcQueue& boot_dpcs, Dispatcher::Config config,
      const std::vector<std::unique_ptr<KInterrupt>>& interrupts);

  Smp(const Smp&) = delete;
  Smp& operator=(const Smp&) = delete;

  int core_count() const { return cores_; }
  Dispatcher& dispatcher(int core) { return *dispatchers_[core]; }
  const Dispatcher& dispatcher(int core) const { return *dispatchers_[core]; }
  ReadyQueue& ready_queue(int core) { return *queues_[core]; }
  DpcQueue& dpc_queue(int core) { return *dpc_queues_[core]; }

  // Core whose code is executing right now (top of the context stack pushed
  // around ISR bodies, DPC routines and thread continuations); 0 when the
  // caller is a bare engine event.
  int current_core() const { return context_.empty() ? 0 : context_.back(); }
  void PushContext(int core) { context_.push_back(core); }
  void PopContext() { context_.pop_back(); }

  // --- Scheduler ------------------------------------------------------------
  // Place a woken/new thread on a core per the affinity/idle/least-loaded
  // policy. Same-core wakes are direct; cross-core wakes ride a reschedule
  // IPI. Deferred (with spin accounting) while the dispatcher lock is held
  // by an injected fault.
  void ReadyThread(KThread* thread, sim::Cycles signaled_at);
  // Reposition after a priority change, wherever the thread is queued.
  void RequeueReadyThread(KThread* thread);
  // Change the affinity mask; a ready thread parked on a now-forbidden core
  // migrates immediately (a running thread finishes its dispatch first).
  void SetAffinity(KThread* thread, std::uint32_t mask);
  // Thief-side work stealing: move one ready thread whose affinity allows
  // `thief` from the most loaded victim into the thief's queue. Returns
  // false when disabled or nothing is stealable.
  bool StealInto(int thief);

  // --- DPC routing ----------------------------------------------------------
  // KeInsertQueueDpc: pinned → the interrupting core's queue; migrating →
  // round-robin, cross-core inserts ride a DPC-target IPI (the DPC keeps its
  // original enqueue time, so the flight is charged to DPC latency).
  bool InsertDpc(KDpc* dpc);

  // Register a late-connected interrupt on the non-boot dispatchers.
  void RegisterInterrupt(KInterrupt* interrupt);

  // Clock tick broadcast from core 0's clock ISR: per-core quantum
  // accounting on the other cores (the timer-tick IPI of a real HAL).
  void OnClockTick(sim::Cycles period);

  // --- Spinlocks ------------------------------------------------------------
  // DPC-queue lock for `d`'s core, taken inside the dispatcher's DPC drain.
  // False → the core is now spinning; the release will poke it.
  bool TryAcquireDpcLock(Dispatcher* d);
  void ReleaseDpcLock(Dispatcher* d);
  // Named lock lookup for the fault injector: "dispatcher" (the global
  // scheduler lock) or "dpc<core>"; unknown names resolve to "dispatcher".
  SpinLock* FindLock(std::string_view name);
  // Fault injection: hold `name` for `duration` as an out-of-line activity.
  // Returns false (and holds nothing) if the lock is already held.
  bool InjectLockHold(std::string_view name, sim::Cycles duration, Label label);

  // --- Observability --------------------------------------------------------
  std::uint64_t ipis_sent() const { return ipis_sent_; }
  std::uint64_t ipis_delivered() const { return ipis_delivered_; }
  std::uint64_t ipis_in_flight() const { return ipis_in_flight_; }
  std::uint64_t dpc_migrations() const { return dpc_migrations_; }
  std::uint64_t cross_core_wakes() const { return cross_core_wakes_; }
  std::uint64_t steals() const { return steals_; }
  const SpinLock& dispatcher_lock() const { return dispatcher_lock_; }
  const SpinLock& dpc_lock(int core) const { return *dpc_locks_[core]; }

  // Install `sink` on every core's dispatcher.
  void SetTraceSink(TraceSink* sink);
  // Poke every core's dispatcher (cheap: a no-op gate on quiescent cores).
  void PokeAll();

  // SMP invariants for sim::InvariantAuditor (per-core IRQL discipline is
  // audited separately via each dispatcher's AuditDiscipline):
  //   * spinlocks: owner core in range; waiter/deferred lists empty unless
  //     held; per-core DPC locks only ever waited on by their own core;
  //   * runqueues: every queued thread is kReady, sits on the core its
  //     ready_core says, appears in exactly one queue, and its affinity
  //     mask allows that core; no thread is current on two cores;
  //   * IPI conservation: sent == delivered + in-flight.
  void Audit(std::vector<std::string>* violations) const;

 private:
  int PickCore(const KThread* thread) const;
  bool CoreIdle(int core) const;
  void PlaceThread(KThread* thread, sim::Cycles signaled_at, sim::Cycles lock_wait);
  // `deliver(Dispatcher&)` runs on the target core when the IPI lands.
  template <typename F>
  void SendIpi(int target, F deliver);
  void ReleaseInjected(SpinLock* lock);

  sim::Engine& engine_;
  hw::InterruptController& pic_;
  const int cores_;
  const KernelProfile::DpcAffinity dpc_affinity_;
  const bool work_stealing_;
  sim::DurationDist ipi_cost_;

  // Extra-core state (cores 1..N-1); core 0's objects are the Kernel's.
  struct CoreBlock {
    std::unique_ptr<ReadyQueue> ready;
    std::unique_ptr<DpcQueue> dpcs;
    std::unique_ptr<Dispatcher> dispatcher;
  };
  std::vector<CoreBlock> extra_cores_;

  // Per-core views, index 0..N-1 (0 aliases the Kernel's objects).
  std::vector<Dispatcher*> dispatchers_;
  std::vector<ReadyQueue*> queues_;
  std::vector<DpcQueue*> dpc_queues_;

  sim::Rng ipi_rng_;
  std::vector<int> context_;

  SpinLock dispatcher_lock_{"dispatcher"};
  std::vector<std::unique_ptr<SpinLock>> dpc_locks_;

  int dpc_rr_next_ = 0;
  int irq_rr_next_ = 0;

  std::uint64_t ipis_sent_ = 0;
  std::uint64_t ipis_delivered_ = 0;
  std::uint64_t ipis_in_flight_ = 0;
  std::uint64_t dpc_migrations_ = 0;
  std::uint64_t cross_core_wakes_ = 0;
  std::uint64_t steals_ = 0;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_SMP_H_
