#include "src/kernel/smp.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace wdmlat::kernel {

Smp::Smp(sim::Engine& engine, sim::Rng& parent_rng, hw::InterruptController& pic,
         const KernelProfile& profile, int pit_line, Dispatcher& boot_dispatcher,
         ReadyQueue& boot_ready, DpcQueue& boot_dpcs, Dispatcher::Config config,
         const std::vector<std::unique_ptr<KInterrupt>>& interrupts)
    : engine_(engine),
      pic_(pic),
      cores_(profile.cores),
      dpc_affinity_(profile.dpc_affinity),
      work_stealing_(profile.work_stealing),
      ipi_cost_(profile.ipi_cost),
      ipi_rng_(parent_rng) {  // placeholder; re-forked below in stream order
  assert(cores_ > 1);
  dispatchers_.push_back(&boot_dispatcher);
  queues_.push_back(&boot_ready);
  dpc_queues_.push_back(&boot_dpcs);
  // Fork order is load-bearing: one dispatcher stream per extra core, then
  // the IPI stream, all strictly after the Kernel's uniprocessor forks.
  for (int core = 1; core < cores_; ++core) {
    CoreBlock block;
    block.ready = std::make_unique<ReadyQueue>();
    block.dpcs = std::make_unique<DpcQueue>();
    block.dispatcher = std::make_unique<Dispatcher>(engine_, parent_rng.Fork(), pic_,
                                                    *block.ready, *block.dpcs, config);
    dispatchers_.push_back(block.dispatcher.get());
    queues_.push_back(block.ready.get());
    dpc_queues_.push_back(block.dpcs.get());
    extra_cores_.push_back(std::move(block));
  }
  ipi_rng_ = parent_rng.Fork();

  for (int core = 0; core < cores_; ++core) {
    dispatchers_[core]->AttachSmp(this, core);
    dpc_locks_.push_back(std::make_unique<SpinLock>("dpc" + std::to_string(core)));
  }

  // Device IRQ routing. The PIT always interrupts the boot core: timekeeping
  // and quantum broadcast originate there, as on a real HAL.
  const KernelProfile::IrqRouting routing = profile.irq_routing;
  pic_.set_irq_router([this, pit_line, routing](int line) {
    if (line == pit_line) {
      return 0;
    }
    if (routing == KernelProfile::IrqRouting::kRoundRobin) {
      const int core = irq_rr_next_;
      irq_rr_next_ = (irq_rr_next_ + 1) % cores_;
      return core;
    }
    return line % cores_;
  });
  // Every core reevaluates on a new pending line; only the routed core's
  // HighestPending sees it (the others' gates are no-ops). This replaces
  // the single-core notifier the last Dispatcher ctor installed.
  pic_.set_pending_notifier([this] { PokeAll(); });

  // Interrupt objects connected before the Smp existed (the clock) are only
  // registered on the boot dispatcher; mirror them onto the new cores.
  for (const auto& interrupt : interrupts) {
    RegisterInterrupt(interrupt.get());
  }
}

void Smp::RegisterInterrupt(KInterrupt* interrupt) {
  for (int core = 1; core < cores_; ++core) {
    dispatchers_[core]->RegisterInterrupt(interrupt);
  }
}

void Smp::SetTraceSink(TraceSink* sink) {
  for (Dispatcher* dispatcher : dispatchers_) {
    dispatcher->set_trace_sink(sink);
  }
}

void Smp::PokeAll() {
  for (Dispatcher* dispatcher : dispatchers_) {
    dispatcher->Poke();
  }
}

void Smp::OnClockTick(sim::Cycles period) {
  for (int core = 1; core < cores_; ++core) {
    dispatchers_[core]->OnClockTick(period);
    dispatchers_[core]->Poke();  // a real clock IPI would trigger reschedule
  }
}

// --- Scheduler ---------------------------------------------------------------

bool Smp::CoreIdle(int core) const {
  return dispatchers_[core]->current_thread() == nullptr && queues_[core]->empty();
}

int Smp::PickCore(const KThread* thread) const {
  const std::uint32_t mask = thread->affinity_;
  const int last = thread->last_core_;
  // Cache warmth: rerun on the last core when it has nothing better to do.
  if (last >= 0 && last < cores_ && ((mask >> last) & 1u) != 0 && CoreIdle(last)) {
    return last;
  }
  int best = 0;
  bool best_valid = false;
  bool best_idle = false;
  std::size_t best_load = 0;
  for (int core = 0; core < cores_; ++core) {
    if (((mask >> core) & 1u) == 0) {
      continue;
    }
    const bool idle = CoreIdle(core);
    const std::size_t load =
        queues_[core]->size() + (dispatchers_[core]->current_thread() != nullptr ? 1 : 0);
    if (!best_valid || (idle && !best_idle) || (idle == best_idle && load < best_load)) {
      best = core;
      best_valid = true;
      best_idle = idle;
      best_load = load;
    }
  }
  return best;  // an empty affinity mask degenerates to the boot core
}

template <typename F>
void Smp::SendIpi(int target, F deliver) {
  const sim::Cycles flight = ipi_cost_.Sample(ipi_rng_);
  ++ipis_sent_;
  ++ipis_in_flight_;
  engine_.ScheduleAfter(flight, [this, target, flight, deliver = std::move(deliver)] {
    ++ipis_delivered_;
    --ipis_in_flight_;
    Dispatcher& dispatcher = *dispatchers_[target];
    dispatcher.EmitSmpEvent(TraceEventType::kIpi, kIpiLabel, flight);
    deliver(dispatcher);
  });
}

void Smp::PlaceThread(KThread* thread, sim::Cycles signaled_at, sim::Cycles lock_wait) {
  const int target = PickCore(thread);
  thread->ready_core_ = target;
  Dispatcher& dispatcher = *dispatchers_[target];
  if (lock_wait > 0) {
    dispatcher_lock_.total_spin_ += lock_wait;
    dispatcher.EmitSmpEvent(TraceEventType::kSpinlockWait, dispatcher_lock_.holder_label_,
                            lock_wait);
  }
  if (target == current_core()) {
    dispatcher.ReadyThread(thread, signaled_at);
    return;
  }
  ++cross_core_wakes_;
  SendIpi(target, [thread, signaled_at](Dispatcher& d) { d.ReadyThread(thread, signaled_at); });
}

void Smp::ReadyThread(KThread* thread, sim::Cycles signaled_at) {
  if (dispatcher_lock_.owner_ != SpinLock::kFree) {
    // The scheduler lock is held (only injected faults hold it for nonzero
    // time): the wake is granted FIFO at release, with the spin accounted.
    ++dispatcher_lock_.contentions_;
    dispatcher_lock_.deferred_.push_back(SpinLock::DeferredOp{
        [this, thread, signaled_at](sim::Cycles waited) {
          PlaceThread(thread, signaled_at, waited);
        },
        engine_.now()});
    return;
  }
  ++dispatcher_lock_.acquisitions_;
  PlaceThread(thread, signaled_at, 0);
}

void Smp::SetAffinity(KThread* thread, std::uint32_t mask) {
  thread->affinity_ = mask;
  if (thread->state() == ThreadState::kReady &&
      ((mask >> thread->ready_core_) & 1u) == 0 &&
      queues_[thread->ready_core_]->Remove(thread)) {
    const int target = PickCore(thread);
    thread->ready_core_ = target;
    queues_[target]->Push(thread);
  }
  PokeAll();
}

void Smp::RequeueReadyThread(KThread* thread) {
  if (thread->state() != ThreadState::kReady) {
    return;
  }
  ReadyQueue& queue = *queues_[thread->ready_core_];
  if (queue.Remove(thread)) {
    queue.Push(thread);
  }
}

bool Smp::StealInto(int thief) {
  if (!work_stealing_) {
    return false;
  }
  int best = -1;
  int best_priority = -1;
  for (int core = 0; core < cores_; ++core) {
    if (core == thief) {
      continue;
    }
    // Only raid cores that are busy running something else; an idle victim
    // is about to pick its queue head up itself.
    if (dispatchers_[core]->current_thread() == nullptr) {
      continue;
    }
    KThread* top = queues_[core]->Peek();
    if (top == nullptr || ((top->affinity_ >> thief) & 1u) == 0) {
      continue;
    }
    if (top->priority() > best_priority) {
      best_priority = top->priority();
      best = core;
    }
  }
  if (best < 0) {
    return false;
  }
  KThread* stolen = queues_[best]->Pop();
  stolen->ready_core_ = thief;
  queues_[thief]->Push(stolen);
  ++steals_;
  return true;
}

// --- DPC routing -------------------------------------------------------------

bool Smp::InsertDpc(KDpc* dpc) {
  const sim::Cycles now = engine_.now();
  if (dpc_affinity_ == KernelProfile::DpcAffinity::kPinned) {
    return dpc_queues_[current_core()]->Insert(dpc, now);
  }
  if (dpc->queued_) {
    return false;
  }
  const int target = dpc_rr_next_;
  dpc_rr_next_ = (dpc_rr_next_ + 1) % cores_;
  if (target == current_core()) {
    return dpc_queues_[target]->Insert(dpc, now);
  }
  // Cross-core insert rides a DPC-target IPI. Mark the DPC queued for the
  // flight (KeInsertQueueDpc double-insert semantics), and keep the original
  // enqueue time so the flight is charged to the measured DPC latency.
  ++dpc_migrations_;
  dpc->queued_ = true;
  SendIpi(target, [this, dpc, now](Dispatcher& d) {
    dpc->queued_ = false;
    dpc_queues_[d.core()]->Insert(dpc, now);
  });
  return true;
}

// --- Spinlocks ---------------------------------------------------------------

bool Smp::TryAcquireDpcLock(Dispatcher* d) {
  SpinLock& lock = *dpc_locks_[d->core()];
  if (lock.owner_ == SpinLock::kFree) {
    lock.owner_ = d->core();
    ++lock.acquisitions_;
    return true;
  }
  for (const SpinLock::Waiter& waiter : lock.waiters_) {
    if (waiter.dispatcher == d) {
      return false;  // already spinning; the release will poke us
    }
  }
  ++lock.contentions_;
  lock.waiters_.push_back(SpinLock::Waiter{d, engine_.now()});
  d->BeginSpinWait();
  return false;
}

void Smp::ReleaseDpcLock(Dispatcher* d) {
  SpinLock& lock = *dpc_locks_[d->core()];
  assert(lock.owner_ == d->core());
  lock.owner_ = SpinLock::kFree;
  // Kernel holds are zero-time and the event loop is sequential, so no
  // waiter can have registered during the hold; nothing to drain.
}

SpinLock* Smp::FindLock(std::string_view name) {
  for (const auto& lock : dpc_locks_) {
    if (lock->name() == name) {
      return lock.get();
    }
  }
  return &dispatcher_lock_;  // "dispatcher" and unknown names
}

bool Smp::InjectLockHold(std::string_view name, sim::Cycles duration, Label label) {
  SpinLock* lock = FindLock(name);
  if (lock->owner_ != SpinLock::kFree) {
    return false;  // already held; the injector counts the skip
  }
  lock->owner_ = SpinLock::kInjectedOwner;
  lock->holder_label_ = label;
  ++lock->acquisitions_;
  engine_.ScheduleAfter(duration, [this, lock] { ReleaseInjected(lock); });
  return true;
}

void Smp::ReleaseInjected(SpinLock* lock) {
  assert(lock->owner_ == SpinLock::kInjectedOwner);
  const sim::Cycles now = engine_.now();
  const Label holder = lock->holder_label_;
  lock->owner_ = SpinLock::kFree;

  // Grant spinning cores FIFO: each records its spin, stops spinning, and is
  // poked to retry (kernel holds are zero-time, so every waiter clears).
  std::vector<SpinLock::Waiter> waiters;
  waiters.swap(lock->waiters_);
  for (const SpinLock::Waiter& waiter : waiters) {
    const sim::Cycles spun = now - waiter.since;
    lock->total_spin_ += spun;
    waiter.dispatcher->EmitSmpEvent(TraceEventType::kSpinlockWait, holder, spun);
    waiter.dispatcher->EndSpinWait();
  }
  // Deferred operations (scheduler-lock work queued during the hold), FIFO.
  std::vector<SpinLock::DeferredOp> deferred;
  deferred.swap(lock->deferred_);
  for (SpinLock::DeferredOp& op : deferred) {
    op.op(now - op.since);
  }
  for (const SpinLock::Waiter& waiter : waiters) {
    waiter.dispatcher->Poke();
  }
}

// --- Invariants --------------------------------------------------------------

void Smp::Audit(std::vector<std::string>* violations) const {
  const auto check_lock = [&](const SpinLock& lock, int home_core) {
    if (lock.owner_ != SpinLock::kFree && lock.owner_ != SpinLock::kInjectedOwner &&
        (lock.owner_ < 0 || lock.owner_ >= cores_)) {
      violations->push_back("spinlock '" + lock.name_ + "' owned by invalid core " +
                            std::to_string(lock.owner_));
    }
    if (lock.owner_ == SpinLock::kFree && !lock.waiters_.empty()) {
      violations->push_back("spinlock '" + lock.name_ + "' is free but has " +
                            std::to_string(lock.waiters_.size()) + " spinning waiter(s)");
    }
    if (lock.owner_ == SpinLock::kFree && !lock.deferred_.empty()) {
      violations->push_back("spinlock '" + lock.name_ + "' is free but has " +
                            std::to_string(lock.deferred_.size()) + " deferred op(s)");
    }
    for (const SpinLock::Waiter& waiter : lock.waiters_) {
      if (home_core >= 0 && waiter.dispatcher->core() != home_core) {
        violations->push_back("spinlock '" + lock.name_ + "' waited on by core " +
                              std::to_string(waiter.dispatcher->core()) +
                              " but belongs to core " + std::to_string(home_core));
      }
      if (waiter.dispatcher->EffectiveIrql() > Irql::kDispatch) {
        violations->push_back("core " + std::to_string(waiter.dispatcher->core()) +
                              " spins on '" + lock.name_ + "' above DISPATCH level");
      }
    }
  };
  check_lock(dispatcher_lock_, -1);
  for (int core = 0; core < cores_; ++core) {
    check_lock(*dpc_locks_[core], core);
  }

  // Runqueue integrity: unique membership, consistent state/core/affinity.
  std::vector<const KThread*> seen;
  for (int core = 0; core < cores_; ++core) {
    queues_[core]->ForEach([&](KThread* thread) {
      if (thread->state() != ThreadState::kReady) {
        violations->push_back("thread '" + thread->name() + "' queued on core " +
                              std::to_string(core) + " but not in kReady state");
      }
      if (thread->ready_core_ != core) {
        violations->push_back("thread '" + thread->name() + "' queued on core " +
                              std::to_string(core) + " but ready_core says " +
                              std::to_string(thread->ready_core_));
      }
      if (((thread->affinity_ >> core) & 1u) == 0) {
        violations->push_back("thread '" + thread->name() + "' queued on core " +
                              std::to_string(core) + " outside its affinity mask");
      }
      if (std::find(seen.begin(), seen.end(), thread) != seen.end()) {
        violations->push_back("thread '" + thread->name() +
                              "' present in more than one runqueue");
      }
      seen.push_back(thread);
    });
  }
  for (int a = 0; a < cores_; ++a) {
    const KThread* current = dispatchers_[a]->current_thread();
    if (current == nullptr) {
      continue;
    }
    if (std::find(seen.begin(), seen.end(), current) != seen.end()) {
      violations->push_back("thread '" + current->name() +
                            "' both current on a core and sitting in a runqueue");
    }
    for (int b = a + 1; b < cores_; ++b) {
      if (dispatchers_[b]->current_thread() == current) {
        violations->push_back("thread '" + current->name() + "' current on cores " +
                              std::to_string(a) + " and " + std::to_string(b));
      }
    }
  }

  if (ipis_sent_ != ipis_delivered_ + ipis_in_flight_) {
    violations->push_back("IPI conservation broken: sent " + std::to_string(ipis_sent_) +
                          " != delivered " + std::to_string(ipis_delivered_) +
                          " + in-flight " + std::to_string(ipis_in_flight_));
  }
}

}  // namespace wdmlat::kernel
