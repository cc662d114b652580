// The Kernel facade: a WDM-flavoured API over the dispatcher, scheduler,
// timers, DPCs and events, configured by a KernelProfile (Windows NT 4.0 or
// Windows 98 personality).
//
// The measurement drivers in src/drivers are written against this API and —
// like the paper's thread-latency driver, which is binary-portable between
// Windows 98 and NT — run unchanged on both profiles.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/interrupt_controller.h"
#include "src/hw/pit.h"
#include "src/kernel/dispatcher.h"
#include "src/kernel/dpc.h"
#include "src/kernel/event.h"
#include "src/kernel/interrupt.h"
#include "src/kernel/io_manager.h"
#include "src/kernel/irp.h"
#include "src/kernel/irql.h"
#include "src/kernel/label.h"
#include "src/kernel/mutex.h"
#include "src/kernel/profile.h"
#include "src/kernel/semaphore.h"
#include "src/kernel/ready_queue.h"
#include "src/kernel/smp.h"
#include "src/kernel/thread.h"
#include "src/kernel/timer.h"
#include "src/sim/engine.h"
#include "src/sim/poisson.h"
#include "src/sim/rng.h"

namespace wdmlat::kernel {

class Kernel {
 public:
  // `pit_line` is the interrupt line the PIT asserts; the kernel connects its
  // clock ISR to it and starts the clock at the profile's default rate.
  Kernel(sim::Engine& engine, sim::Rng rng, hw::InterruptController& pic, hw::Pit& pit,
         int pit_line, KernelProfile profile);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Time ------------------------------------------------------------------
  // RDTSC: the Pentium time stamp counter (paper Section 2.2.5).
  sim::Cycles GetCycleCount() const { return engine_.now(); }

  // Reprogram the PIT ("We reset it to 1 KHz", Section 2.2).
  void SetClockFrequency(double hz) { pit_.SetFrequencyHz(hz); }

  // --- Events ------------------------------------------------------------------
  void KeSetEvent(KEvent* event);
  void KeResetEvent(KEvent* event) { event->signaled_ = false; }

  // --- Semaphores -----------------------------------------------------------------
  // Release the semaphore by `count`, satisfying up to that many waits.
  // Returns false (and does nothing) if the release would exceed the limit.
  bool KeReleaseSemaphore(KSemaphore* semaphore, int count = 1);

  // --- Mutexes ---------------------------------------------------------------------
  // Release one level of ownership; the mutex passes FIFO to the next
  // waiter when the recursion count reaches zero. Must be called from the
  // owning thread's continuation.
  void KeReleaseMutex(KMutex* mutex);

  // --- DPCs --------------------------------------------------------------------
  // Returns false if the DPC is already queued. On SMP profiles the target
  // queue follows the profile's DpcAffinity (pinned to the inserting core,
  // or migrating round-robin with a cross-core IPI).
  bool KeInsertQueueDpc(KDpc* dpc) { return QueueDpc(dpc); }
  // All cores' queues combined (observability sampling).
  std::size_t DpcQueueDepth() const {
    std::size_t depth = dpcs_.size();
    for (int core = 1; core < core_count(); ++core) {
      depth += smp_->dpc_queue(core).size();
    }
    return depth;
  }
  // Ready (not running) threads, all priorities and cores.
  std::size_t ReadyQueueLength() const {
    std::size_t length = ready_.size();
    for (int core = 1; core < core_count(); ++core) {
      length += smp_->ready_queue(core).size();
    }
    return length;
  }

  // --- Timers -------------------------------------------------------------------
  // Single-shot timer due `ms` from now; expiry (at the next clock tick at or
  // after the due time) queues `dpc`.
  void KeSetTimerMs(KTimer* timer, double ms, KDpc* dpc);
  // Periodic timer (NT 4.0 addition; see paper Section 2.2).
  void KeSetTimerPeriodicMs(KTimer* timer, double first_ms, double period_ms, KDpc* dpc);
  bool KeCancelTimer(KTimer* timer) { return timers_.Cancel(timer); }

  // --- Threads -------------------------------------------------------------------
  // Create and start a kernel-mode thread. `entry` runs (in zero simulated
  // time) at the thread's first dispatch; it should schedule work through
  // Compute/Wait/Sleep and eventually ExitThread, or wait forever.
  KThread* PsCreateSystemThread(std::string name, int priority, KThread::Continuation entry);
  void KeSetPriorityThread(KThread* thread, int priority);
  // Restrict the thread to the cores set in `affinity` (bit c = core c).
  // No-op beyond bookkeeping on uniprocessor profiles.
  void KeSetAffinityThread(KThread* thread, std::uint32_t affinity);
  KThread* KeGetCurrentThread() const {
    return smp_ ? smp_->dispatcher(smp_->current_core()).current_thread()
                : dispatcher_->current_thread();
  }

  // The following must be called from within a thread continuation:
  // Burn `us` microseconds of CPU at PASSIVE level, then run `done`.
  void Compute(double us, KThread::Continuation done);
  // Burn CPU at an explicit IRQL with a cause-tool label.
  void ComputeAt(double us, Irql irql, Label label, KThread::Continuation done);
  // Wait for `event`; `resumed` runs at the thread's first instruction after
  // the wait is satisfied (immediately, without blocking, if the event is
  // already signaled).
  void Wait(KEvent* event, KThread::Continuation resumed);
  // Block for at least `ms` (timer resolution = clock tick).
  void Sleep(double ms, KThread::Continuation resumed);
  // Alertable wait (SleepEx/WaitForSingleObjectEx semantics): the wait is
  // satisfied by the event OR interrupted by user APC delivery. Pending APCs
  // run in this thread's context before `resumed`. This is the mechanism
  // behind the paper's ReadFileEx completion path.
  void WaitAlertable(KEvent* event, KThread::Continuation resumed);
  // Queue a user APC (ReadFileEx completion routine) to `thread`; delivered
  // at the thread's next (or current) alertable wait.
  void QueueUserApc(KThread* thread, KThread::Continuation apc);

  // Wait for the semaphore (decrements the count when satisfied).
  void WaitForSemaphore(KSemaphore* semaphore, KThread::Continuation resumed);
  // Acquire the mutex (recursively if already owned by this thread).
  void WaitForMutex(KMutex* mutex, KThread::Continuation resumed);
  void ExitThread() { CurrentDispatcher().CurrentThreadExit(); }

  // --- Interrupts -------------------------------------------------------------------
  // Connect `isr` to a PIC line. The ISR callback runs at the ISR's first
  // instruction and returns the simulated duration of its body.
  KInterrupt* IoConnectInterrupt(int line, Irql irql, Label label,
                                 KInterrupt::ServiceRoutine isr);
  // The kernel's own clock interrupt object (for legacy hooks / cause tool).
  KInterrupt* clock_interrupt() { return clock_interrupt_; }

  // --- I/O ---------------------------------------------------------------------------
  // The I/O manager: driver objects, device stacks, IRP routing.
  IoManager& io() { return io_; }
  // Complete an IRP: completion routines walk back up the device stack,
  // then the issuing application's on_complete runs.
  void IoCompleteRequest(Irp* irp) { io_.IoCompleteRequest(irp); }

  // --- Work items ----------------------------------------------------------------------
  // Queue `us` microseconds of work to the system worker thread (paper
  // Section 4.2: serviced at real-time default priority on NT).
  void ExQueueWorkItem(double us, Label label);
  std::size_t WorkQueueDepth() const { return work_queue_.size(); }

  // --- Legacy / stress injection (vmm98 substrate, workloads) ----------------------------
  // Run a kernel section at raised IRQL (cli region, VMM path, ...).
  bool InjectKernelSection(Irql irql, double us, Label label);
  // Windows 98 thread-dispatch lockout (Win16Mutex / VMM critical section).
  // The labelled overload attributes the lockout to `label` in the trace
  // (for callers outside any labelled activity, e.g. fault::Injector).
  void LockDispatch(double us);
  void LockDispatch(double us, Label label);

  // Start the profile's baseline OS self-noise processes (masked sections,
  // DISPATCH sections, lockouts present even on an unloaded system).
  void StartSelfNoise();

  // --- Access ------------------------------------------------------------------------------
  sim::Engine& engine() { return engine_; }
  sim::Rng& rng() { return rng_; }
  // The boot core's dispatcher (the only one on uniprocessor profiles).
  Dispatcher& dispatcher() { return *dispatcher_; }
  // Any core's dispatcher (core 0 is the boot dispatcher).
  Dispatcher& dispatcher(int core) {
    return core == 0 ? *dispatcher_ : smp_->dispatcher(core);
  }
  int core_count() const { return smp_ ? smp_->core_count() : 1; }
  // Null on uniprocessor profiles.
  Smp* smp() { return smp_.get(); }
  const Smp* smp() const { return smp_.get(); }
  // Install `sink` on every core's dispatcher (tracing must observe all
  // cores or cross-core wakes look like gaps).
  void SetTraceSink(TraceSink* sink) {
    if (smp_) {
      smp_->SetTraceSink(sink);
    } else {
      dispatcher_->set_trace_sink(sink);
    }
  }
  hw::Pit& pit() { return pit_; }
  hw::InterruptController& pic() { return pic_; }
  const KernelProfile& profile() const { return profile_; }
  KThread* worker_thread() const { return worker_thread_; }

 private:
  sim::Cycles ClockIsr();
  void WorkerLoop();
  // The dispatcher of the core whose code is executing (boot core for bare
  // engine events and all uniprocessor profiles).
  Dispatcher& CurrentDispatcher() {
    return smp_ ? smp_->dispatcher(smp_->current_core()) : *dispatcher_;
  }
  // Route a wake through the SMP placement policy when present.
  void ReadyThread(KThread* thread, sim::Cycles signaled_at);
  // Queue a DPC per the SMP DPC-affinity policy when present.
  bool QueueDpc(KDpc* dpc);

  struct WorkItem {
    sim::Cycles duration;
    Label label;
  };

  sim::Engine& engine_;
  sim::Rng rng_;
  hw::InterruptController& pic_;
  hw::Pit& pit_;
  KernelProfile profile_;

  ReadyQueue ready_;
  DpcQueue dpcs_;
  IoManager io_;
  TimerQueue timers_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<Smp> smp_;  // cores > 1 only

  std::vector<std::unique_ptr<KThread>> threads_;
  std::vector<std::unique_ptr<KInterrupt>> interrupts_;
  KInterrupt* clock_interrupt_ = nullptr;

  std::deque<WorkItem> work_queue_;
  KEvent work_event_{EventType::kSynchronization};
  KThread* worker_thread_ = nullptr;

  std::vector<std::unique_ptr<sim::PoissonProcess>> self_noise_;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_KERNEL_H_
