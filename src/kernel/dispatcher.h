// The CPU execution model / dispatcher: the heart of the simulation.
//
// A single CPU executes, at any instant, exactly one of (from most to least
// privileged):
//   1. the top of the frame stack. A frame is an ISR at its device IRQL, an
//      injected kernel section at its own IRQL (a legacy cli region or a
//      raised-IRQL code path from a driver/VMM), or the running DPC at
//      DISPATCH. This is the paper's Section 4.1 hierarchy as one stack:
//      frame IRQLs strictly increase bottom to top, and a DPC starts only on
//      an empty stack, so a DPC frame is always the bottom frame. The frames
//      live by value in a fixed array with one slot per IRQL above PASSIVE.
//   2. the current thread's compute segment (at the segment's IRQL,
//      usually PASSIVE), or the in-progress context switch (at DISPATCH);
//   3. nothing (idle).
//
// Each timed entity is preemptible: when a more privileged entity becomes
// runnable, the active one is paused (its remaining work saved) and resumed
// when the frames above it pop. Pending interrupts are accepted only when
// the effective IRQL drops below their line's IRQL — the time from assertion
// to ISR entry is the paper's interrupt latency. DPCs drain FIFO when the
// frame stack is empty — queueing delay is the paper's DPC latency. Threads dispatch
// when nothing above them is active, the scheduler picks them, and thread
// dispatching is not locked out — on Windows 98, legacy VMM critical sections
// lock dispatching for milliseconds while DPCs still run, which is exactly
// the asymmetry the paper measures (Section 4.2).

#ifndef SRC_KERNEL_DISPATCHER_H_
#define SRC_KERNEL_DISPATCHER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/interrupt_controller.h"
#include "src/kernel/dpc.h"
#include "src/kernel/interrupt.h"
#include "src/kernel/irql.h"
#include "src/kernel/label.h"
#include "src/kernel/ready_queue.h"
#include "src/kernel/thread.h"
#include "src/kernel/trace.h"
#include "src/sim/engine.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/rng.h"

namespace wdmlat::kernel {

class Smp;

class Dispatcher {
 public:
  struct Config {
    sim::DurationDist isr_dispatch_overhead;
    sim::DurationDist context_switch_cost;
    sim::DurationDist dpc_dispatch_cost;
    sim::Cycles quantum = 20 * sim::kCyclesPerMs;
  };

  Dispatcher(sim::Engine& engine, sim::Rng rng, hw::InterruptController& pic,
             ReadyQueue& ready, DpcQueue& dpcs, Config config);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // --- Wiring ---------------------------------------------------------------
  void RegisterInterrupt(KInterrupt* interrupt);

  // SMP attachment (kernel::Smp, cores > 1 only). With no Smp attached the
  // dispatcher runs the exact uniprocessor code path: every SMP hook below
  // is a null check, interrupt acceptance uses the PIC's unrouted scan, and
  // emitted trace events carry core 0.
  void AttachSmp(Smp* smp, int core);
  int core() const { return core_; }

  // Spin-wait window (set by Smp while this core spins for a held spinlock
  // at DISPATCH level): DPC drain and thread dispatch are blocked, but
  // interrupts above DISPATCH are still accepted.
  void BeginSpinWait() { spin_waiting_ = true; }
  void EndSpinWait() { spin_waiting_ = false; }
  bool spin_waiting() const { return spin_waiting_; }

  // Trace emission for Smp (spinlock grants, IPI deliveries on this core).
  void EmitSmpEvent(TraceEventType type, Label label, sim::Cycles duration) {
    Emit(type, label, -1, duration);
  }

  // --- Notifications (also wired to the PIC and DPC queue automatically) ---
  void OnInterruptPending();
  void OnDpcQueued();
  // Re-run dispatch decisions after external state changes (priority change
  // etc.).
  void Poke();
  // Run `fn` with the dispatch decision deferred until it returns, so a
  // batch of state changes (e.g. readying all waiters of a notification
  // event) is folded into a single scheduling decision, as a real kernel
  // does under the dispatcher lock.
  template <typename F>
  void RunGated(F&& fn) {
    Gate gate(this);
    fn();
  }
  // Quantum accounting, called by the clock ISR with the tick period.
  void OnClockTick(sim::Cycles period);

  // --- Introspection ---------------------------------------------------------
  Irql EffectiveIrql() const;
  // Label of the innermost executing activity.
  Label CurrentLabel() const;
  // Label of the activity beneath the top frame: what the latest interrupt
  // interrupted. This is what the cause tool's IDT hook samples. With only a
  // DPC frame (no interrupt above it) this is the DPC itself.
  Label InterruptedLabel() const;
  KThread* current_thread() const { return current_; }
  bool in_thread_continuation() const { return in_continuation_; }
  bool dispatch_locked() const { return lock_until_ > engine_.now(); }
  bool idle() const;

  // IRQL / dispatcher-lock discipline audit for sim::InvariantAuditor, run
  // from engine-idle context (between simulation slices, never from inside a
  // Gate). Validates: no gate is open, frame-stack IRQLs strictly increase
  // bottom to top and stay at or below HIGH, no DPC frame coexists with a
  // spin-wait, and only the innermost activity (top frame, else thread) is
  // marked running. Appends one line per violation.
  void AuditDiscipline(std::vector<std::string>* violations) const;

  // --- Legacy / stress injection ---------------------------------------------
  // Run a kernel code section at `irql` for `length` cycles, preempting
  // whatever is below that level. Returns false (and runs nothing) if the
  // CPU is already at or above `irql`.
  bool InjectSection(Irql irql, sim::Cycles length, Label label);
  // Disable thread dispatching for `duration` (Windows 98 Win16Mutex / VMM
  // critical section model). Overlapping lockouts extend the window. The
  // unlabelled form blames the innermost executing activity; callers that
  // take the lockout from engine-event context (the fault injector) pass an
  // explicit label so the trace blames them rather than whatever they
  // happened to interrupt.
  void LockDispatch(sim::Cycles duration);
  void LockDispatch(sim::Cycles duration, Label label);

  // --- Thread control (called by the Kernel facade) ---------------------------
  // Move a waiting/new thread to the ready state. `signaled_at` is the
  // instant of the event signal that readied it (ground truth for thread
  // latency; pass the current time for plain starts).
  void ReadyThread(KThread* thread, sim::Cycles signaled_at);
  // The following three must be called from within a thread continuation.
  void CurrentThreadSetSegment(sim::Cycles length, Irql irql, Label label,
                               KThread::Continuation done);
  void CurrentThreadMarkWaiting();
  void CurrentThreadExit();
  // Reposition a ready thread after a priority change.
  void RequeueReadyThread(KThread* thread);

  // --- Event tracing -----------------------------------------------------------
  // Install (or remove, with nullptr) a structured trace sink receiving every
  // dispatcher transition. Zero cost when unset.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

  // --- Ground-truth observers (tests, NT interrupt-latency collection) -------
  sim::InplaceFunction<void(int line, sim::Cycles asserted, sim::Cycles isr_entry)> on_isr_entry;
  sim::InplaceFunction<void(const KThread& thread, sim::Cycles signaled, sim::Cycles dispatched)>
      on_thread_dispatch;

  // --- Statistics --------------------------------------------------------------
  std::uint64_t interrupts_accepted() const { return interrupts_accepted_; }
  std::uint64_t spurious_interrupts() const { return spurious_interrupts_; }
  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t dpcs_dispatched() const { return dpcs_dispatched_; }
  std::uint64_t sections_skipped() const { return sections_skipped_; }
  std::uint64_t sections_run() const { return sections_run_; }

 private:
  enum class ThreadPhase : std::uint8_t { kNone, kSwitch, kSegment };

  enum class FrameKind : std::uint8_t { kIsr, kSection, kDpc };

  // One entry of the frame stack, held by value. ISR and DPC frames run in
  // two phases: dispatch overhead, then (`in_body`) the body; a section is
  // all body.
  struct Frame {
    FrameKind kind = FrameKind::kSection;
    Irql irql = Irql::kHigh;
    bool in_body = false;
    bool running = false;
    Label label{};
    int line = -1;                    // ISR
    KInterrupt* interrupt = nullptr;  // ISR
    KDpc* dpc = nullptr;              // DPC
    // ISR: line asserted; DPC: enqueued. The start of its latency.
    sim::Cycles requested_at = 0;
    // Body start: the duration of the frame's end event is measured from it.
    sim::Cycles began_at = 0;
    sim::Cycles remaining = 0;
    sim::Cycles resumed_at = 0;
  };
  // Frame IRQLs strictly increase bottom to top and never fall to PASSIVE,
  // so the stack holds at most one frame per level from APC to HIGH.
  static constexpr std::size_t kMaxFrames = ToLevel(Irql::kHigh);

  // Re-entrancy gate: every public entry point opens one; the outermost gate
  // runs the reevaluation loop on exit, so state changes made inside
  // continuations and handlers are folded into a single consistent pass.
  class Gate {
   public:
    explicit Gate(Dispatcher* d) : d_(d), outer_(!d->busy_) { d_->busy_ = true; }
    ~Gate() {
      if (!outer_) {
        d_->pending_ = true;
        return;
      }
      do {
        d_->pending_ = false;
        d_->ReevaluateOnce();
      } while (d_->pending_);
      d_->busy_ = false;
    }

   private:
    Dispatcher* d_;
    bool outer_;
  };
  friend class Gate;

  void ReevaluateOnce();
  void AcceptInterrupt(int line);
  // Pauses the active entity and pushes a fresh frame above it.
  Frame& PushFrame(FrameKind kind, Irql irql, Label label, sim::Cycles remaining);
  void IsrEntry(Frame* frame);
  void PopFrame(Frame* frame);
  void StartNextDpc();
  void DpcEntry(Frame* frame);
  void MaybeDispatchThread();
  void SwitchTo(KThread* thread);
  void PreemptCurrent(bool to_front);
  void ThreadEntry();
  // Runs `cont` in the current thread's context. A thread woken from an
  // alertable wait first leaves the alertable state and runs its pending
  // user APCs.
  void RunContinuation(KThread::Continuation cont);
  void AfterContinuation();
  void OnThreadElapsed();
  void OnFrameElapsed(Frame* frame);
  // Label of the thread level: the context switch, the segment, or idle.
  Label ThreadLabel() const;

  // Current-core context tracking for Smp (no-ops when unattached).
  void PushCoreContext();
  void PopCoreContext();

  void PauseActive();
  void EnsureActiveRunning();
  void PauseFrame(Frame* frame);
  void ResumeFrame(Frame* frame);
  void PauseThreadTimer();
  void ResumeThreadTimer();
  sim::Cycles& ActiveThreadRemaining();

  sim::Engine& engine_;
  sim::Rng rng_;
  hw::InterruptController& pic_;
  ReadyQueue& ready_;
  DpcQueue& dpcs_;
  Config cfg_;

  std::vector<KInterrupt*> interrupts_;  // indexed by line

  std::array<Frame, kMaxFrames> frames_;
  std::size_t depth_ = 0;
  // frame_timers_[i] completes frames_[i]'s current phase. The timers live
  // beside the frames, not in them, because PushFrame reassigns a Frame.
  std::array<sim::Timer, kMaxFrames> frame_timers_;

  KThread* current_ = nullptr;
  ThreadPhase thread_phase_ = ThreadPhase::kNone;
  sim::Cycles switch_remaining_ = 0;
  Irql thread_irql_ = Irql::kPassive;
  sim::Cycles thread_resumed_at_ = 0;
  bool thread_running_ = false;
  sim::Timer thread_timer_;  // completes the switch or segment in progress
  sim::Cycles quantum_remaining_ = 0;
  bool quantum_expired_ = false;

  sim::Cycles lock_until_ = 0;

  Smp* smp_ = nullptr;
  int core_ = 0;
  bool spin_waiting_ = false;

  TraceSink* trace_sink_ = nullptr;
  void Emit(TraceEventType type, Label label, int arg, sim::Cycles duration) {
    if (trace_sink_ != nullptr) {
      trace_sink_->OnTraceEvent(TraceEvent{type, engine_.now(), label, arg, duration, core_});
    }
  }

  bool busy_ = false;
  bool pending_ = false;
  bool in_continuation_ = false;
  bool cont_blocked_ = false;
  bool cont_exited_ = false;

  std::uint64_t interrupts_accepted_ = 0;
  std::uint64_t spurious_interrupts_ = 0;
  std::uint64_t context_switches_ = 0;
  std::uint64_t dpcs_dispatched_ = 0;
  std::uint64_t sections_skipped_ = 0;
  std::uint64_t sections_run_ = 0;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_DISPATCHER_H_
