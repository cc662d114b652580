#include "src/kernel/dispatcher.h"

#include <cassert>
#include <utility>

#include "src/kernel/smp.h"

namespace wdmlat::kernel {

Dispatcher::Dispatcher(sim::Engine& engine, sim::Rng rng, hw::InterruptController& pic,
                       ReadyQueue& ready, DpcQueue& dpcs, Config config)
    : engine_(engine),
      rng_(rng),
      pic_(pic),
      ready_(ready),
      dpcs_(dpcs),
      cfg_(config),
      thread_timer_(engine, [this] { OnThreadElapsed(); }) {
  for (std::size_t i = 0; i < kMaxFrames; ++i) {
    frame_timers_[i] = sim::Timer(engine, [this, frame = &frames_[i]] { OnFrameElapsed(frame); });
  }
  pic_.set_pending_notifier([this] { OnInterruptPending(); });
  dpcs_.set_notifier([this] { OnDpcQueued(); });
}

void Dispatcher::RegisterInterrupt(KInterrupt* interrupt) {
  assert(interrupt != nullptr);
  const int line = interrupt->line();
  if (line >= static_cast<int>(interrupts_.size())) {
    interrupts_.resize(line + 1, nullptr);
  }
  assert(interrupts_[line] == nullptr && "line already connected");
  interrupts_[line] = interrupt;
  Gate gate(this);  // the line may already be pending
}

void Dispatcher::AttachSmp(Smp* smp, int core) {
  smp_ = smp;
  core_ = core;
}

void Dispatcher::PushCoreContext() {
  if (smp_ != nullptr) {
    smp_->PushContext(core_);
  }
}

void Dispatcher::PopCoreContext() {
  if (smp_ != nullptr) {
    smp_->PopContext();
  }
}

void Dispatcher::OnInterruptPending() { Gate gate(this); }

void Dispatcher::OnDpcQueued() { Gate gate(this); }

void Dispatcher::Poke() { Gate gate(this); }

void Dispatcher::OnClockTick(sim::Cycles period) {
  // Called from inside the clock ISR handler; a gate is already open.
  if (current_ != nullptr && thread_phase_ == ThreadPhase::kSegment) {
    if (quantum_remaining_ <= period) {
      quantum_expired_ = true;
      quantum_remaining_ = cfg_.quantum;
    } else {
      quantum_remaining_ -= period;
    }
  }
}

Irql Dispatcher::EffectiveIrql() const {
  if (depth_ > 0) {
    return frames_[depth_ - 1].irql;
  }
  if (current_ != nullptr && thread_phase_ != ThreadPhase::kNone) {
    return thread_irql_;
  }
  return Irql::kPassive;
}

Label Dispatcher::ThreadLabel() const {
  if (current_ != nullptr) {
    if (thread_phase_ == ThreadPhase::kSwitch) {
      return kDispatcherLabel;
    }
    if (current_->has_segment_) {
      return current_->seg_label_;
    }
  }
  return kIdleLabel;
}

Label Dispatcher::CurrentLabel() const {
  return depth_ > 0 ? frames_[depth_ - 1].label : ThreadLabel();
}

Label Dispatcher::InterruptedLabel() const {
  if (depth_ >= 2) {
    return frames_[depth_ - 2].label;
  }
  // A lone ISR or section interrupted the thread level. A lone DPC has no
  // interrupt above it, so, as with an empty stack, the answer is the
  // innermost activity: the DPC itself.
  if (depth_ == 1 && frames_[0].kind == FrameKind::kDpc) {
    return frames_[0].label;
  }
  return ThreadLabel();
}

bool Dispatcher::idle() const { return depth_ == 0 && current_ == nullptr; }

void Dispatcher::AuditDiscipline(std::vector<std::string>* violations) const {
  if (busy_) {
    violations->push_back("gate is open (busy) outside any dispatcher entry point");
  }
  if (in_continuation_) {
    violations->push_back("thread continuation marked in-progress at a quiescent point");
  }
  for (std::size_t i = 0; i < depth_; ++i) {
    const Frame& frame = frames_[i];
    if (i > 0 && frame.irql <= frames_[i - 1].irql) {
      violations->push_back("frame stack IRQLs not strictly increasing: frame " +
                            std::to_string(i) + " at " + IrqlName(frame.irql) + " (" +
                            std::to_string(ToLevel(frame.irql)) + ") atop frame " +
                            std::to_string(i - 1) + " at " +
                            std::to_string(ToLevel(frames_[i - 1].irql)));
    }
    if (frame.irql > Irql::kHigh) {
      violations->push_back("frame " + std::to_string(i) + " carries IRQL " +
                            std::to_string(ToLevel(frame.irql)) + " above HIGH");
    }
    if (frame.kind == FrameKind::kDpc && spin_waiting_) {
      violations->push_back("core spinning for its DPC queue lock while a DPC frame is active");
    }
    if (frame.running && i + 1 != depth_) {
      violations->push_back("paused frame " + std::to_string(i) +
                            " below the top of the frame stack is marked running");
    }
  }
  if (depth_ > 0 && thread_running_) {
    violations->push_back("thread timer running beneath an active frame");
  }
}

bool Dispatcher::InjectSection(Irql irql, sim::Cycles length, Label label) {
  Gate gate(this);
  if (EffectiveIrql() >= irql) {
    ++sections_skipped_;
    return false;
  }
  PushFrame(FrameKind::kSection, irql, label, length).began_at = engine_.now();
  ++sections_run_;
  Emit(TraceEventType::kSectionStart, label, -1, length);
  return true;
}

void Dispatcher::LockDispatch(sim::Cycles duration) {
  // Label the lockout with the innermost executing activity: callers (VMM
  // sound path, stress injectors) take the lockout from inside their labelled
  // section, so the trace attributes the lockout to the code path that
  // actually requested it rather than to the dispatcher.
  LockDispatch(duration, CurrentLabel());
}

void Dispatcher::LockDispatch(sim::Cycles duration, Label label) {
  Gate gate(this);
  Emit(TraceEventType::kDispatchLockout, label, -1, duration);
  const sim::Cycles until = engine_.now() + duration;
  if (until > lock_until_) {
    lock_until_ = until;
    // Wake the dispatcher when the lockout expires so readied threads run.
    engine_.ScheduleAt(until, [this] { Poke(); });
  }
}

void Dispatcher::ReadyThread(KThread* thread, sim::Cycles signaled_at) {
  Gate gate(this);
  assert(thread->state_ == ThreadState::kWaiting ||
         thread->state_ == ThreadState::kInitialized);
  thread->state_ = ThreadState::kReady;
  thread->readied_at_ = engine_.now();
  thread->wait_signaled_at_ = signaled_at;
  ready_.Push(thread);
  Emit(TraceEventType::kThreadReady, kDispatcherLabel, thread->priority(), 0);
}

void Dispatcher::CurrentThreadSetSegment(sim::Cycles length, Irql irql, Label label,
                                         KThread::Continuation done) {
  assert(in_continuation_ && current_ != nullptr);
  assert(!current_->has_segment_ && "one compute segment at a time");
  current_->has_segment_ = true;
  current_->seg_remaining_ = length;
  current_->seg_irql_ = irql;
  current_->seg_label_ = label;
  current_->seg_done_ = std::move(done);
}

void Dispatcher::CurrentThreadMarkWaiting() {
  assert(in_continuation_ && current_ != nullptr);
  cont_blocked_ = true;
}

void Dispatcher::CurrentThreadExit() {
  assert(in_continuation_ && current_ != nullptr);
  cont_exited_ = true;
}

void Dispatcher::RequeueReadyThread(KThread* thread) {
  Gate gate(this);
  if (thread->state_ == ThreadState::kReady) {
    const bool removed = ready_.Remove(thread);
    assert(removed);
    (void)removed;
    ready_.Push(thread);
  }
}

// --- Core reevaluation -------------------------------------------------------

void Dispatcher::ReevaluateOnce() {
  // 1. Accept pending interrupts, most privileged first. SMP cores only see
  // the lines the interrupt controller routed to them.
  while (true) {
    const int line = smp_ == nullptr ? pic_.HighestPending(EffectiveIrql())
                                     : pic_.HighestPendingFor(EffectiveIrql(), core_);
    if (line == hw::InterruptController::kNoLine) {
      break;
    }
    AcceptInterrupt(line);
  }
  // 2. Drain the DPC queue when the frame stack is empty and the thread level
  // is below DISPATCH. On SMP the dequeue takes this core's DPC queue lock;
  // if a fault-injected hold has it, the core spins (blocking this step and
  // thread dispatch) until the release pokes it.
  const bool thread_allows_dpc =
      current_ == nullptr || thread_phase_ == ThreadPhase::kNone || thread_irql_ < Irql::kDispatch;
  if (depth_ == 0 && !dpcs_.empty() && thread_allows_dpc && !spin_waiting_) {
    if (smp_ == nullptr) {
      StartNextDpc();
    } else if (smp_->TryAcquireDpcLock(this)) {
      StartNextDpc();
      smp_->ReleaseDpcLock(this);
    }
  }
  // 3. Thread dispatch decisions.
  if (depth_ == 0 && !spin_waiting_) {
    MaybeDispatchThread();
  }
  // 4. Make sure whatever is now on top is actually executing.
  EnsureActiveRunning();
}

void Dispatcher::AcceptInterrupt(int line) {
  const sim::Cycles asserted = pic_.Acknowledge(line);
  KInterrupt* ki = line < static_cast<int>(interrupts_.size()) ? interrupts_[line] : nullptr;
  if (ki == nullptr) {
    ++spurious_interrupts_;
    return;
  }
  Frame& frame = PushFrame(FrameKind::kIsr, ki->irql(), kTrapDispatchLabel,
                           cfg_.isr_dispatch_overhead.Sample(rng_));
  frame.line = line;
  frame.interrupt = ki;
  frame.requested_at = asserted;
  ++interrupts_accepted_;
  Emit(TraceEventType::kIsrAccept, kTrapDispatchLabel, line, 0);
}

void Dispatcher::IsrEntry(Frame* frame) {
  KInterrupt* ki = frame->interrupt;
  frame->label = ki->label();
  frame->began_at = engine_.now();
  ++ki->fire_count_;
  Emit(TraceEventType::kIsrEnter, frame->label, frame->line, 0);
  if (on_isr_entry) {
    on_isr_entry(frame->line, frame->requested_at, engine_.now());
  }
  PushCoreContext();
  for (auto& hook : ki->pre_hooks_) {
    hook();
  }
  const sim::Cycles body = ki->isr_ ? ki->isr_() : 0;
  PopCoreContext();
  frame->remaining = body;
}

Dispatcher::Frame& Dispatcher::PushFrame(FrameKind kind, Irql irql, Label label,
                                         sim::Cycles remaining) {
  PauseActive();
  assert(depth_ < frames_.size() && "frame IRQLs strictly increase, one slot per level");
  assert(!frame_timers_[depth_].armed() && "a popped frame's completion has fired");
  Frame& frame = frames_[depth_++];
  frame = Frame{};
  frame.kind = kind;
  frame.irql = irql;
  frame.label = label;
  frame.remaining = remaining;
  return frame;
}

void Dispatcher::PopFrame(Frame* frame) {
  assert(depth_ > 0 && &frames_[depth_ - 1] == frame);
  const sim::Cycles duration = engine_.now() - frame->began_at;
  --depth_;
  switch (frame->kind) {
    case FrameKind::kIsr:
      Emit(TraceEventType::kIsrExit, frame->label, frame->line, duration);
      return;
    case FrameKind::kSection:
      Emit(TraceEventType::kSectionEnd, frame->label, -1, duration);
      return;
    case FrameKind::kDpc: {
      // Popped before the completion runs: it may queue work that pushes a
      // frame into this very slot.
      KDpc* dpc = frame->dpc;
      Emit(TraceEventType::kDpcEnd, dpc->label(), -1, duration);
      if (dpc->on_complete_) {
        PushCoreContext();
        dpc->on_complete_();
        PopCoreContext();
      }
      return;
    }
  }
}

void Dispatcher::StartNextDpc() {
  assert(depth_ == 0 && "a DPC frame is always the bottom frame");
  KDpc* dpc = dpcs_.Pop();
  assert(dpc != nullptr);
  // kDispatcherLabel covers the dequeue overhead phase.
  Frame& frame = PushFrame(FrameKind::kDpc, Irql::kDispatch, kDispatcherLabel,
                           cfg_.dpc_dispatch_cost.Sample(rng_));
  frame.dpc = dpc;
  frame.requested_at = dpc->enqueue_time();
  ++dpcs_dispatched_;
  Emit(TraceEventType::kDpcFetch, kDispatcherLabel, -1, 0);
}

void Dispatcher::DpcEntry(Frame* frame) {
  KDpc* dpc = frame->dpc;
  frame->label = dpc->label();
  ++dpc->dispatch_count_;
  Emit(TraceEventType::kDpcStart, dpc->label(), -1, engine_.now() - frame->requested_at);
  if (dpc->routine_) {
    PushCoreContext();
    dpc->routine_();
    PopCoreContext();
  }
  frame->remaining = dpc->body_.Sample(rng_);
  frame->began_at = engine_.now();
}

void Dispatcher::MaybeDispatchThread() {
  const bool locked = lock_until_ > engine_.now();
  if (current_ == nullptr) {
    if (locked) {
      return;
    }
    // An idle SMP core may steal a ready thread from a loaded sibling.
    if (ready_.empty() && (smp_ == nullptr || !smp_->StealInto(core_))) {
      return;
    }
    SwitchTo(ready_.Pop());
    return;
  }
  if (thread_phase_ == ThreadPhase::kSwitch) {
    return;  // let the in-progress dispatch finish
  }
  if (thread_irql_ >= Irql::kDispatch) {
    return;  // a raised-IRQL segment cannot be switched away from
  }
  if (locked) {
    return;
  }
  const int top = ready_.top_priority();
  if (top < 0) {
    quantum_expired_ = false;
    return;
  }
  if (top > current_->priority_) {
    PreemptCurrent(/*to_front=*/true);
    SwitchTo(ready_.Pop());
  } else if (quantum_expired_ && top == current_->priority_) {
    quantum_expired_ = false;
    PreemptCurrent(/*to_front=*/false);
    SwitchTo(ready_.Pop());
  } else {
    quantum_expired_ = false;
  }
}

void Dispatcher::SwitchTo(KThread* thread) {
  assert(current_ == nullptr);
  assert(thread->state_ == ThreadState::kReady);
  current_ = thread;
  thread->state_ = ThreadState::kRunning;
  thread->last_core_ = core_;
  thread_phase_ = ThreadPhase::kSwitch;
  thread_irql_ = Irql::kDispatch;
  switch_remaining_ = cfg_.context_switch_cost.Sample(rng_);
  thread_running_ = false;
  quantum_remaining_ = cfg_.quantum;
  quantum_expired_ = false;
  ++context_switches_;
  Emit(TraceEventType::kContextSwitch, kDispatcherLabel, thread->priority(), 0);
}

void Dispatcher::PreemptCurrent(bool to_front) {
  assert(current_ != nullptr && thread_phase_ == ThreadPhase::kSegment);
  PauseThreadTimer();
  KThread* thread = current_;
  thread->state_ = ThreadState::kReady;
  thread->readied_at_ = engine_.now();
  ready_.Push(thread, to_front);
  current_ = nullptr;
  thread_phase_ = ThreadPhase::kNone;
  thread_irql_ = Irql::kPassive;
  Emit(TraceEventType::kThreadStop, kDispatcherLabel, thread->priority(), 0);
}

void Dispatcher::ThreadEntry() {
  KThread* thread = current_;
  ++thread->dispatch_count_;
  if (thread->has_segment_) {
    // Resuming a compute segment that was preempted earlier.
    thread_phase_ = ThreadPhase::kSegment;
    thread_irql_ = thread->seg_irql_;
    Emit(TraceEventType::kThreadRun, thread->seg_label_, thread->priority(), 0);
    return;
  }
  thread_phase_ = ThreadPhase::kSegment;
  thread_irql_ = Irql::kPassive;
  Emit(TraceEventType::kThreadRun, kDispatcherLabel, thread->priority(),
       engine_.now() - thread->wait_signaled_at_);
  if (on_thread_dispatch) {
    on_thread_dispatch(*thread, thread->wait_signaled_at_, engine_.now());
  }
  KThread::Continuation cont = std::move(thread->next_);
  thread->next_ = nullptr;
  RunContinuation(std::move(cont));
}

void Dispatcher::RunContinuation(KThread::Continuation cont) {
  assert(!in_continuation_);
  in_continuation_ = true;
  cont_blocked_ = false;
  cont_exited_ = false;
  KThread* thread = current_;
  if (thread->alertable_ || cont) {
    PushCoreContext();
    if (thread->alertable_) {
      thread->alertable_ = false;
      thread->waiting_on_ = nullptr;
      thread->DeliverUserApcs();
    }
    if (cont) {
      cont();
    }
    PopCoreContext();
  }
  in_continuation_ = false;
  AfterContinuation();
}

void Dispatcher::AfterContinuation() {
  KThread* thread = current_;
  assert(thread != nullptr);
  if (cont_exited_) {
    thread->state_ = ThreadState::kTerminated;
    current_ = nullptr;
    thread_phase_ = ThreadPhase::kNone;
    thread_irql_ = Irql::kPassive;
    Emit(TraceEventType::kThreadStop, kDispatcherLabel, thread->priority(), 0);
    return;
  }
  if (cont_blocked_) {
    thread->state_ = ThreadState::kWaiting;
    current_ = nullptr;
    thread_phase_ = ThreadPhase::kNone;
    thread_irql_ = Irql::kPassive;
    Emit(TraceEventType::kThreadStop, kDispatcherLabel, thread->priority(), 0);
    return;
  }
  if (thread->has_segment_) {
    thread_phase_ = ThreadPhase::kSegment;
    thread_irql_ = thread->seg_irql_;
    return;
  }
  // The continuation returned without computing, waiting, or exiting:
  // nothing left to run — treat it as thread termination.
  thread->state_ = ThreadState::kTerminated;
  current_ = nullptr;
  thread_phase_ = ThreadPhase::kNone;
  thread_irql_ = Irql::kPassive;
  Emit(TraceEventType::kThreadStop, kDispatcherLabel, thread->priority(), 0);
}

void Dispatcher::OnThreadElapsed() {
  Gate gate(this);
  thread_running_ = false;
  assert(current_ != nullptr);
  if (thread_phase_ == ThreadPhase::kSwitch) {
    ThreadEntry();
    return;
  }
  assert(thread_phase_ == ThreadPhase::kSegment && current_->has_segment_);
  current_->has_segment_ = false;
  thread_irql_ = Irql::kPassive;
  KThread::Continuation done = std::move(current_->seg_done_);
  current_->seg_done_ = nullptr;
  RunContinuation(std::move(done));
}

void Dispatcher::OnFrameElapsed(Frame* frame) {
  Gate gate(this);
  frame->running = false;
  // ISR and DPC frames elapse twice: first their dispatch overhead, then
  // their body. Sections are all body.
  if (frame->kind == FrameKind::kSection || frame->in_body) {
    PopFrame(frame);
    return;
  }
  frame->in_body = true;
  if (frame->kind == FrameKind::kIsr) {
    IsrEntry(frame);
  } else {
    DpcEntry(frame);
  }
}

// --- Pause / resume machinery -------------------------------------------------

void Dispatcher::PauseActive() {
  if (depth_ > 0) {
    PauseFrame(&frames_[depth_ - 1]);
    return;
  }
  PauseThreadTimer();
}

void Dispatcher::EnsureActiveRunning() {
  if (depth_ > 0) {
    ResumeFrame(&frames_[depth_ - 1]);
    return;
  }
  if (current_ != nullptr && thread_phase_ != ThreadPhase::kNone) {
    ResumeThreadTimer();
  }
}

void Dispatcher::PauseFrame(Frame* frame) {
  if (!frame->running) {
    return;
  }
  const sim::Cycles elapsed = engine_.now() - frame->resumed_at;
  frame->remaining = frame->remaining > elapsed ? frame->remaining - elapsed : 0;
  frame_timers_[frame - frames_.data()].Disarm();
  frame->running = false;
}

void Dispatcher::ResumeFrame(Frame* frame) {
  if (frame->running) {
    return;
  }
  frame->resumed_at = engine_.now();
  frame->running = true;
  frame_timers_[frame - frames_.data()].ArmAfter(frame->remaining);
}

sim::Cycles& Dispatcher::ActiveThreadRemaining() {
  return thread_phase_ == ThreadPhase::kSwitch ? switch_remaining_ : current_->seg_remaining_;
}

void Dispatcher::PauseThreadTimer() {
  if (!thread_running_) {
    return;
  }
  assert(current_ != nullptr);
  const sim::Cycles elapsed = engine_.now() - thread_resumed_at_;
  sim::Cycles& remaining = ActiveThreadRemaining();
  remaining = remaining > elapsed ? remaining - elapsed : 0;
  thread_timer_.Disarm();
  thread_running_ = false;
}

void Dispatcher::ResumeThreadTimer() {
  if (thread_running_) {
    return;
  }
  assert(current_ != nullptr && thread_phase_ != ThreadPhase::kNone);
  // A segment phase with no segment means a continuation is mid-flight on
  // this very timestamp; it will resolve before the gate closes.
  if (thread_phase_ == ThreadPhase::kSegment && !current_->has_segment_) {
    return;
  }
  thread_resumed_at_ = engine_.now();
  thread_running_ = true;
  thread_timer_.ArmAfter(ActiveThreadRemaining());
}

}  // namespace wdmlat::kernel
