#include "src/fault/injector.h"

#include <utility>

#include "src/sim/time.h"

namespace wdmlat::fault {

namespace {

// Seed derivation: a SplitMix64 hash chain over (domain tag, plan seed, cell
// seed, spec index, stream id). Mirrors the matrix CellSeed scheme — derived
// streams depend only on declared coordinates, never on draw order.
std::uint64_t DeriveSeed(std::uint64_t plan_seed, std::uint64_t cell_seed,
                         std::uint64_t index, std::uint64_t stream) {
  std::uint64_t state = 0xFA171F00Dull;  // fault-injector domain tag
  state ^= plan_seed;
  (void)sim::SplitMix64(state);
  state ^= cell_seed;
  (void)sim::SplitMix64(state);
  state ^= index;
  (void)sim::SplitMix64(state);
  state ^= stream;
  return sim::SplitMix64(state);
}

constexpr std::uint64_t kTriggerStream = 1;
constexpr std::uint64_t kPayloadStream = 2;

// Inversion rig priorities: the holder sits below every workload thread, the
// victim above the paper's default real-time priority, so a mid-priority
// thread can starve the holder while the victim waits — the classic shape.
constexpr int kHolderPriority = 4;
constexpr int kVictimPriority = kernel::kDefaultRealTimePriority + 4;

}  // namespace

Injector::Injector(InjectorTargets targets, FaultPlan plan, std::uint64_t cell_seed)
    : targets_(targets), plan_(std::move(plan)), cell_seed_(cell_seed) {}

Injector::~Injector() { Stop(); }

void Injector::Start() {
  if (started_ || plan_.empty() || targets_.kernel == nullptr) {
    return;
  }
  started_ = true;
  specs_.reserve(plan_.specs.size());
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    auto state = std::make_unique<SpecState>();
    state->spec = &plan_.specs[i];
    state->index = i;
    state->trigger_rng = sim::Rng(DeriveSeed(plan_.seed, cell_seed_, i, kTriggerStream));
    state->payload_rng = sim::Rng(DeriveSeed(plan_.seed, cell_seed_, i, kPayloadStream));
    state->function = state->spec->LabelFunction();
    specs_.push_back(std::move(state));
  }
  for (auto& state : specs_) {
    SetUp(*state);
    Arm(*state);
  }
}

void Injector::Stop() {
  stopped_ = true;
  for (auto& state : specs_) {
    state->next.Disarm();
    if (state->poisson) {
      state->poisson->Stop();
    }
    state->jitter_ticks_left = 0;
  }
  if (pit_hook_installed_) {
    // The hook captures `this` and the injector is destroyed before the
    // simulated machine; leaving it installed would dangle.
    targets_.kernel->pit().set_tick_delay_hook(nullptr);
    pit_hook_installed_ = false;
  }
}

kernel::Label Injector::LabelFor(const SpecState& state) const {
  // state.function is stable for the injector's lifetime, which spans the
  // run and its report generation — the Label contract (static storage) is
  // met in practice.
  return kernel::Label{kFaultModule, state.function.c_str()};
}

void Injector::SetUp(SpecState& state) {
  kernel::Kernel& k = *targets_.kernel;
  switch (state.spec->kind) {
    case FaultKind::kIrqStorm: {
      state.irq_line = k.pic().ConnectLine("FAULT" + std::to_string(state.index),
                                           kernel::Irql::kDevice);
      SpecState* sp = &state;
      k.IoConnectInterrupt(state.irq_line, kernel::Irql::kDevice, LabelFor(state),
                           [sp] { return sp->spec->duration_us.Sample(sp->payload_rng); });
      break;
    }
    case FaultKind::kDpcStorm: {
      state.dpc_pool.reserve(static_cast<std::size_t>(state.spec->burst));
      for (int i = 0; i < state.spec->burst; ++i) {
        state.dpc_pool.push_back(std::make_unique<kernel::KDpc>(
            [] {}, state.spec->duration_us, LabelFor(state)));
      }
      break;
    }
    case FaultKind::kPriorityInvert:
      EnsureInversionRig();
      break;
    case FaultKind::kTimerJitter: {
      if (pit_hook_installed_) {
        break;
      }
      pit_hook_installed_ = true;
      // One hook sums the drift owed by every jitter spec. Specs with no
      // pending activation draw nothing and add nothing, so a hook whose
      // specs never fire returns 0 on every tick and the PIT schedule stays
      // bit-identical to an unhooked run.
      k.pit().set_tick_delay_hook([this]() -> sim::Cycles {
        sim::Cycles extra = 0;
        for (auto& jitter : specs_) {
          if (jitter->spec->kind == FaultKind::kTimerJitter &&
              jitter->jitter_ticks_left > 0) {
            --jitter->jitter_ticks_left;
            extra += jitter->spec->duration_us.Sample(jitter->payload_rng);
          }
        }
        return extra;
      });
      break;
    }
    default:
      break;
  }
}

void Injector::Arm(SpecState& state) {
  sim::Engine& engine = targets_.kernel->engine();
  const FaultSpec& spec = *state.spec;
  SpecState* sp = &state;
  switch (spec.trigger) {
    case TriggerKind::kOneShot:
    case TriggerKind::kPeriodic:
      state.next = sim::Timer(engine, [this, sp] { Fire(*sp); });
      state.next.ArmAfter(sim::MsToCycles(spec.at_ms));
      break;
    case TriggerKind::kPoisson: {
      state.poisson = std::make_unique<sim::PoissonProcess>(
          engine, state.trigger_rng.Fork(), spec.rate_per_s, [this, sp] { Fire(*sp); });
      if (spec.at_ms > 0.0) {
        state.next = sim::Timer(engine, [sp] { sp->poisson->Start(); });
        state.next.ArmAfter(sim::MsToCycles(spec.at_ms));
      } else {
        state.poisson->Start();
      }
      break;
    }
  }
}

void Injector::Fire(SpecState& state) {
  const FaultSpec& spec = *state.spec;
  const std::uint64_t cap =
      spec.trigger == TriggerKind::kOneShot ? 1 : spec.max_activations;
  if (cap != 0 && state.fired >= cap) {
    if (state.poisson) {
      state.poisson->Stop();
    }
    return;
  }
  ++state.fired;
  Activate(state);
  if (spec.trigger == TriggerKind::kPeriodic && (cap == 0 || state.fired < cap)) {
    state.next.ArmAfter(sim::MsToCycles(spec.period_ms));
  } else if (spec.trigger == TriggerKind::kPoisson && cap != 0 && state.fired >= cap &&
             state.poisson) {
    state.poisson->Stop();
  }
}

void Injector::Activate(SpecState& state) {
  kernel::Kernel& k = *targets_.kernel;
  sim::Engine& engine = k.engine();
  const FaultSpec& spec = *state.spec;
  FaultActivation record;
  record.kind = spec.kind;
  record.at = engine.now();
  record.events = spec.burst;

  switch (spec.kind) {
    case FaultKind::kIrqStorm:
    case FaultKind::kDpcStorm:
    case FaultKind::kDiskSeekStorm:
    case FaultKind::kMemoryPressure: {
      if (spec.kind == FaultKind::kDiskSeekStorm && targets_.disk == nullptr) {
        ++skipped_no_disk_;
        return;
      }
      // The whole burst is scheduled up front; events still pending at
      // Stop() return without acting.
      SpecState* sp = &state;
      for (int i = 0; i < spec.burst; ++i) {
        const sim::Cycles delay = sim::UsToCycles(spec.spacing_us * i);
        auto run = [this, sp] {
          if (!stopped_) {
            RunBurst(*sp);
          }
        };
        if (delay == 0) {
          run();
        } else {
          engine.ScheduleAfter(delay, run);
        }
      }
      break;
    }
    case FaultKind::kIsrOverrun: {
      const double us = spec.duration_us.SampleUs(state.payload_rng);
      record.duration = sim::UsToCycles(us);
      k.InjectKernelSection(kernel::Irql::kDevice, us, LabelFor(state));
      break;
    }
    case FaultKind::kMaskedWindow: {
      const double us = spec.duration_us.SampleUs(state.payload_rng);
      record.duration = sim::UsToCycles(us);
      k.InjectKernelSection(kernel::Irql::kHigh, us, LabelFor(state));
      break;
    }
    case FaultKind::kLockoutHold: {
      const double us = spec.duration_us.SampleUs(state.payload_rng);
      record.duration = sim::UsToCycles(us);
      k.LockDispatch(us, LabelFor(state));
      break;
    }
    case FaultKind::kPriorityInvert: {
      const double us = spec.duration_us.SampleUs(state.payload_rng);
      record.duration = sim::UsToCycles(us);
      rig_->hold_us.push_back(us);
      k.KeReleaseSemaphore(&rig_->hold_sem);
      // Release the victim after the holder has had time to take the mutex;
      // same-instant release would let the higher-priority victim win the
      // mutex and dissolve the inversion.
      const double victim_delay_us = spec.spacing_us > 0.0 ? spec.spacing_us : 50.0;
      engine.ScheduleAfter(sim::UsToCycles(victim_delay_us), [this] {
        if (!stopped_) {
          targets_.kernel->KeReleaseSemaphore(&rig_->victim_sem);
        }
      });
      break;
    }
    case FaultKind::kTimerJitter:
      // Owe the next `burst` ticks a drift sample each; the PIT hook draws
      // them lazily (per tick), so `duration` here stays 0 like irq_storm.
      state.jitter_ticks_left += static_cast<std::uint64_t>(spec.burst);
      break;
    case FaultKind::kSpinlockContention: {
      const double us = spec.duration_us.SampleUs(state.payload_rng);
      record.duration = sim::UsToCycles(us);
      if (kernel::Smp* smp = k.smp()) {
        // Already-held lock: the hold is skipped (one holder at a time),
        // mirroring InjectKernelSection's overlap behaviour.
        smp->InjectLockHold(spec.lock, sim::UsToCycles(us), LabelFor(state));
      } else {
        // UP degradation: one core holding a DISPATCH spinlock looks exactly
        // like a DISPATCH-level kernel section.
        k.InjectKernelSection(kernel::Irql::kDispatch, us, LabelFor(state));
      }
      break;
    }
  }
  log_.push_back(record);
}

void Injector::RunBurst(SpecState& state) {
  kernel::Kernel& k = *targets_.kernel;
  switch (state.spec->kind) {
    case FaultKind::kIrqStorm:
      k.pic().Assert(state.irq_line);
      break;
    case FaultKind::kDpcStorm: {
      // Rotate through the pool; a DPC still queued from a previous burst is
      // skipped (KeInsertQueueDpc semantics).
      for (auto& dpc : state.dpc_pool) {
        if (!dpc->queued()) {
          k.KeInsertQueueDpc(dpc.get());
          break;
        }
      }
      break;
    }
    case FaultKind::kDiskSeekStorm:
      targets_.disk->SubmitIo(state.spec->disk_bytes);
      break;
    case FaultKind::kMemoryPressure: {
      // One contiguous-page scan, the sound scheme's long pole driven
      // directly (sound_scheme.cc): a DISPATCH-level section for the scan
      // plus a 1.5x thread-dispatch lockout while the VMM walks page lists.
      const double us = state.spec->duration_us.SampleUs(state.payload_rng);
      k.InjectKernelSection(kernel::Irql::kDispatch, us, LabelFor(state));
      k.LockDispatch(us * 1.5, LabelFor(state));
      break;
    }
    default:
      break;
  }
}

void Injector::EnsureInversionRig() {
  if (rig_) {
    return;
  }
  rig_ = std::make_unique<InversionRig>();
  kernel::Kernel& k = *targets_.kernel;
  rig_->holder = k.PsCreateSystemThread("fault-invert-holder", kHolderPriority,
                                        [this] { HolderLoop(); });
  rig_->victim = k.PsCreateSystemThread("fault-invert-victim", kVictimPriority,
                                        [this] { VictimLoop(); });
}

void Injector::HolderLoop() {
  kernel::Kernel* k = targets_.kernel;
  k->WaitForSemaphore(&rig_->hold_sem, [this, k] {
    k->WaitForMutex(&rig_->mutex, [this, k] {
      const double us = rig_->hold_us.empty() ? 100.0 : rig_->hold_us.front();
      if (!rig_->hold_us.empty()) {
        rig_->hold_us.pop_front();
      }
      k->ComputeAt(us, kernel::Irql::kPassive,
                   kernel::Label{kFaultModule, "_InversionHold"}, [this, k] {
                     k->KeReleaseMutex(&rig_->mutex);
                     HolderLoop();
                   });
    });
  });
}

void Injector::VictimLoop() {
  kernel::Kernel* k = targets_.kernel;
  k->WaitForSemaphore(&rig_->victim_sem, [this, k] {
    k->WaitForMutex(&rig_->mutex, [this, k] {
      k->KeReleaseMutex(&rig_->mutex);
      VictimLoop();
    });
  });
}

}  // namespace wdmlat::fault
