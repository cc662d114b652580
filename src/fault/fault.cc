#include "src/fault/fault.h"

#include <sstream>

namespace wdmlat::fault {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIrqStorm:
      return "irq_storm";
    case FaultKind::kDpcStorm:
      return "dpc_storm";
    case FaultKind::kIsrOverrun:
      return "isr_overrun";
    case FaultKind::kMaskedWindow:
      return "masked_window";
    case FaultKind::kLockoutHold:
      return "lockout_hold";
    case FaultKind::kPriorityInvert:
      return "priority_invert";
    case FaultKind::kDiskSeekStorm:
      return "disk_seek_storm";
    case FaultKind::kTimerJitter:
      return "timer_jitter";
    case FaultKind::kSpinlockContention:
      return "spinlock_contention";
    case FaultKind::kMemoryPressure:
      return "memory_pressure";
  }
  return "?";
}

bool FaultKindFromName(std::string_view name, FaultKind* out) {
  for (const FaultKind kind : kAllFaultKinds) {
    if (name == FaultKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* TriggerKindName(TriggerKind kind) {
  switch (kind) {
    case TriggerKind::kOneShot:
      return "one_shot";
    case TriggerKind::kPeriodic:
      return "periodic";
    case TriggerKind::kPoisson:
      return "poisson";
  }
  return "?";
}

bool TriggerKindFromName(std::string_view name, TriggerKind* out) {
  for (const TriggerKind kind :
       {TriggerKind::kOneShot, TriggerKind::kPeriodic, TriggerKind::kPoisson}) {
    if (name == TriggerKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string FaultSpec::LabelFunction() const {
  if (!function.empty()) {
    return function;
  }
  if (kind == FaultKind::kMemoryPressure) {
    // Matches the VMM's own contiguous-scan label so the cause tool and the
    // flight recorder attribute injected pressure like organic pressure.
    return "_mmFindContig";
  }
  std::string name = "_";
  name += FaultKindName(kind);
  return name;
}

std::string PlanTimeCeilingError(std::string_view field) {
  std::ostringstream error;
  error << field << " exceeds the plan time ceiling of " << kMaxPlanTimeUs << " us";
  return error.str();
}

std::string ValidatePlan(const FaultPlan& plan) {
  std::ostringstream error;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    const FaultSpec& spec = plan.specs[i];
    error << "fault " << i << " (" << FaultKindName(spec.kind) << "): ";
    if (spec.at_ms < 0.0) {
      error << "at_ms must be >= 0";
      return error.str();
    }
    if (!WithinPlanTimeCeiling(spec.at_ms * 1e3)) {
      error << PlanTimeCeilingError("at_ms");
      return error.str();
    }
    if (spec.trigger == TriggerKind::kPeriodic && spec.period_ms <= 0.0) {
      error << "periodic trigger needs period_ms > 0";
      return error.str();
    }
    if (!WithinPlanTimeCeiling(spec.period_ms * 1e3)) {
      error << PlanTimeCeilingError("period_ms");
      return error.str();
    }
    if (spec.trigger == TriggerKind::kPoisson && spec.rate_per_s <= 0.0) {
      error << "poisson trigger needs rate_per_s > 0";
      return error.str();
    }
    if (spec.trigger == TriggerKind::kPoisson && !WithinPlanTimeCeiling(1e6 / spec.rate_per_s)) {
      error << PlanTimeCeilingError("the mean poisson gap 1 / rate_per_s");
      return error.str();
    }
    if (spec.burst < 1) {
      error << "burst must be >= 1";
      return error.str();
    }
    if (spec.spacing_us < 0.0) {
      error << "spacing_us must be >= 0";
      return error.str();
    }
    // The last event of a burst lands spacing_us * (burst - 1) after the first.
    if (!WithinPlanTimeCeiling(spec.spacing_us) ||
        !WithinPlanTimeCeiling(spec.spacing_us * (spec.burst - 1))) {
      error << PlanTimeCeilingError("spacing_us * (burst - 1)");
      return error.str();
    }
    if (spec.kind == FaultKind::kDiskSeekStorm && spec.disk_bytes == 0) {
      error << "disk_bytes must be > 0";
      return error.str();
    }
    if (spec.kind == FaultKind::kSpinlockContention && spec.lock.empty()) {
      error << "spinlock_contention needs a lock name";
      return error.str();
    }
    if (spec.kind == FaultKind::kTimerJitter) {
      // The drift must be bounded: an unbounded per-tick stretch can stall
      // the clock entirely, which models a broken PIT, not a drifting one.
      const sim::DurationDist::Kind dk = spec.duration_us.kind();
      if (dk != sim::DurationDist::Kind::kZero && dk != sim::DurationDist::Kind::kConstant &&
          dk != sim::DurationDist::Kind::kUniform &&
          dk != sim::DurationDist::Kind::kBoundedPareto) {
        error << "timer_jitter needs a bounded drift distribution "
                 "(constant, uniform or bounded_pareto)";
        return error.str();
      }
    }
    if (spec.kind == FaultKind::kMemoryPressure) {
      // A contiguous-page scan runs at DISPATCH with the thread lockout
      // held; an unbounded duration would model a wedged VMM, not pressure.
      const sim::DurationDist::Kind dk = spec.duration_us.kind();
      if (dk != sim::DurationDist::Kind::kZero && dk != sim::DurationDist::Kind::kConstant &&
          dk != sim::DurationDist::Kind::kUniform &&
          dk != sim::DurationDist::Kind::kBoundedPareto) {
        error << "memory_pressure needs a bounded scan distribution "
                 "(constant, uniform or bounded_pareto)";
        return error.str();
      }
    }
  }
  return std::string();
}

FaultPlan VirusScanPlan() {
  FaultPlan plan;
  plan.name = "virus_scan";
  plan.seed = 0x98F1CE;
  // The vmm98 scanner model: ~55% of office file operations (a few tens per
  // second) trigger a scan that locks thread dispatch for a heavy-tailed
  // Pareto length, with a shorter raised-IRQL portion for buffer pinning.
  // As a plan, the file-op coupling becomes a Poisson arrival at the
  // effective scan rate.
  FaultSpec lockout;
  lockout.kind = FaultKind::kLockoutHold;
  lockout.trigger = TriggerKind::kPoisson;
  lockout.rate_per_s = 18.0;
  lockout.duration_us = sim::DurationDist::BoundedPareto(1.02, 300.0, 45000.0);
  lockout.function = "_ScanFileBuffer";
  plan.specs.push_back(lockout);

  FaultSpec pinning;
  pinning.kind = FaultKind::kIsrOverrun;
  pinning.trigger = TriggerKind::kPoisson;
  pinning.rate_per_s = 18.0;
  pinning.duration_us = sim::DurationDist::BoundedPareto(1.5, 30.0, 2500.0);
  pinning.function = "_PinScanBuffer";
  plan.specs.push_back(pinning);
  return plan;
}

FaultPlan IrqStormPlan() {
  FaultPlan plan;
  plan.name = "irq_storm";
  plan.seed = 0x1209;
  FaultSpec storm;
  storm.kind = FaultKind::kIrqStorm;
  storm.trigger = TriggerKind::kPeriodic;
  storm.at_ms = 50.0;
  storm.period_ms = 200.0;
  storm.burst = 32;
  storm.spacing_us = 40.0;
  storm.duration_us = sim::DurationDist::Uniform(15.0, 60.0);
  plan.specs.push_back(storm);
  return plan;
}

FaultPlan MaskedWindowPlan() {
  FaultPlan plan;
  plan.name = "masked_window";
  plan.seed = 0xC11;
  FaultSpec window;
  window.kind = FaultKind::kMaskedWindow;
  window.trigger = TriggerKind::kPoisson;
  window.rate_per_s = 4.0;
  window.duration_us = sim::DurationDist::BoundedPareto(1.3, 100.0, 4000.0);
  plan.specs.push_back(window);
  return plan;
}

std::vector<std::string> BuiltinPlanNames() {
  return {"virus_scan", "irq_storm", "masked_window"};
}

bool FindBuiltinPlan(std::string_view name, FaultPlan* out) {
  if (name == "virus_scan") {
    *out = VirusScanPlan();
    return true;
  }
  if (name == "irq_storm") {
    *out = IrqStormPlan();
    return true;
  }
  if (name == "masked_window") {
    *out = MaskedWindowPlan();
    return true;
  }
  return false;
}

}  // namespace wdmlat::fault
