// Declarative fault plans: the vocabulary of the fault-injection subsystem.
//
// The paper's most operationally interesting results are perturbation
// studies — Figure 5 (the Plus! 98 virus scanner stretching worst-case
// thread latency by an order of magnitude) and Table 4 (long-latency
// episodes attributed to specific culprit modules). A FaultPlan captures a
// perturbation declaratively: a list of fault activations (one-shot,
// periodic, or Poisson-arrival) over a library of fault types that map onto
// the latency mechanisms the paper identifies — interrupt bursts, DPC queue
// flooding, long ISRs, interrupt-masked windows, Win16Mutex-style dispatch
// lockouts, priority inversion and disk seek storms. fault::Injector drives
// a plan on a simulated machine; lab::DifferentialRun quantifies the damage
// against an unperturbed run from the same seed.
//
// Every injected activity is labelled with module kFaultModule so the cause
// tool and the EpisodeFlightRecorder can be scored against *injected* ground
// truth (obs::ScoreInjectedGroundTruth).

#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/rng.h"

namespace wdmlat::fault {

// Module name carried by every injected activity's trace label.
inline constexpr const char* kFaultModule = "FAULTINJ";

enum class FaultKind : std::uint8_t {
  // Burst of device interrupts on a dedicated PIC line; each ISR runs for a
  // sampled duration (the interrupt-burst aggressor of Horst et al.).
  kIrqStorm,
  // Queue `burst` DPCs, each executing for a sampled duration — ordinary
  // DPCs drain FIFO, so the storm delays every DPC queued behind it.
  kDpcStorm,
  // A long ISR: one section at DEVICE IRQL for the sampled duration,
  // modelling an ISR that overruns its budget.
  kIsrOverrun,
  // Interrupts off (IRQL HIGH / cli) for the sampled duration — the
  // isolation/masking-window tail mechanism of Zhou et al.
  kMaskedWindow,
  // Hold the Win16Mutex / thread-dispatch lockout for the sampled duration
  // (DPCs still run; no thread can be dispatched).
  kLockoutHold,
  // A low-priority thread takes a mutex an RT thread needs and computes for
  // the sampled duration while holding it.
  kPriorityInvert,
  // Burst of disk transfers through the IDE/DMA driver: seeks + completion
  // ISR/DPC traffic.
  kDiskSeekStorm,
  // Timer-coalescing jitter: each activation stretches the next `burst` PIT
  // tick periods by a drift sampled from `duration_us` (the paper's 1 ms PIT
  // is assumed exact; real PITs drift and modern kernels coalesce). The
  // drift delays the clock interrupt itself, so everything clocked off the
  // tick — quantum accounting, timer expiry, the PIT-hook sampler — slides
  // with it.
  kTimerJitter,
  // Hold the named simulated spinlock (`lock`: "dispatcher" or "dpc<core>")
  // at DISPATCH for the sampled duration. On SMP profiles every core that
  // needs the lock spins (kernel::Smp accounts the contention and emits
  // spinlock-wait trace events); on uniprocessor profiles this degrades to a
  // DISPATCH-level kernel section — the same CPU-visible effect a held
  // spinlock has on one core.
  kSpinlockContention,
  // Memory pressure: `burst` contiguous-page scans through the VMM's
  // _mmFindContig path per activation, each a DISPATCH-level kernel section
  // of the sampled duration followed by a 1.5x thread-dispatch lockout —
  // the same shape the sound-scheme buffer allocation exercises, but driven
  // directly so pressure studies need no audio device (fault-library
  // backlog item). Bounded duration distributions only (ValidatePlan): an
  // unbounded scan under Dispatch would stall DPC drain indefinitely.
  kMemoryPressure,
};

inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kIrqStorm,      FaultKind::kDpcStorm,    FaultKind::kIsrOverrun,
    FaultKind::kMaskedWindow,  FaultKind::kLockoutHold, FaultKind::kPriorityInvert,
    FaultKind::kDiskSeekStorm, FaultKind::kTimerJitter, FaultKind::kSpinlockContention,
    FaultKind::kMemoryPressure,
};

// Stable snake_case identifier (the JSON schema's "kind" strings).
const char* FaultKindName(FaultKind kind);
bool FaultKindFromName(std::string_view name, FaultKind* out);

enum class TriggerKind : std::uint8_t {
  kOneShot,   // one activation at `at_ms`
  kPeriodic,  // activations at at_ms, at_ms + period_ms, ...
  kPoisson,   // exponentially distributed inter-activation gaps
};

const char* TriggerKindName(TriggerKind kind);
bool TriggerKindFromName(std::string_view name, TriggerKind* out);

// One fault process: a fault type plus its activation schedule and
// per-activation parameters. Times are relative to Injector::Start.
struct FaultSpec {
  FaultKind kind = FaultKind::kLockoutHold;
  TriggerKind trigger = TriggerKind::kOneShot;

  // kOneShot: activation instant; kPeriodic: first activation.
  double at_ms = 0.0;
  // kPeriodic: activation period (> 0).
  double period_ms = 0.0;
  // kPoisson: mean activations per simulated second (> 0).
  double rate_per_s = 0.0;
  // Cap on activations; 0 = unbounded (kOneShot is implicitly 1).
  std::uint64_t max_activations = 0;

  // Per-activation length: lockout/masked-window/section duration, per-ISR
  // or per-DPC execution time.
  sim::DurationDist duration_us = sim::DurationDist::Constant(100.0);
  // kIrqStorm / kDpcStorm / kDiskSeekStorm: events per activation.
  int burst = 1;
  // Spacing between burst events (µs); 0 packs them at one instant.
  double spacing_us = 0.0;
  // kDiskSeekStorm: transfer size per request.
  std::uint32_t disk_bytes = 64 * 1024;
  // kSpinlockContention: simulated lock to hold ("dispatcher", "dpc0", ...).
  std::string lock = "dispatcher";

  // Function name carried by the trace label; defaults to "_<KindName>".
  std::string function;

  std::string LabelFunction() const;
};

struct FaultPlan {
  std::string name = "custom";
  // Per-plan seed salt: the injector's RNG streams are SplitMix64-derived
  // from (plan seed, cell seed, spec index), so the same plan is
  // deterministic per cell and independent of the workload's RNG.
  std::uint64_t seed = 1;
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }
};

// Ceiling on every time field of a plan, in µs: durations and their dist
// parameters, at_ms, period_ms, spacing_us (and a burst's whole span) and a
// Poisson trigger's mean gap 1 / rate_per_s. 1e12 µs (11.6 virtual days) is
// 3e14 cycles, so sim::UsToCycles/MsToCycles of any of them, the exponential
// tails drawn from them and the engine's now + delay sums all stay far
// inside the 2^64-cycle range of sim::Cycles.
inline constexpr double kMaxPlanTimeUs = 1e12;
// False (a NaN as well) when `us` is above kMaxPlanTimeUs.
inline bool WithinPlanTimeCeiling(double us) { return us <= kMaxPlanTimeUs; }
// "<field> exceeds the plan time ceiling of 1e+12 us".
std::string PlanTimeCeilingError(std::string_view field);

// Empty string when the plan is well-formed; otherwise a one-line
// description of the first problem (unknown trigger parameters, zero rates,
// non-positive bursts, times past kMaxPlanTimeUs, ...).
std::string ValidatePlan(const FaultPlan& plan);

// --- Built-in plans ---------------------------------------------------------
// The Figure-5 perturbation as a fault plan: Poisson lockout holds with the
// virus scanner's heavy-tailed scan lengths plus raised-IRQL buffer-pinning
// sections, calibrated to the vmm98 scanner model. `wdmlat_run --faults
// virus_scan --differential` reproduces the Figure 5 direction without the
// hard-coded scanner module.
FaultPlan VirusScanPlan();
// Interrupt-burst aggressor: periodic IRQ storms (Horst et al. shape).
FaultPlan IrqStormPlan();
// Masking-window aggressor: Poisson cli windows (Zhou et al. shape).
FaultPlan MaskedWindowPlan();

// Names accepted by FindBuiltinPlan (and wdmlat_run --faults).
std::vector<std::string> BuiltinPlanNames();
bool FindBuiltinPlan(std::string_view name, FaultPlan* out);

}  // namespace wdmlat::fault

#endif  // SRC_FAULT_FAULT_H_
