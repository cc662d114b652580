// JSON (de)serialisation of fault plans, on the src/obs/json DOM parser.
//
// Schema (all durations in µs unless the field says otherwise):
//
//   {
//     "name": "my_plan",
//     "seed": 7,
//     "faults": [
//       {
//         "kind": "lockout_hold",      // fault.h FaultKindName values
//         "trigger": "poisson",        // one_shot | periodic | poisson
//         "at_ms": 100.0,              // one_shot / periodic first activation
//         "period_ms": 50.0,           // periodic
//         "rate_per_s": 12.0,          // poisson
//         "max_activations": 0,        // 0 = unbounded
//         "duration_us": 1500.0,       // constant shorthand, or:
//         "duration": {"dist": "bounded_pareto",
//                      "alpha": 1.02, "lo_us": 300, "hi_us": 45000},
//         "burst": 8,                  // irq/dpc/disk storms
//         "spacing_us": 50.0,
//         "disk_bytes": 65536,
//         "lock": "dispatcher",        // spinlock_contention target lock
//         "function": "_ScanFileBuffer"
//       }
//     ]
//   }
//
// "duration" dist kinds: constant {us}, uniform {lo_us, hi_us},
// exponential {mean_us}, lognormal {median_us, sigma},
// bounded_pareto {alpha, lo_us, hi_us}. Durations are >= 0, a uniform
// range is 0 <= lo_us <= hi_us, means and medians are > 0, sigma >= 0, and
// a bounded Pareto needs alpha > 0 and 0 < lo_us < hi_us; anything else is
// a parse error. So is any time field (a duration or dist parameter in µs,
// at_ms, period_ms, spacing_us, a burst's span, a Poisson trigger's mean
// gap) past fault::kMaxPlanTimeUs.
//
// timer_jitter reinterprets two fields: `burst` is the number of PIT ticks
// perturbed per activation and `duration` is the per-tick period drift —
// which must be a bounded dist (constant, uniform or bounded_pareto;
// ValidatePlan rejects the open-ended ones).
//
// spinlock_contention holds the named simulated `lock` ("dispatcher" or
// "dpc<core>") at DISPATCH for the sampled duration; on uniprocessor
// profiles it degrades to a DISPATCH-level kernel section.

#ifndef SRC_FAULT_PLAN_JSON_H_
#define SRC_FAULT_PLAN_JSON_H_

#include <string>
#include <string_view>

#include "src/fault/fault.h"

namespace wdmlat::fault {

// Parse a plan document. On failure returns false and sets `error` (when
// non-null) to a one-line description. The parsed plan is also run through
// ValidatePlan.
bool ParseFaultPlan(std::string_view text, FaultPlan* plan, std::string* error);

// Load a plan from a file path (same contract as ParseFaultPlan).
bool LoadFaultPlanFile(const std::string& path, FaultPlan* plan, std::string* error);

}  // namespace wdmlat::fault

#endif  // SRC_FAULT_PLAN_JSON_H_
