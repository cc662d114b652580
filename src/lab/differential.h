// Differential A/B perturbation runs: baseline vs fault-perturbed from the
// same seed.
//
// The paper's Figure 5 is a differential experiment — the same Windows 98 /
// office-load cell measured with and without the Plus! 98 virus scanner, the
// damage read off as the worst-case thread latency stretching from ~4 ms to
// ~40 ms. RunDifferential generalises that recipe to any FaultPlan: run the
// cell once with no injector and once with the plan, from the identical
// seed (the injector's RNG streams are derived from the plan seed, so the
// workload's entire random sequence is shared), then report per-quantile
// deltas, tail-fraction deltas, Table-3 style expected-worst-case deltas and
// a Kolmogorov-Smirnov whole-distribution statistic for each measured
// latency class.

#ifndef SRC_LAB_DIFFERENTIAL_H_
#define SRC_LAB_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/lab/lab.h"

namespace wdmlat::lab {

// One latency class's baseline-vs-perturbed comparison.
struct DistributionShift {
  std::string metric;  // "thread", "dpc_interrupt", "thread_interrupt", ...

  struct QuantilePair {
    double q = 0.0;
    double baseline_ms = 0.0;
    double perturbed_ms = 0.0;
  };
  std::vector<QuantilePair> quantiles;

  struct TailPair {
    double threshold_ms = 0.0;
    double baseline_fraction = 0.0;   // FractionAtOrAbove(threshold)
    double perturbed_fraction = 0.0;
  };
  std::vector<TailPair> tails;

  // Observed maxima and Table-3 style expected hourly worst cases
  // (ExpectedMaxOfNMs at each run's own hourly sample count).
  double baseline_max_ms = 0.0;
  double perturbed_max_ms = 0.0;
  double baseline_hourly_worst_ms = 0.0;
  double perturbed_hourly_worst_ms = 0.0;

  // Two-sample KS statistic over the full distributions.
  double ks = 0.0;
};

struct DifferentialReport {
  fault::FaultPlan plan;
  LabReport baseline;
  LabReport perturbed;
  std::vector<DistributionShift> shifts;
};

// Quantiles / tail thresholds used when the caller does not override them.
std::vector<double> DefaultShiftQuantiles();   // .5 .9 .99 .999 .9999
std::vector<double> DefaultTailThresholdsMs(); // 1, 10, 100 ms

// Run the cell described by `config` twice — config.faults is ignored; the
// baseline run has no injector, the perturbed run drives `plan` — and
// compare. Both runs use config.seed.
DifferentialReport RunDifferential(const LabConfig& config, const fault::FaultPlan& plan);

// Human-readable report: one ascii table per latency class.
std::string RenderDifferentialTables(const DifferentialReport& report);

// CSV: metric,statistic,baseline,perturbed rows (quantiles in ms, tail
// fractions dimensionless, ks with an empty baseline column).
std::string DifferentialToCsv(const DifferentialReport& report);

// JSON document with top-level keys: plan, baseline, perturbed, shifts.
std::string DifferentialToJson(const DifferentialReport& report);

}  // namespace wdmlat::lab

#endif  // SRC_LAB_DIFFERENTIAL_H_
