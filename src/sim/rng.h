// Deterministic random number generation for the simulator.
//
// Every simulation run is seeded explicitly; identical seeds reproduce
// identical event sequences and therefore identical latency tables. The
// engine never consults the wall clock.

#ifndef SRC_SIM_RNG_H_
#define SRC_SIM_RNG_H_

#include <array>
#include <cstdint>
#include <initializer_list>

#include "src/sim/time.h"

namespace wdmlat::sim {

// One SplitMix64 step: advances `state` and returns a well-mixed 64-bit
// value. Exposed for deterministic derived-seed schemes (per-cell seeds of
// the experiment matrix) in addition to seeding Rng itself.
std::uint64_t SplitMix64(std::uint64_t& state);

// Coordinate hash chain for derived seeds: XOR each coordinate into the
// running hash, then push it through a full SplitMix64 avalanche round. Each
// round is a bijection, so neighbouring coordinates (which differ in one
// small value) land on statistically independent streams. Matrix and fleet
// cell seeds are both this chain.
std::uint64_t HashCoordinates(std::uint64_t seed, std::initializer_list<std::uint64_t> coords);

// xoshiro256** seeded via SplitMix64. Small, fast, and good enough for
// workload modelling; not cryptographic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform 64-bit value.
  std::uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive.
  std::uint64_t UniformInt(std::uint64_t lo, std::uint64_t hi);

  // True with probability p.
  bool Bernoulli(double p);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via Box-Muller (no cached spare: simpler determinism).
  double Normal(double mean, double sigma);

  // Lognormal parameterised by its median (= e^mu) and shape sigma.
  double LogNormalMedian(double median, double sigma);

  // Bounded Pareto on [lo, hi] with tail index alpha (> 0). Heavy tailed:
  // used for the legacy-code section lengths that produce the paper's
  // millisecond-scale latency tails.
  double BoundedPareto(double alpha, double lo, double hi);

  // Derive an independent child stream (for per-subsystem determinism that
  // does not depend on cross-subsystem draw ordering).
  Rng Fork();

 private:
  std::uint64_t s_[4];
};

// A configurable duration distribution, the unit of tuning in kernel and
// workload profiles. Parameters are in microseconds; samples are cycles.
class DurationDist {
 public:
  enum class Kind : std::uint8_t {
    kZero,
    kConstant,
    kUniform,
    kExponential,
    kLogNormal,
    kBoundedPareto,
  };

  // A distribution that always samples zero; useful as a disabled default.
  DurationDist() = default;

  static DurationDist Zero();
  static DurationDist Constant(double us);
  static DurationDist Uniform(double lo_us, double hi_us);
  static DurationDist Exponential(double mean_us);
  // median_us is the distribution median; sigma the lognormal shape.
  static DurationDist LogNormal(double median_us, double sigma);
  static DurationDist BoundedPareto(double alpha, double lo_us, double hi_us);

  Kind kind() const { return kind_; }
  bool is_zero() const { return kind_ == Kind::kZero; }
  // The kind's parameters in factory-argument order, unused ones 0.
  std::array<double, 3> params() const { return {a_, b_, c_}; }

  // A copy with every duration parameter multiplied by `factor` (> 0): the
  // constant's value, uniform bounds, exponential mean, lognormal median
  // (shape unchanged), bounded-Pareto bounds (tail index unchanged). The
  // fleet's hardware-speed model scales kernel cost distributions with this
  // instead of changing the fixed simulated cycle rate.
  DurationDist Scaled(double factor) const;

  // Sample a duration in cycles.
  Cycles Sample(Rng& rng) const;

  // Sample a duration in microseconds.
  double SampleUs(Rng& rng) const;

  // Mean of the distribution in microseconds (exact, not sampled).
  double MeanUs() const;

  // Largest value the distribution can produce, in microseconds
  // (infinity-free: exponential/lognormal are reported via a high quantile).
  double UpperBoundUs() const;

 private:
  Kind kind_ = Kind::kZero;
  double a_ = 0.0;  // Constant: value; Uniform: lo; Exponential: mean;
                    // LogNormal: median; BoundedPareto: alpha.
  double b_ = 0.0;  // Uniform: hi; LogNormal: sigma; BoundedPareto: lo.
  double c_ = 0.0;  // BoundedPareto: hi.
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_RNG_H_
