#include "src/sim/rng.h"

#include <cassert>
#include <cmath>

namespace wdmlat::sim {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t HashCoordinates(std::uint64_t seed, std::initializer_list<std::uint64_t> coords) {
  std::uint64_t hash = seed;
  for (const std::uint64_t coord : coords) {
    std::uint64_t state = hash ^ coord;
    hash = SplitMix64(state);
  }
  return hash;
}

namespace {

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

std::uint64_t Rng::UniformInt(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) {  // full 64-bit range
    return NextU64();
  }
  return lo + NextU64() % span;
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u = NextDouble();
  // Avoid log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log1p(-u);
}

double Rng::Normal(double mean, double sigma) {
  double u1 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + sigma * r * std::cos(2.0 * M_PI * u2);
}

double Rng::LogNormalMedian(double median, double sigma) {
  assert(median > 0.0);
  return median * std::exp(Normal(0.0, sigma));
}

double Rng::BoundedPareto(double alpha, double lo, double hi) {
  assert(alpha > 0.0 && lo > 0.0 && hi > lo);
  const double u = NextDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  // Inverse CDF of the bounded Pareto.
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

Rng Rng::Fork() { return Rng(NextU64()); }

DurationDist DurationDist::Zero() { return DurationDist(); }

DurationDist DurationDist::Constant(double us) {
  DurationDist d;
  d.kind_ = Kind::kConstant;
  d.a_ = us;
  return d;
}

DurationDist DurationDist::Uniform(double lo_us, double hi_us) {
  assert(lo_us <= hi_us);
  DurationDist d;
  d.kind_ = Kind::kUniform;
  d.a_ = lo_us;
  d.b_ = hi_us;
  return d;
}

DurationDist DurationDist::Exponential(double mean_us) {
  DurationDist d;
  d.kind_ = Kind::kExponential;
  d.a_ = mean_us;
  return d;
}

DurationDist DurationDist::LogNormal(double median_us, double sigma) {
  DurationDist d;
  d.kind_ = Kind::kLogNormal;
  d.a_ = median_us;
  d.b_ = sigma;
  return d;
}

DurationDist DurationDist::BoundedPareto(double alpha, double lo_us, double hi_us) {
  DurationDist d;
  d.kind_ = Kind::kBoundedPareto;
  d.a_ = alpha;
  d.b_ = lo_us;
  d.c_ = hi_us;
  return d;
}

DurationDist DurationDist::Scaled(double factor) const {
  DurationDist d = *this;
  switch (kind_) {
    case Kind::kZero:
      break;
    case Kind::kConstant:
    case Kind::kExponential:
    case Kind::kLogNormal:
      d.a_ *= factor;  // value / mean / median; lognormal shape stays in b_
      break;
    case Kind::kUniform:
      d.a_ *= factor;
      d.b_ *= factor;
      break;
    case Kind::kBoundedPareto:
      d.b_ *= factor;  // lo/hi bounds; tail index stays in a_
      d.c_ *= factor;
      break;
  }
  return d;
}

double DurationDist::SampleUs(Rng& rng) const {
  switch (kind_) {
    case Kind::kZero:
      return 0.0;
    case Kind::kConstant:
      return a_;
    case Kind::kUniform:
      return rng.Uniform(a_, b_);
    case Kind::kExponential:
      return rng.Exponential(a_);
    case Kind::kLogNormal:
      return rng.LogNormalMedian(a_, b_);
    case Kind::kBoundedPareto:
      return rng.BoundedPareto(a_, b_, c_);
  }
  return 0.0;
}

Cycles DurationDist::Sample(Rng& rng) const { return UsToCycles(SampleUs(rng)); }

double DurationDist::MeanUs() const {
  switch (kind_) {
    case Kind::kZero:
      return 0.0;
    case Kind::kConstant:
      return a_;
    case Kind::kUniform:
      return 0.5 * (a_ + b_);
    case Kind::kExponential:
      return a_;
    case Kind::kLogNormal:
      // mean = median * exp(sigma^2/2)
      return a_ * std::exp(0.5 * b_ * b_);
    case Kind::kBoundedPareto: {
      const double alpha = a_, lo = b_, hi = c_;
      if (alpha == 1.0) {
        return (std::log(hi) - std::log(lo)) * lo * hi / (hi - lo);
      }
      const double la = std::pow(lo, alpha);
      const double ha = std::pow(hi, alpha);
      return la / (1.0 - la / ha) * (alpha / (alpha - 1.0)) *
             (1.0 / std::pow(lo, alpha - 1.0) - 1.0 / std::pow(hi, alpha - 1.0));
    }
  }
  return 0.0;
}

double DurationDist::UpperBoundUs() const {
  switch (kind_) {
    case Kind::kZero:
      return 0.0;
    case Kind::kConstant:
      return a_;
    case Kind::kUniform:
      return b_;
    case Kind::kExponential:
      return a_ * 23.0;  // ~1e-10 quantile
    case Kind::kLogNormal:
      return a_ * std::exp(6.4 * b_);  // ~1e-10 quantile
    case Kind::kBoundedPareto:
      return c_;
  }
  return 0.0;
}

}  // namespace wdmlat::sim
