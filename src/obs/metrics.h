// MetricsRegistry: named counters, gauges and value histograms for the
// observability layer.
//
// The paper's exhibits are distributions, so the registry reuses the same
// log-bucketed stats::LatencyHistogram for every "Observe" series (queue
// depths, per-episode times, per-cell wall clocks) and inherits its merge
// algebra: merging per-trial registries in grid order is bit-deterministic,
// exactly like the matrix runner's histogram merging (see
// tests/histogram_merge_test.cc and tests/metrics_registry_test.cc).
//
// Merge semantics, chosen so a merged registry reads like one run:
//   counter    — sums (event totals, accumulated milliseconds)
//   gauge      — maximum (peaks, utilization snapshots)
//   histogram  — bucket-for-bucket merge (stats::LatencyHistogram::Merge)
//   sketch     — stats::QuantileSketch::Merge (deterministic compactor fold
//                plus exact top-K tail union)
//
// Per-event writers (the kernel metrics collector, the queue-depth sampler,
// the latency driver's sketch hook) look each series up once with the *Series
// accessors and then write through the returned reference: no name string
// and no map lookup per event. A series comes into existence on that first
// lookup, so writers resolve lazily, at first use, and a series that never
// sees a value never appears in the exports.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <map>
#include <string>

#include "src/stats/histogram.h"
#include "src/stats/quantile_sketch.h"

namespace wdmlat::obs {

// The shortest "%.<p>g" spelling of `value` that reads back as the same
// double (p <= 16, else "%.17g"); "0" for Inf and NaN, which JSON cannot
// spell. The metrics exports write every number this way.
std::string JsonNumber(double value);

class MetricsRegistry {
 public:
  // Counters accumulate; a missing counter starts at zero.
  void Add(const std::string& name, double delta = 1.0) { counters_[name] += delta; }
  // Gauges hold the latest value set.
  void Set(const std::string& name, double value) { gauges_[name] = value; }
  // Histograms record individual observations. Values are stored in the
  // histogram's "milliseconds" unit, so exported statistics come back in the
  // same unit the caller passed (a queue depth of 3 exports as 3).
  void Observe(const std::string& name, double value) { histograms_[name].RecordMs(value); }
  // Stable references to a series, created empty (zero, no observations)
  // if missing. std::map nodes never move, so a reference stays valid for
  // the registry's lifetime, across later inserts and Merge. Sketches are
  // streaming quantile sketches: same unit convention as Observe, but with
  // exact deep-tail quantiles (P99.9/P99.99) and deterministic merging.
  double& CounterSeries(const std::string& name) { return counters_[name]; }
  stats::LatencyHistogram& HistogramSeries(const std::string& name) { return histograms_[name]; }
  stats::QuantileSketch& SketchSeries(const std::string& name) { return sketches_[name]; }

  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  // nullptr when the series does not exist.
  const stats::LatencyHistogram* histogram(const std::string& name) const;
  const stats::QuantileSketch* sketch(const std::string& name) const;
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() && sketches_.empty();
  }

  // Fold `other` into this registry: counters sum, gauges take the maximum,
  // histograms merge bucket-for-bucket. Counter sums and histogram buckets
  // are order-independent; callers wanting bit-identical floating-point sums
  // across runs must merge in a fixed order (the matrix runner merges in
  // grid order, as it does for latency histograms).
  void Merge(const MetricsRegistry& other);

  // JSON object with "counters", "gauges", "histograms" and "sketches"
  // members, keys sorted (std::map order), histograms summarized as
  // {count,min,max,mean,p50,p90,p99,p999}, sketches as
  // {count,min,max,mean,p50,p99,p999,p9999}.
  std::string ToJson() const;

  // Flat CSV: kind,name,field,value — one row per counter/gauge, one row per
  // exported histogram statistic.
  std::string ToCsv() const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, stats::LatencyHistogram> histograms_;
  std::map<std::string, stats::QuantileSketch> sketches_;
};

}  // namespace wdmlat::obs

#endif  // SRC_OBS_METRICS_H_
