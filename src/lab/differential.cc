#include "src/lab/differential.h"

#include <cmath>
#include <sstream>

#include "src/report/ascii_table.h"

namespace wdmlat::lab {

namespace {

std::uint64_t HourlyN(const LabReport& report) {
  const double sph = report.samples_per_hour;
  return sph > 1.0 ? static_cast<std::uint64_t>(sph) : report.samples;
}

DistributionShift MakeShift(const std::string& metric, const stats::LatencyHistogram& base,
                            const stats::LatencyHistogram& pert, std::uint64_t base_n,
                            std::uint64_t pert_n) {
  DistributionShift shift;
  shift.metric = metric;
  for (double q : DefaultShiftQuantiles()) {
    shift.quantiles.push_back(
        DistributionShift::QuantilePair{q, base.QuantileMs(q), pert.QuantileMs(q)});
  }
  for (double ms : DefaultTailThresholdsMs()) {
    shift.tails.push_back(DistributionShift::TailPair{ms, base.FractionAtOrAbove(ms),
                                                      pert.FractionAtOrAbove(ms)});
  }
  shift.baseline_max_ms = base.max_ms();
  shift.perturbed_max_ms = pert.max_ms();
  shift.baseline_hourly_worst_ms = base.ExpectedMaxOfNMs(base_n);
  shift.perturbed_hourly_worst_ms = pert.ExpectedMaxOfNMs(pert_n);
  shift.ks = stats::KsStatistic(base, pert);
  return shift;
}

std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FmtDouble(double value) {
  std::ostringstream out;
  if (!std::isfinite(value)) {
    out << (value > 0 ? 1e308 : -1e308);  // JSON has no infinity
  } else {
    out << value;
  }
  return out.str();
}

void AppendRunJson(std::ostringstream& out, const char* key, const LabReport& report) {
  out << "\"" << key << "\": {\"os\": \"" << EscapeJson(report.os_name)
      << "\", \"workload\": \"" << EscapeJson(report.workload_name)
      << "\", \"priority\": " << report.thread_priority
      << ", \"samples\": " << report.samples
      << ", \"samples_per_hour\": " << FmtDouble(report.samples_per_hour)
      << ", \"fault_activations\": " << report.fault_activations << "}";
}

}  // namespace

std::vector<double> DefaultShiftQuantiles() { return {0.5, 0.9, 0.99, 0.999, 0.9999}; }

std::vector<double> DefaultTailThresholdsMs() { return {1.0, 10.0, 100.0}; }

DifferentialReport RunDifferential(const LabConfig& config, const fault::FaultPlan& plan) {
  DifferentialReport report;
  report.plan = plan;

  LabConfig base_config = config;
  base_config.faults = nullptr;
  report.baseline = RunLatencyExperiment(base_config);

  LabConfig pert_config = config;
  pert_config.faults = &plan;
  report.perturbed = RunLatencyExperiment(pert_config);

  const std::uint64_t base_n = HourlyN(report.baseline);
  const std::uint64_t pert_n = HourlyN(report.perturbed);
  report.shifts.push_back(
      MakeShift("thread", report.baseline.thread, report.perturbed.thread, base_n, pert_n));
  report.shifts.push_back(MakeShift("dpc_interrupt", report.baseline.dpc_interrupt,
                                    report.perturbed.dpc_interrupt, base_n, pert_n));
  report.shifts.push_back(MakeShift("thread_interrupt", report.baseline.thread_interrupt,
                                    report.perturbed.thread_interrupt, base_n, pert_n));
  if (report.baseline.has_interrupt_latency && report.perturbed.has_interrupt_latency) {
    report.shifts.push_back(MakeShift("interrupt", report.baseline.interrupt,
                                      report.perturbed.interrupt, base_n, pert_n));
  }
  return report;
}

std::string RenderDifferentialTables(const DifferentialReport& report) {
  std::ostringstream out;
  out << "Differential run: plan \"" << report.plan.name << "\" (seed " << report.plan.seed
      << ", " << report.plan.specs.size() << " fault spec(s), "
      << report.perturbed.fault_activations << " activations) on " << report.baseline.os_name
      << " / " << report.baseline.workload_name << " / prio "
      << report.baseline.thread_priority << "\n\n";
  for (const DistributionShift& shift : report.shifts) {
    report::AsciiTable table({shift.metric + " latency", "baseline", "perturbed", "ratio"});
    auto ratio = [](double base, double pert) {
      return base > 0.0 ? report::AsciiTable::Fmt(pert / base, 2) + "x" : std::string("-");
    };
    for (const auto& q : shift.quantiles) {
      std::ostringstream label;
      label << "Q(" << q.q << ") ms";
      table.AddRow({label.str(), report::AsciiTable::Fmt(q.baseline_ms, 3),
                    report::AsciiTable::Fmt(q.perturbed_ms, 3),
                    ratio(q.baseline_ms, q.perturbed_ms)});
    }
    for (const auto& t : shift.tails) {
      std::ostringstream label;
      label << "P[>= " << t.threshold_ms << " ms]";
      table.AddRow({label.str(), report::AsciiTable::Fmt(t.baseline_fraction * 100.0, 4) + "%",
                    report::AsciiTable::Fmt(t.perturbed_fraction * 100.0, 4) + "%",
                    ratio(t.baseline_fraction, t.perturbed_fraction)});
    }
    table.AddRule();
    table.AddRow({"expected hourly worst ms",
                  report::AsciiTable::Fmt(shift.baseline_hourly_worst_ms, 3),
                  report::AsciiTable::Fmt(shift.perturbed_hourly_worst_ms, 3),
                  ratio(shift.baseline_hourly_worst_ms, shift.perturbed_hourly_worst_ms)});
    table.AddRow({"observed max ms", report::AsciiTable::Fmt(shift.baseline_max_ms, 3),
                  report::AsciiTable::Fmt(shift.perturbed_max_ms, 3),
                  ratio(shift.baseline_max_ms, shift.perturbed_max_ms)});
    table.AddRow({"KS statistic", "-", report::AsciiTable::Fmt(shift.ks, 4), "-"});
    out << table.Render() << "\n";
  }
  return out.str();
}

std::string DifferentialToCsv(const DifferentialReport& report) {
  std::ostringstream out;
  out << "metric,statistic,baseline,perturbed\n";
  for (const DistributionShift& shift : report.shifts) {
    for (const auto& q : shift.quantiles) {
      out << shift.metric << ",q" << q.q << "_ms," << q.baseline_ms << "," << q.perturbed_ms
          << "\n";
    }
    for (const auto& t : shift.tails) {
      out << shift.metric << ",frac_at_or_above_" << t.threshold_ms << "ms,"
          << t.baseline_fraction << "," << t.perturbed_fraction << "\n";
    }
    out << shift.metric << ",hourly_worst_ms," << shift.baseline_hourly_worst_ms << ","
        << shift.perturbed_hourly_worst_ms << "\n";
    out << shift.metric << ",max_ms," << shift.baseline_max_ms << "," << shift.perturbed_max_ms
        << "\n";
    out << shift.metric << ",ks,," << shift.ks << "\n";
  }
  return out.str();
}

std::string DifferentialToJson(const DifferentialReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "\"plan\": {\"name\": \"" << EscapeJson(report.plan.name)
      << "\", \"seed\": " << report.plan.seed
      << ", \"specs\": " << report.plan.specs.size()
      << ", \"activations\": " << report.perturbed.fault_activations << "},\n";
  AppendRunJson(out, "baseline", report.baseline);
  out << ",\n";
  AppendRunJson(out, "perturbed", report.perturbed);
  out << ",\n\"shifts\": [";
  for (std::size_t i = 0; i < report.shifts.size(); ++i) {
    const DistributionShift& shift = report.shifts[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "{\"metric\": \"" << EscapeJson(shift.metric) << "\", \"ks\": "
        << FmtDouble(shift.ks);
    out << ", \"max_ms\": {\"baseline\": " << FmtDouble(shift.baseline_max_ms)
        << ", \"perturbed\": " << FmtDouble(shift.perturbed_max_ms) << "}";
    out << ", \"hourly_worst_ms\": {\"baseline\": "
        << FmtDouble(shift.baseline_hourly_worst_ms)
        << ", \"perturbed\": " << FmtDouble(shift.perturbed_hourly_worst_ms) << "}";
    out << ", \"quantiles\": [";
    for (std::size_t j = 0; j < shift.quantiles.size(); ++j) {
      const auto& q = shift.quantiles[j];
      out << (j == 0 ? "" : ", ") << "{\"q\": " << FmtDouble(q.q)
          << ", \"baseline_ms\": " << FmtDouble(q.baseline_ms)
          << ", \"perturbed_ms\": " << FmtDouble(q.perturbed_ms) << "}";
    }
    out << "], \"fraction_at_or_above\": [";
    for (std::size_t j = 0; j < shift.tails.size(); ++j) {
      const auto& t = shift.tails[j];
      out << (j == 0 ? "" : ", ") << "{\"ms\": " << FmtDouble(t.threshold_ms)
          << ", \"baseline\": " << FmtDouble(t.baseline_fraction)
          << ", \"perturbed\": " << FmtDouble(t.perturbed_fraction) << "}";
    }
    out << "]}";
  }
  out << "\n]\n}\n";
  return out.str();
}

}  // namespace wdmlat::lab
