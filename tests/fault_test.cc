// Unit tests for the fault-injection subsystem: plan validation, the JSON
// plan schema, injector mechanics and determinism, plus the KS statistic
// and the MTTF sweep grid the differential reports build on.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/analysis/mttf.h"
#include "src/fault/fault.h"
#include "src/fault/injector.h"
#include "src/fault/plan_json.h"
#include "src/kernel/profile.h"
#include "src/lab/test_system.h"
#include "src/stats/histogram.h"

namespace wdmlat {
namespace {

TEST(FaultPlanTest, ValidatePlanAcceptsBuiltins) {
  EXPECT_EQ(fault::ValidatePlan(fault::VirusScanPlan()), "");
  EXPECT_EQ(fault::ValidatePlan(fault::IrqStormPlan()), "");
  EXPECT_EQ(fault::ValidatePlan(fault::MaskedWindowPlan()), "");
}

TEST(FaultPlanTest, ValidatePlanRejectsBadTriggers) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.trigger = fault::TriggerKind::kPeriodic;
  spec.period_ms = 0.0;
  plan.specs.push_back(spec);
  EXPECT_NE(fault::ValidatePlan(plan).find("period_ms"), std::string::npos);

  plan.specs[0].trigger = fault::TriggerKind::kPoisson;
  plan.specs[0].rate_per_s = 0.0;
  EXPECT_NE(fault::ValidatePlan(plan).find("rate_per_s"), std::string::npos);

  plan.specs[0] = fault::FaultSpec{};
  plan.specs[0].burst = 0;
  EXPECT_NE(fault::ValidatePlan(plan).find("burst"), std::string::npos);
}

TEST(FaultPlanTest, KindAndTriggerNamesRoundTrip) {
  for (fault::FaultKind kind : fault::kAllFaultKinds) {
    fault::FaultKind parsed;
    ASSERT_TRUE(fault::FaultKindFromName(fault::FaultKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  fault::FaultKind kind;
  EXPECT_FALSE(fault::FaultKindFromName("warp_core_breach", &kind));
  fault::TriggerKind trigger;
  EXPECT_TRUE(fault::TriggerKindFromName("poisson", &trigger));
  EXPECT_EQ(trigger, fault::TriggerKind::kPoisson);
  EXPECT_FALSE(fault::TriggerKindFromName("sometimes", &trigger));
}

TEST(FaultPlanTest, BuiltinLookup) {
  fault::FaultPlan plan;
  for (const std::string& name : fault::BuiltinPlanNames()) {
    EXPECT_TRUE(fault::FindBuiltinPlan(name, &plan)) << name;
    EXPECT_EQ(plan.name, name);
    EXPECT_FALSE(plan.empty());
  }
  EXPECT_FALSE(fault::FindBuiltinPlan("no_such_plan", &plan));
}

TEST(FaultPlanTest, DefaultLabelFunctionDerivesFromKind) {
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kIrqStorm;
  EXPECT_EQ(spec.LabelFunction(), "_irq_storm");
  spec.function = "_Custom";
  EXPECT_EQ(spec.LabelFunction(), "_Custom");
}

TEST(FaultPlanJsonTest, ParsesFullSchema) {
  const char* text = R"({
    "name": "test_plan", "seed": 42,
    "faults": [
      {"kind": "lockout_hold", "trigger": "one_shot", "at_ms": 5.0,
       "duration_us": 250.0, "function": "_Hold"},
      {"kind": "irq_storm", "trigger": "periodic", "at_ms": 1.0,
       "period_ms": 10.0, "max_activations": 3, "burst": 8, "spacing_us": 20.0,
       "duration": {"dist": "uniform", "lo_us": 10.0, "hi_us": 50.0}},
      {"kind": "masked_window", "trigger": "poisson", "rate_per_s": 2.5,
       "duration": {"dist": "bounded_pareto", "alpha": 1.3, "lo_us": 100.0,
                    "hi_us": 4000.0}}
    ]
  })";
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlan(text, &plan, &error)) << error;
  EXPECT_EQ(plan.name, "test_plan");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].kind, fault::FaultKind::kLockoutHold);
  EXPECT_EQ(plan.specs[0].at_ms, 5.0);
  EXPECT_EQ(plan.specs[0].function, "_Hold");
  EXPECT_EQ(plan.specs[1].trigger, fault::TriggerKind::kPeriodic);
  EXPECT_EQ(plan.specs[1].max_activations, 3u);
  EXPECT_EQ(plan.specs[1].burst, 8);
  EXPECT_EQ(plan.specs[2].rate_per_s, 2.5);
}

TEST(FaultPlanJsonTest, RejectsMalformedInput) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(fault::ParseFaultPlan("not json", &plan, &error));
  EXPECT_FALSE(fault::ParseFaultPlan("{}", &plan, &error));
  EXPECT_FALSE(fault::ParseFaultPlan(R"({"faults": [{"kind": "bogus"}]})", &plan, &error));
  EXPECT_FALSE(fault::ParseFaultPlan(
      R"({"faults": [{"kind": "dpc_storm", "trigger": "bogus"}]})", &plan, &error));
  // Validation runs on parsed plans too.
  EXPECT_FALSE(fault::ParseFaultPlan(
      R"({"faults": [{"kind": "dpc_storm", "trigger": "periodic"}]})", &plan, &error));
  EXPECT_NE(error.find("period_ms"), std::string::npos);
}

fault::FaultPlan OneShotLockoutPlan() {
  fault::FaultPlan plan;
  plan.name = "one_lockout";
  plan.seed = 9;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kLockoutHold;
  spec.trigger = fault::TriggerKind::kOneShot;
  spec.at_ms = 2.0;
  spec.duration_us = sim::DurationDist::Constant(500.0);
  plan.specs.push_back(spec);
  return plan;
}

TEST(FaultInjectorTest, OneShotFiresExactlyOnce) {
  lab::TestSystem system(kernel::MakeNt4Profile(), 7);
  fault::InjectorTargets targets;
  targets.kernel = &system.kernel();
  fault::Injector injector(targets, OneShotLockoutPlan(), 7);
  injector.Start();
  system.RunFor(1.0);
  injector.Stop();
  ASSERT_EQ(injector.activation_count(), 1u);
  EXPECT_EQ(injector.log()[0].kind, fault::FaultKind::kLockoutHold);
  EXPECT_EQ(injector.log()[0].at, sim::MsToCycles(2.0));
  EXPECT_EQ(injector.log()[0].duration, sim::UsToCycles(500.0));
}

TEST(FaultInjectorTest, EmptyPlanIsInert) {
  lab::TestSystem system(kernel::MakeNt4Profile(), 7);
  fault::InjectorTargets targets;
  targets.kernel = &system.kernel();
  fault::Injector injector(targets, fault::FaultPlan{}, 7);
  injector.Start();
  system.RunFor(0.5);
  injector.Stop();
  EXPECT_EQ(injector.activation_count(), 0u);
}

std::vector<fault::FaultActivation> RunPlan(const fault::FaultPlan& plan,
                                            std::uint64_t cell_seed) {
  lab::TestSystem system(kernel::MakeWin98Profile(), cell_seed);
  fault::InjectorTargets targets;
  targets.kernel = &system.kernel();
  targets.disk = &system.disk_driver();
  fault::Injector injector(targets, plan, cell_seed);
  injector.Start();
  system.RunFor(2.0);
  injector.Stop();
  return injector.log();
}

TEST(FaultInjectorTest, SamePlanSameSeedIsDeterministic) {
  const fault::FaultPlan plan = fault::VirusScanPlan();
  const auto a = RunPlan(plan, 1999);
  const auto b = RunPlan(plan, 1999);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
  }
}

TEST(FaultInjectorTest, DifferentCellSeedPerturbsDifferently) {
  const fault::FaultPlan plan = fault::VirusScanPlan();
  const auto a = RunPlan(plan, 1999);
  const auto b = RunPlan(plan, 2000);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != b[i].at || a[i].duration != b[i].duration;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, DiskStormWithoutDiskIsSkippedAndCounted) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kDiskSeekStorm;
  spec.trigger = fault::TriggerKind::kOneShot;
  spec.at_ms = 1.0;
  spec.burst = 4;
  plan.specs.push_back(spec);

  lab::TestSystem system(kernel::MakeNt4Profile(), 3);
  fault::InjectorTargets targets;
  targets.kernel = &system.kernel();
  targets.disk = nullptr;
  fault::Injector injector(targets, plan, 3);
  injector.Start();
  system.RunFor(0.5);
  injector.Stop();
  EXPECT_EQ(injector.activation_count(), 0u);
  EXPECT_EQ(injector.skipped_no_disk(), 1u);
}

// Stop() in the middle of an irq_storm burst: the burst's remaining events
// stay on the calendar but assert nothing, and the periodic trigger, due
// again within the 10 ms that follow, is disarmed.
TEST(FaultInjectorTest, StopMidBurstInjectsNothingAfterwards) {
  fault::FaultPlan plan;
  plan.seed = 5;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kIrqStorm;
  spec.trigger = fault::TriggerKind::kPeriodic;
  spec.at_ms = 1.0;
  spec.period_ms = 5.0;
  spec.burst = 8;
  spec.spacing_us = 200.0;
  spec.duration_us = sim::DurationDist::Constant(5.0);
  plan.specs.push_back(spec);

  lab::TestSystem system(kernel::MakeNt4Profile(), 7);
  fault::InjectorTargets targets;
  targets.kernel = &system.kernel();
  fault::Injector injector(targets, plan, 7);
  injector.Start();
  const hw::InterruptController& pic = system.kernel().pic();
  int storm_line = -1;
  for (int line = 0; line < pic.line_count(); ++line) {
    storm_line = pic.line_name(line) == "FAULT0" ? line : storm_line;
  }
  ASSERT_GE(storm_line, 0);

  // The burst asserts at 1.0, 1.2, 1.4, ... 2.4 ms; stop it after three.
  system.RunFor(0.0015);
  const std::uint64_t asserts = pic.asserts(storm_line);
  EXPECT_EQ(asserts, 3u);
  ASSERT_EQ(injector.activation_count(), 1u);
  injector.Stop();
  system.RunFor(0.010);
  EXPECT_EQ(pic.asserts(storm_line), asserts);
  EXPECT_EQ(injector.activation_count(), 1u);
}

TEST(KsStatisticTest, IdenticalDistributionsScoreZero) {
  stats::LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.RecordUs(10.0 + i);
    b.RecordUs(10.0 + i);
  }
  EXPECT_EQ(stats::KsStatistic(a, b), 0.0);
}

TEST(KsStatisticTest, DisjointDistributionsScoreOne) {
  stats::LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.RecordUs(10.0);
    b.RecordUs(100000.0);
  }
  EXPECT_DOUBLE_EQ(stats::KsStatistic(a, b), 1.0);
}

TEST(KsStatisticTest, EmptyHistogramScoresZero) {
  stats::LatencyHistogram a, b;
  a.RecordUs(50.0);
  EXPECT_EQ(stats::KsStatistic(a, b), 0.0);
  EXPECT_EQ(stats::KsStatistic(b, a), 0.0);
}

TEST(KsStatisticTest, PartialShiftIsStrictlyBetweenZeroAndOne) {
  stats::LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.RecordUs(10.0);
    b.RecordUs(i < 50 ? 10.0 : 100000.0);
  }
  const double ks = stats::KsStatistic(a, b);
  EXPECT_GT(ks, 0.4);
  EXPECT_LT(ks, 0.6);
}

TEST(MttfSweepTest, GridHasExactStepCountWithoutFpDrift) {
  stats::LatencyHistogram latency;
  latency.RecordMs(5.0);
  // 1..64 ms in 0.25 ms steps: 253 points. Naive `for (b = lo; b <= hi;
  // b += step)` accumulates FP error and can drop the endpoint; the sweep
  // must be index-stepped.
  const auto points = analysis::MttfSweep(latency, 1.0, 64.0, 0.25);
  ASSERT_EQ(points.size(), 253u);
  EXPECT_DOUBLE_EQ(points.front().buffering_ms, 1.0);
  EXPECT_DOUBLE_EQ(points.back().buffering_ms, 64.0);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].buffering_ms, points[i - 1].buffering_ms);
  }
}

}  // namespace
}  // namespace wdmlat
