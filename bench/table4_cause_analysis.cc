// Reproduction of Table 4: "Thread Latency Cause Tool Output, Windows 98
// with Business Apps and the Default Sound Scheme."
//
// The cause tool hooks the PIT interrupt vector, samples what was executing
// (module+function) on every tick into a circular buffer, and dumps the
// buffer whenever the thread-latency tool reports a latency above the
// threshold. The paper's two sample episodes caught SysAudio topology
// processing and VMM contiguous-memory allocation red-handed; our Windows 98
// sound-scheme substrate injects exactly those code paths, so the episodes
// show the same culprits.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/drivers/cause_tool.h"
#include "src/drivers/latency_driver.h"
#include "src/fault/fault.h"
#include "src/fault/injector.h"
#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/lab/test_system.h"
#include "src/obs/anatomy.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace_fanout.h"
#include "src/workload/stress_load.h"

int main() {
  using namespace wdmlat;
  const double minutes = bench::MeasurementMinutes(10.0);
  std::printf(
      "Table 4 reproduction: latency cause tool episodes, Windows 98, Business\n"
      "Apps, default sound scheme. %.1f virtual minutes.\n\n",
      minutes);

  lab::TestSystemOptions options;
  options.sound_scheme = vmm98::SchemeKind::kDefault;
  lab::TestSystem system(kernel::MakeWin98Profile(), bench::BenchSeed(), options);

  drivers::LatencyDriver driver(system.kernel(), drivers::LatencyDriver::Config{});
  drivers::CauseTool::Config tool_config;
  tool_config.threshold_ms = 6.0;
  drivers::CauseTool tool(system.kernel(), driver, tool_config);

  // Flight recorder on the same threshold: its dispatcher-trace ground truth
  // scores the cause tool's IP-sampling attribution below.
  obs::EpisodeFlightRecorder::Config rec_config;
  rec_config.threshold_ms = tool_config.threshold_ms;
  kernel::TraceRing ring;
  obs::EpisodeFlightRecorder recorder(system.kernel(), ring, rec_config);

  workload::StressLoad load(system.deps(), workload::OfficeStress(), system.ForkRng());

  driver.Start();
  tool.Start();
  recorder.Arm(driver, &tool);
  system.kernel().dispatcher().set_trace_sink(&ring);
  load.Start();
  system.RunForMinutes(minutes);
  system.kernel().dispatcher().set_trace_sink(nullptr);

  std::printf("Hook samples taken: %llu; episodes above %.1f ms: %zu\n\n",
              static_cast<unsigned long long>(tool.hook_samples()), tool_config.threshold_ms,
              tool.episodes().size());
  std::fputs(tool.AnalysisReport(6).c_str(), stdout);
  std::printf(
      "Paper's episodes (for comparison):\n"
      "  episode 0: VMM!@KfLowerIrql(1), NTKERN!_ExpAllocatePool(1),\n"
      "             SYSAUDIO!_ProcessTopologyConnection(1), VMM!_mmCalcFrameBadness(2)\n"
      "  episode 1: SYSAUDIO!_ProcessTopologyConnection(1), VMM!_mmCalcFrameBadness(2),\n"
      "             VMM!_mmFindContig(2), KMIXER!unknown(1)\n");

  // Score the paper's methodology: does PIT-tick IP sampling finger the
  // module the dispatcher trace says actually consumed the episode?
  std::printf("\n%s", obs::RenderAttributionReport(recorder.Summaries()).c_str());
  const obs::AttributionScore emergent = obs::ScoreAttribution(recorder.Summaries());

  // Phase 2: injected ground truth. Phase 1's ground truth is *emergent* —
  // the dispatcher trace decides post hoc which module dominated each
  // episode. Here the tables turn: a fault plan drives FAULTINJ-labelled ISR
  // overruns long enough to trip the threshold on their own, so the
  // experimenter knows a priori who the culprit is, and the question becomes
  // how often the PIT-hook sampling catches the known aggressor red-handed.
  std::printf("\nInjected ground truth: FAULTINJ ISR overruns on the same cell\n");

  lab::TestSystem injected_system(kernel::MakeWin98Profile(), bench::BenchSeed(), options);
  drivers::LatencyDriver injected_driver(injected_system.kernel(),
                                         drivers::LatencyDriver::Config{});
  drivers::CauseTool injected_tool(injected_system.kernel(), injected_driver, tool_config);
  kernel::TraceRing injected_ring;
  obs::EpisodeFlightRecorder injected_recorder(injected_system.kernel(), injected_ring,
                                               rec_config);

  fault::FaultPlan plan;
  plan.name = "table4_injected";
  plan.seed = 0x7AB1E4;
  fault::FaultSpec overrun;
  overrun.kind = fault::FaultKind::kIsrOverrun;
  overrun.trigger = fault::TriggerKind::kPoisson;
  overrun.rate_per_s = 1.5;
  overrun.duration_us = sim::DurationDist::Uniform(7000.0, 15000.0);
  overrun.function = "_InjectedOverrun";
  plan.specs.push_back(overrun);

  fault::InjectorTargets targets;
  targets.kernel = &injected_system.kernel();
  targets.disk = &injected_system.disk_driver();
  fault::Injector injector(targets, plan, bench::BenchSeed());

  workload::StressLoad injected_load(injected_system.deps(), workload::OfficeStress(),
                                     injected_system.ForkRng());

  injected_driver.Start();
  injected_tool.Start();
  injected_recorder.Arm(injected_driver, &injected_tool);
  injected_system.kernel().dispatcher().set_trace_sink(&injected_ring);
  injector.Start();
  injected_load.Start();
  injected_system.RunForMinutes(minutes);
  injector.Stop();
  injected_system.kernel().dispatcher().set_trace_sink(nullptr);

  const obs::InjectedGroundTruthScore injected =
      obs::ScoreInjectedGroundTruth(injected_recorder.Summaries());
  std::printf(
      "  %llu activations; %llu episodes, %llu blamed on FAULTINJ (%.0f%%),\n"
      "  %llu attributed by the tool, %llu pinned on FAULTINJ: tool accuracy %.0f%%\n",
      static_cast<unsigned long long>(injector.activation_count()),
      static_cast<unsigned long long>(injected.episodes),
      static_cast<unsigned long long>(injected.injected_blamed),
      100.0 * injected.InjectedShare(),
      static_cast<unsigned long long>(injected.attributed),
      static_cast<unsigned long long>(injected.tool_agreed), 100.0 * injected.ToolAccuracy());
  std::printf(
      "  verdict: injected-ground-truth accuracy %.0f%% vs emergent baseline %.0f%% [%s]\n",
      100.0 * injected.ToolAccuracy(), 100.0 * emergent.ModuleAccuracy(),
      injected.ToolAccuracy() >= emergent.ModuleAccuracy() ? "ok" : "BELOW BASELINE");

  // Phase 3: Section 6.1 sampling sweep, graded against the causal anatomy.
  // The paper's planned enhancement replaces the maskable PIT hook with
  // performance-counter NMIs; the anatomy sink's exact critical-path culprit
  // (from the dispatcher trace, no sampling involved) is the referee. Each
  // sweep point re-runs the same cell with one sampler configuration, and
  // ScoreSamplingVsAnatomy counts how often the sampler's verdict matches
  // the exact culprit module.
  struct SweepPoint {
    const char* name;
    drivers::CauseTool::Sampling sampling;
    double nmi_period_ms;  // ignored by the PIT hook
  };
  const SweepPoint kSamplers[] = {
      {"pit-hook  (1 ms ticks)", drivers::CauseTool::Sampling::kPitHook, 0.0},
      {"nmi 0.50 ms", drivers::CauseTool::Sampling::kPerfCounterNmi, 0.5},
      {"nmi 0.20 ms", drivers::CauseTool::Sampling::kPerfCounterNmi, 0.2},
      {"nmi 0.05 ms", drivers::CauseTool::Sampling::kPerfCounterNmi, 0.05},
  };
  const double kThresholds[] = {2.0, 6.0};
  const double sweep_minutes = minutes / 2.0;

  std::printf(
      "\nSampling sweep vs anatomy ground truth (%.1f virtual minutes per point):\n"
      "  %-24s %-9s %-9s %-11s %-9s %s\n",
      sweep_minutes, "sampler", "thresh", "episodes", "attributed", "matches",
      "accuracy");
  for (const SweepPoint& point : kSamplers) {
    for (const double threshold_ms : kThresholds) {
      lab::TestSystem sweep_system(kernel::MakeWin98Profile(), bench::BenchSeed(), options);
      drivers::LatencyDriver sweep_driver(sweep_system.kernel(),
                                          drivers::LatencyDriver::Config{});
      drivers::CauseTool::Config sweep_config;
      sweep_config.threshold_ms = threshold_ms;
      sweep_config.sampling = point.sampling;
      if (point.nmi_period_ms > 0.0) {
        sweep_config.nmi_period_ms = point.nmi_period_ms;
      }
      drivers::CauseTool sweep_tool(sweep_system.kernel(), sweep_driver, sweep_config);
      obs::EpisodeFlightRecorder::Config sweep_rec_config;
      sweep_rec_config.threshold_ms = threshold_ms;
      kernel::TraceRing sweep_ring;
      obs::EpisodeFlightRecorder sweep_recorder(sweep_system.kernel(), sweep_ring,
                                                sweep_rec_config);
      obs::LatencyAnatomy::Config anatomy_config;
      anatomy_config.max_episodes = 256;
      obs::LatencyAnatomy anatomy(anatomy_config);

      workload::StressLoad sweep_load(sweep_system.deps(), workload::OfficeStress(),
                                      sweep_system.ForkRng());

      sweep_driver.Start();
      sweep_tool.Start();
      sweep_recorder.Arm(sweep_driver, &sweep_tool);
      // Registered after the tool and recorder so anatomy records pair with
      // the recorder's summaries by index (the lab wiring's contract).
      sweep_driver.AddLongLatencyCallback(threshold_ms, [&anatomy, &sweep_driver](double ms) {
        const drivers::LatencyDriver::SampleStamps& stamps = sweep_driver.last_stamps();
        anatomy.OnEpisode(ms, stamps.dpc_tsc, stamps.thread_tsc);
      });
      obs::TraceFanout fanout;
      fanout.Add(&sweep_ring);
      fanout.Add(&anatomy);
      sweep_system.kernel().dispatcher().set_trace_sink(&fanout);
      sweep_load.Start();
      sweep_system.RunForMinutes(sweep_minutes);
      sweep_system.kernel().dispatcher().set_trace_sink(nullptr);

      const obs::AnatomyAgreement agreement =
          obs::ScoreSamplingVsAnatomy(sweep_recorder.Summaries(), anatomy.episodes());
      std::printf("  %-24s %5.1f ms %-9llu %-11llu %-9llu %.0f%%\n", point.name,
                  threshold_ms, static_cast<unsigned long long>(agreement.episodes),
                  static_cast<unsigned long long>(agreement.attributed),
                  static_cast<unsigned long long>(agreement.culprit_matches),
                  100.0 * agreement.Accuracy());
    }
  }

  // Phase 4: the same sampler sweep graded against *injected* ground truth.
  // Phase 3's referee is the anatomy sink (exact, but itself a model); here
  // the FAULTINJ plan from phase 2 names the culprit a priori, so every
  // sweep point answers the operational question directly — at this sampler
  // rate and threshold, how often does the tool catch a known aggressor?
  // The grid lands in a small CSV (WDMLAT_CSV, default
  // table4_sampling_sweep.csv) for the EXPERIMENTS.md plotting recipe.
  const char* csv_path = std::getenv("WDMLAT_CSV");
  if (csv_path == nullptr || csv_path[0] == '\0') {
    csv_path = "table4_sampling_sweep.csv";
  }
  std::FILE* csv = std::fopen(csv_path, "w");
  if (csv == nullptr) {
    std::fprintf(stderr, "table4: cannot open %s for writing\n", csv_path);
    return 1;
  }
  std::fprintf(csv,
               "sampler,nmi_period_ms,threshold_ms,activations,episodes,"
               "injected_blamed,attributed,tool_agreed,injected_share,"
               "tool_accuracy\n");
  std::printf(
      "\nSampling sweep vs injected ground truth (%.1f virtual minutes per point):\n"
      "  %-24s %-9s %-9s %-11s %-9s %s\n",
      sweep_minutes, "sampler", "thresh", "episodes", "attributed", "agreed",
      "accuracy");
  for (const SweepPoint& point : kSamplers) {
    for (const double threshold_ms : kThresholds) {
      lab::TestSystem sweep_system(kernel::MakeWin98Profile(), bench::BenchSeed(), options);
      drivers::LatencyDriver sweep_driver(sweep_system.kernel(),
                                          drivers::LatencyDriver::Config{});
      drivers::CauseTool::Config sweep_config;
      sweep_config.threshold_ms = threshold_ms;
      sweep_config.sampling = point.sampling;
      if (point.nmi_period_ms > 0.0) {
        sweep_config.nmi_period_ms = point.nmi_period_ms;
      }
      drivers::CauseTool sweep_tool(sweep_system.kernel(), sweep_driver, sweep_config);
      obs::EpisodeFlightRecorder::Config sweep_rec_config;
      sweep_rec_config.threshold_ms = threshold_ms;
      kernel::TraceRing sweep_ring;
      obs::EpisodeFlightRecorder sweep_recorder(sweep_system.kernel(), sweep_ring,
                                                sweep_rec_config);

      fault::InjectorTargets sweep_targets;
      sweep_targets.kernel = &sweep_system.kernel();
      sweep_targets.disk = &sweep_system.disk_driver();
      fault::Injector sweep_injector(sweep_targets, plan, bench::BenchSeed());

      workload::StressLoad sweep_load(sweep_system.deps(), workload::OfficeStress(),
                                      sweep_system.ForkRng());

      sweep_driver.Start();
      sweep_tool.Start();
      sweep_recorder.Arm(sweep_driver, &sweep_tool);
      sweep_system.kernel().dispatcher().set_trace_sink(&sweep_ring);
      sweep_injector.Start();
      sweep_load.Start();
      sweep_system.RunForMinutes(sweep_minutes);
      sweep_injector.Stop();
      sweep_system.kernel().dispatcher().set_trace_sink(nullptr);

      const obs::InjectedGroundTruthScore score =
          obs::ScoreInjectedGroundTruth(sweep_recorder.Summaries());
      std::printf("  %-24s %5.1f ms %-9llu %-11llu %-9llu %.0f%%\n", point.name,
                  threshold_ms, static_cast<unsigned long long>(score.episodes),
                  static_cast<unsigned long long>(score.attributed),
                  static_cast<unsigned long long>(score.tool_agreed),
                  100.0 * score.ToolAccuracy());
      std::fprintf(csv, "%s,%.3f,%.3f,%llu,%llu,%llu,%llu,%llu,%.6f,%.6f\n",
                   point.sampling == drivers::CauseTool::Sampling::kPitHook ? "pit_hook"
                                                                            : "nmi",
                   point.nmi_period_ms, threshold_ms,
                   static_cast<unsigned long long>(sweep_injector.activation_count()),
                   static_cast<unsigned long long>(score.episodes),
                   static_cast<unsigned long long>(score.injected_blamed),
                   static_cast<unsigned long long>(score.attributed),
                   static_cast<unsigned long long>(score.tool_agreed),
                   score.InjectedShare(), score.ToolAccuracy());
    }
  }
  std::fclose(csv);
  std::printf("\nSweep grid written to %s\n", csv_path);
  return 0;
}
