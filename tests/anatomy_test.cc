// LatencyAnatomy: exact integer-cycle conservation of the stage partition,
// index pairing with the flight recorder's episodes, and the sampling-vs-
// anatomy grading used by the Table-4 sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/kernel/label.h"
#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/lab/lab.h"
#include "src/obs/anatomy.h"
#include "src/obs/flight_recorder.h"
#include "src/workload/stress_profile.h"

namespace wdmlat {
namespace {

lab::LabReport RunWithAnatomy(kernel::KernelProfile profile, double threshold_us) {
  lab::LabConfig config;
  config.os = std::move(profile);
  config.stress = workload::GamesStress();
  config.stress_minutes = 0.2;
  config.warmup_seconds = 1.0;
  config.seed = 1999;
  config.obs.episode_threshold_us = threshold_us;
  config.obs.anatomy = true;
  return lab::RunLatencyExperiment(config);
}

// The tentpole invariant: stage cycles sum *exactly* — integer cycles, no
// epsilon — to the episode's measurement window. The spans partition the
// timeline by construction and the window edges coincide with span
// boundaries, so any off-by-one here means the mirror lost a transition.
void ExpectExactConservation(const lab::LabReport& report) {
  ASSERT_FALSE(report.anatomy.empty());
  for (const obs::AnatomyEpisode& episode : report.anatomy) {
    ASSERT_FALSE(episode.truncated);
    ASSERT_GE(episode.window_end, episode.window_begin);
    sim::Cycles total = 0;
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      total += episode.stage_cycles[s];
      // Per-stage blame can never exceed the stage it blames.
      EXPECT_LE(episode.stage_blame[s].cycles, episode.stage_cycles[s]);
      // An empty stage must not carry a blame label.
      if (episode.stage_cycles[s] == 0) {
        EXPECT_TRUE(episode.stage_blame[s].module.empty());
      }
    }
    EXPECT_EQ(total, episode.window_end - episode.window_begin)
        << "stage partition leaked cycles for the episode at latency "
        << episode.latency_ms << " ms";
    EXPECT_GT(episode.latency_ms, 0.0);
  }
}

TEST(AnatomyTest, Win98StagesConserveEveryCycle) {
  ExpectExactConservation(RunWithAnatomy(kernel::MakeWin98Profile(), 500.0));
}

TEST(AnatomyTest, Nt4StagesConserveEveryCycle) {
  ExpectExactConservation(RunWithAnatomy(kernel::MakeNt4Profile(), 200.0));
}

TEST(AnatomyTest, Nt4Smp2StagesConserveEveryCycle) {
  ExpectExactConservation(RunWithAnatomy(kernel::MakeNt4SmpProfile(2), 200.0));
}

TEST(AnatomyTest, AnatomyPairsWithFlightRecorderEpisodesByIndex) {
  const lab::LabReport report = RunWithAnatomy(kernel::MakeWin98Profile(), 500.0);
  // Both record in driver-callback order from the same threshold; up to the
  // two caps they must agree one-to-one, and each pair must describe the
  // same latency.
  ASSERT_FALSE(report.episodes.empty());
  const std::size_t pairs = std::min(report.episodes.size(), report.anatomy.size());
  ASSERT_GT(pairs, 0u);
  for (std::size_t i = 0; i < pairs; ++i) {
    EXPECT_DOUBLE_EQ(report.episodes[i].latency_ms, report.anatomy[i].latency_ms)
        << "episode " << i;
  }
}

TEST(AnatomyTest, CulpritComesFromCulpableStages) {
  const lab::LabReport report = RunWithAnatomy(kernel::MakeWin98Profile(), 500.0);
  ASSERT_FALSE(report.anatomy.empty());
  for (const obs::AnatomyEpisode& episode : report.anatomy) {
    if (episode.culprit.module.empty()) {
      continue;  // legal when the window is pure ready_wait/thread_run
    }
    // The culprit's cycle count can never exceed the culpable stages' total
    // (everything except ready_wait and thread_run).
    sim::Cycles culpable = 0;
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      const auto stage = static_cast<obs::AnatomyStage>(s);
      if (stage != obs::AnatomyStage::kReadyWait && stage != obs::AnatomyStage::kThreadRun) {
        culpable += episode.stage_cycles[s];
      }
    }
    EXPECT_LE(episode.culprit.cycles, culpable);
    EXPECT_GT(episode.culprit.cycles, 0u);
  }
}

TEST(AnatomyTest, ScoreSamplingVsAnatomyCountsMatches) {
  const lab::LabReport report = RunWithAnatomy(kernel::MakeWin98Profile(), 500.0);
  const obs::AnatomyAgreement agreement =
      obs::ScoreSamplingVsAnatomy(report.episodes, report.anatomy);
  EXPECT_EQ(agreement.episodes, std::min(report.episodes.size(), report.anatomy.size()));
  EXPECT_LE(agreement.attributed, agreement.episodes);
  EXPECT_LE(agreement.culprit_matches, agreement.attributed);
  EXPECT_GE(agreement.Accuracy(), 0.0);
  EXPECT_LE(agreement.Accuracy(), 1.0);
}

TEST(AnatomyTest, MaxEpisodesCapIsRespected) {
  obs::LatencyAnatomy::Config config;
  config.max_episodes = 2;
  obs::LatencyAnatomy anatomy(config);
  // No trace events at all: the decomposition degenerates to one ready_wait
  // span per episode, which still conserves exactly.
  anatomy.OnEpisode(1.0, 1000, 2000);
  anatomy.OnEpisode(2.0, 3000, 5000);
  anatomy.OnEpisode(3.0, 6000, 7000);  // beyond the cap: dropped
  ASSERT_EQ(anatomy.episodes().size(), 2u);
  EXPECT_DOUBLE_EQ(anatomy.episodes()[1].latency_ms, 2.0);
}

// --- Synthetic trace streams ------------------------------------------------

void Feed(obs::LatencyAnatomy& anatomy, kernel::TraceEventType type, sim::Cycles tsc,
          kernel::Label label = {}, sim::Cycles duration = 0) {
  kernel::TraceEvent event;
  event.type = type;
  event.tsc = tsc;
  event.label = label;
  event.duration = duration;
  anatomy.OnTraceEvent(event);
}

constexpr kernel::Label kIsr{"ISRMOD", "_isr"};
constexpr kernel::Label kDpc{"DPCMOD", "_dpc"};
constexpr kernel::Label kThread{"THRMOD", "_thread"};
constexpr sim::Cycles kPeriod = 1000;

// One period of a synthetic cycle starting at `t`: trap dispatch 50, ISR
// body 150, DPC fetch 50, DPC body 150, context switch 50, thread body 450,
// idle 100 — seven spans.
void FeedPeriod(obs::LatencyAnatomy& anatomy, sim::Cycles t) {
  using kernel::TraceEventType;
  Feed(anatomy, TraceEventType::kIsrAccept, t, kIsr);
  Feed(anatomy, TraceEventType::kIsrEnter, t + 50, kIsr);
  Feed(anatomy, TraceEventType::kIsrExit, t + 200, kIsr, 150);
  Feed(anatomy, TraceEventType::kDpcFetch, t + 200, kDpc);
  Feed(anatomy, TraceEventType::kDpcStart, t + 250, kDpc, 250);
  Feed(anatomy, TraceEventType::kDpcEnd, t + 400, kDpc, 150);
  Feed(anatomy, TraceEventType::kContextSwitch, t + 400);
  Feed(anatomy, TraceEventType::kThreadRun, t + 450, kThread, 50);
  Feed(anatomy, TraceEventType::kThreadStop, t + 900, kThread);
}

sim::Cycles Stage(const obs::AnatomyEpisode& episode, obs::AnatomyStage stage) {
  return episode.stage_cycles[static_cast<std::size_t>(stage)];
}

sim::Cycles StageSum(const obs::AnatomyEpisode& episode) {
  sim::Cycles total = 0;
  for (const sim::Cycles cycles : episode.stage_cycles) {
    total += cycles;
  }
  return total;
}

// A retention window of a few periods (and one of a few hundred) over
// 20,000 periods: the span storage trims and reuses its blocks thousands of
// times. After every period, an episode covering the last two and a bit
// periods still conserves every cycle; one from long before the window
// comes back truncated.
TEST(AnatomyTest, TrimmedStorageConservesInWindowAndTruncatesOlder) {
  constexpr sim::Cycles kPeriods = 20000;
  for (const double retention_ms : {0.01, 1.0}) {
    SCOPED_TRACE(retention_ms);
    obs::LatencyAnatomy::Config config;
    config.retention_ms = retention_ms;
    config.max_episodes = kPeriods;
    obs::LatencyAnatomy anatomy(config);
    for (sim::Cycles k = 1; k <= kPeriods; ++k) {
      FeedPeriod(anatomy, k * kPeriod);
      if (k >= 3) {
        // From two periods back's DPC body to this period's thread start,
        // inside even the 3000-cycle retention.
        anatomy.OnEpisode(0.2, (k - 2) * kPeriod + 250, k * kPeriod + 450);
      }
    }
    // The last period alone: the driver's window shape.
    const sim::Cycles last = kPeriods * kPeriod;
    anatomy.OnEpisode(0.1, last + 250, last + 450);
    // Long gone.
    anatomy.OnEpisode(0.3, 5 * kPeriod + 250, 5 * kPeriod + 450);
    const auto& episodes = anatomy.episodes();
    ASSERT_EQ(episodes.size(), kPeriods);

    for (std::size_t i = 0; i + 2 < episodes.size(); ++i) {
      const obs::AnatomyEpisode& episode = episodes[i];
      ASSERT_FALSE(episode.truncated) << "episode " << i;
      ASSERT_EQ(StageSum(episode), 2 * kPeriod + 200) << "episode " << i;
      ASSERT_EQ(Stage(episode, obs::AnatomyStage::kIsrDispatch), 100u) << "episode " << i;
      ASSERT_EQ(Stage(episode, obs::AnatomyStage::kMaskedWindow), 300u) << "episode " << i;
      ASSERT_EQ(Stage(episode, obs::AnatomyStage::kDpcQueueWait), 100u) << "episode " << i;
      ASSERT_EQ(Stage(episode, obs::AnatomyStage::kDpcRun), 450u) << "episode " << i;
      ASSERT_EQ(Stage(episode, obs::AnatomyStage::kReadyWait), 350u) << "episode " << i;
      ASSERT_EQ(Stage(episode, obs::AnatomyStage::kThreadRun), 900u) << "episode " << i;
    }
    EXPECT_EQ(episodes.front().culprit.module, std::string("DPCMOD"));

    const obs::AnatomyEpisode& one = episodes[episodes.size() - 2];
    EXPECT_FALSE(one.truncated);
    EXPECT_EQ(StageSum(one), 200u);
    EXPECT_EQ(Stage(one, obs::AnatomyStage::kDpcRun), 150u);
    EXPECT_EQ(Stage(one, obs::AnatomyStage::kReadyWait), 50u);

    const obs::AnatomyEpisode& old = episodes.back();
    EXPECT_TRUE(old.truncated);
    EXPECT_LT(StageSum(old), 200u);
  }
}

// SMP spin and IPI windows arrive after the idle time they explain and
// relabel it in place: a ready_wait span splits into head, mid and tail
// (or, when the window starts at the span, into mid and tail). The split
// span here is followed by an ISR and more idle time, so the pieces go in
// mid-timeline, and a later relabel of that trailing idle time must still
// find it. Every cycle stays accounted for.
TEST(AnatomyTest, SmpRelabelSplitsReadyWaitAndConserves) {
  using kernel::TraceEventType;
  obs::LatencyAnatomy anatomy;
  // Idle [0, 2000), an interrupt (trap dispatch 50, body 150), idle to 3000.
  Feed(anatomy, TraceEventType::kIsrAccept, 2000, kIsr);
  Feed(anatomy, TraceEventType::kIsrEnter, 2050, kIsr);
  Feed(anatomy, TraceEventType::kIsrExit, 2200, kIsr, 150);
  Feed(anatomy, TraceEventType::kThreadReady, 3000);

  // An IPI whose flight [500, 1500) lies inside the first idle span: head,
  // mid, tail.
  Feed(anatomy, TraceEventType::kIpi, 1500, kernel::kIpiLabel, 1000);
  anatomy.OnEpisode(1.0, 0, 3000);
  // A spin [1600, 1800) inside the tail: the tail splits again.
  Feed(anatomy, TraceEventType::kSpinlockWait, 1800, kernel::kSpinlockLabel, 200);
  anatomy.OnEpisode(2.0, 0, 3000);
  // A spin [1800, 1900) starting where the remaining tail starts: no head.
  Feed(anatomy, TraceEventType::kSpinlockWait, 1900, kernel::kSpinlockLabel, 100);
  anatomy.OnEpisode(3.0, 0, 3000);
  // A spin [2300, 2500) in the idle time after the interrupt.
  Feed(anatomy, TraceEventType::kSpinlockWait, 2500, kernel::kSpinlockLabel, 200);
  anatomy.OnEpisode(4.0, 0, 3000);
  // A window of just the relabelled IPI flight.
  anatomy.OnEpisode(5.0, 500, 1500);

  const auto& episodes = anatomy.episodes();
  ASSERT_EQ(episodes.size(), 5u);
  const sim::Cycles expected[5][5] = {
      // ready_wait, ipi_latency, spinlock_wait, isr_dispatch, masked_window
      {1800, 1000, 0, 50, 150},
      {1600, 1000, 200, 50, 150},
      {1500, 1000, 300, 50, 150},
      {1300, 1000, 500, 50, 150},
      {0, 1000, 0, 0, 0},
  };
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    SCOPED_TRACE(i);
    const obs::AnatomyEpisode& episode = episodes[i];
    EXPECT_FALSE(episode.truncated);
    EXPECT_EQ(StageSum(episode), episode.window_end - episode.window_begin);
    EXPECT_EQ(Stage(episode, obs::AnatomyStage::kReadyWait), expected[i][0]);
    EXPECT_EQ(Stage(episode, obs::AnatomyStage::kIpiLatency), expected[i][1]);
    EXPECT_EQ(Stage(episode, obs::AnatomyStage::kSpinlockWait), expected[i][2]);
    EXPECT_EQ(Stage(episode, obs::AnatomyStage::kIsrDispatch), expected[i][3]);
    EXPECT_EQ(Stage(episode, obs::AnatomyStage::kMaskedWindow), expected[i][4]);
  }
  EXPECT_EQ(episodes[0].culprit.function, std::string(kernel::kIpiLabel.function));
  EXPECT_EQ(
      episodes[3].stage_blame[static_cast<std::size_t>(obs::AnatomyStage::kSpinlockWait)].function,
      std::string(kernel::kSpinlockLabel.function));
}

}  // namespace
}  // namespace wdmlat
