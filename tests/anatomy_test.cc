// LatencyAnatomy: exact integer-cycle conservation of the stage partition,
// index pairing with the flight recorder's episodes, and the sampling-vs-
// anatomy grading used by the Table-4 sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "src/kernel/label.h"
#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/lab/lab.h"
#include "src/obs/anatomy.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/time.h"
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

// --- Block trimming against an eager reference -------------------------------

// The anatomy's mirror with the simplest possible storage: a deque trimmed
// span by span after every event (after the close, and after an SMP
// relabel), so it holds exactly the spans whose end + retention reaches the
// last event's time. LatencyAnatomy retires whole blocks instead and skips
// the aged spans when it reads; every episode must come out the same.
class EagerTrimAnatomy {
 public:
  explicit EagerTrimAnatomy(sim::Cycles retention) : retention_(retention) {}

  void OnTraceEvent(const kernel::TraceEvent& event) {
    using kernel::TraceEventType;
    if (event.core != 0) {
      return;
    }
    Close(event.tsc);
    const sim::Cycles from = event.duration > event.tsc ? 0 : event.tsc - event.duration;
    switch (event.type) {
      case TraceEventType::kIsrAccept:
        stack_.push_back(Frame{true, event.label});
        break;
      case TraceEventType::kIsrEnter:
        if (stack_.empty()) {
          stack_.push_back(Frame{false, event.label});
        } else {
          stack_.back() = Frame{false, event.label};
        }
        break;
      case TraceEventType::kSectionStart:
        stack_.push_back(Frame{false, event.label});
        break;
      case TraceEventType::kIsrExit:
      case TraceEventType::kSectionEnd:
        if (!stack_.empty()) {
          stack_.pop_back();
        }
        break;
      case TraceEventType::kDpcFetch:
      case TraceEventType::kDpcStart:
        dpc_ = event.type == TraceEventType::kDpcFetch ? 1 : 2;
        dpc_label_ = event.label;
        break;
      case TraceEventType::kDpcEnd:
        dpc_ = 0;
        break;
      case TraceEventType::kContextSwitch:
        thread_ = 1;
        thread_label_ = kernel::kDispatcherLabel;
        break;
      case TraceEventType::kThreadRun:
        thread_ = 2;
        thread_label_ = event.label;
        break;
      case TraceEventType::kThreadStop:
        thread_ = 0;
        break;
      case TraceEventType::kDispatchLockout:
        if (event.tsc + event.duration > lock_until_) {
          lock_until_ = event.tsc + event.duration;
          lock_label_ = event.label;
        }
        break;
      case TraceEventType::kSpinlockWait:
        Relabel(from, event.tsc, obs::AnatomyStage::kSpinlockWait, event.label);
        break;
      case TraceEventType::kIpi:
        Relabel(from, event.tsc, obs::AnatomyStage::kIpiLatency, event.label);
        break;
      default:
        break;
    }
  }

  obs::AnatomyEpisode Episode(sim::Cycles begin, sim::Cycles end) const {
    obs::AnatomyEpisode episode;
    struct Entry {
      obs::AnatomyStage stage;
      kernel::Label label;
      sim::Cycles cycles;
    };
    std::vector<Entry> entries;
    const auto add = [&](obs::AnatomyStage stage, kernel::Label label, sim::Cycles cycles) {
      if (cycles == 0) {
        return;
      }
      episode.stage_cycles[static_cast<std::size_t>(stage)] += cycles;
      for (Entry& entry : entries) {
        if (entry.stage == stage && entry.label == label) {
          entry.cycles += cycles;
          return;
        }
      }
      entries.push_back(Entry{stage, label, cycles});
    };
    for (const Span& span : spans_) {
      if (span.end > begin && span.begin < end) {
        add(span.stage, span.label, std::min(span.end, end) - std::max(span.begin, begin));
      }
    }
    if (cur_ < end) {
      const sim::Cycles from = std::max(cur_, begin);
      if (Idle() && lock_until_ > from && lock_until_ < end) {
        add(obs::AnatomyStage::kLockout, lock_label_, lock_until_ - from);
        add(obs::AnatomyStage::kReadyWait, kernel::kIdleLabel, end - lock_until_);
      } else {
        const Span open = Classify(from, end);
        add(open.stage, open.label, end - from);
      }
    }
    episode.truncated = (spans_.empty() ? cur_ : spans_.front().begin) > begin;
    std::vector<Entry> culprits;
    for (const Entry& entry : entries) {
      auto& blame = episode.stage_blame[static_cast<std::size_t>(entry.stage)];
      if (entry.cycles > blame.cycles) {
        blame = {entry.label.module, entry.label.function, entry.cycles};
      }
      if (entry.stage == obs::AnatomyStage::kReadyWait ||
          entry.stage == obs::AnatomyStage::kThreadRun) {
        continue;
      }
      auto it = std::find_if(culprits.begin(), culprits.end(),
                             [&](const Entry& c) { return c.label == entry.label; });
      if (it == culprits.end()) {
        culprits.push_back(entry);
      } else {
        it->cycles += entry.cycles;
      }
    }
    for (const Entry& culprit : culprits) {
      if (culprit.cycles > episode.culprit.cycles) {
        episode.culprit = {culprit.label.module, culprit.label.function, culprit.cycles};
      }
    }
    return episode;
  }

 private:
  struct Span {
    sim::Cycles begin;
    sim::Cycles end;
    obs::AnatomyStage stage;
    kernel::Label label;
  };
  struct Frame {
    bool dispatch;
    kernel::Label label;
  };

  bool Idle() const { return stack_.empty() && dpc_ == 0 && thread_ == 0; }

  Span Classify(sim::Cycles begin, sim::Cycles end) const {
    using obs::AnatomyStage;
    if (!stack_.empty()) {
      return {begin, end,
              stack_.back().dispatch ? AnatomyStage::kIsrDispatch : AnatomyStage::kMaskedWindow,
              stack_.back().label};
    }
    if (dpc_ != 0) {
      return {begin, end, dpc_ == 1 ? AnatomyStage::kDpcQueueWait : AnatomyStage::kDpcRun,
              dpc_label_};
    }
    if (thread_ != 0) {
      return {begin, end, thread_ == 1 ? AnatomyStage::kReadyWait : AnatomyStage::kThreadRun,
              thread_label_};
    }
    if (begin < lock_until_) {
      return {begin, end, AnatomyStage::kLockout, lock_label_};
    }
    return {begin, end, AnatomyStage::kReadyWait, kernel::kIdleLabel};
  }

  void Append(const Span& span) {
    if (span.end <= span.begin) {
      return;
    }
    if (!spans_.empty() && spans_.back().end == span.begin &&
        spans_.back().stage == span.stage && spans_.back().label == span.label) {
      spans_.back().end = span.end;
      return;
    }
    spans_.push_back(span);
  }

  void Trim() {
    while (!spans_.empty() && spans_.front().end + retention_ < cur_) {
      spans_.pop_front();
    }
  }

  void Close(sim::Cycles now) {
    if (now <= cur_) {
      return;
    }
    if (Idle() && lock_until_ > cur_ && lock_until_ < now) {
      Append({cur_, lock_until_, obs::AnatomyStage::kLockout, lock_label_});
      Append({lock_until_, now, obs::AnatomyStage::kReadyWait, kernel::kIdleLabel});
    } else {
      Append(Classify(cur_, now));
    }
    cur_ = now;
    Trim();
  }

  void Relabel(sim::Cycles from, sim::Cycles to, obs::AnatomyStage stage, kernel::Label label) {
    for (std::size_t i = spans_.size(); i-- > 0 && from < to;) {
      const Span span = spans_[i];
      if (span.end <= from) {
        break;
      }
      const sim::Cycles lo = std::max(span.begin, from);
      const sim::Cycles hi = std::min(span.end, to);
      if (hi <= lo || (span.stage != obs::AnatomyStage::kReadyWait &&
                       span.stage != obs::AnatomyStage::kLockout)) {
        continue;
      }
      // Replace the span by its non-empty pieces: head, relabelled middle, tail.
      std::vector<Span> pieces;
      if (lo > span.begin) {
        pieces.push_back({span.begin, lo, span.stage, span.label});
      }
      pieces.push_back({lo, hi, stage, label});
      if (span.end > hi) {
        pieces.push_back({hi, span.end, span.stage, span.label});
      }
      spans_.erase(spans_.begin() + static_cast<std::ptrdiff_t>(i));
      spans_.insert(spans_.begin() + static_cast<std::ptrdiff_t>(i), pieces.begin(),
                    pieces.end());
    }
    Trim();  // a head piece can end before the retention window
  }

  sim::Cycles retention_;
  std::vector<Frame> stack_;
  int dpc_ = 0;     // 1 fetch, 2 body
  int thread_ = 0;  // 1 switch, 2 run
  kernel::Label dpc_label_;
  kernel::Label thread_label_;
  sim::Cycles lock_until_ = 0;
  kernel::Label lock_label_;
  sim::Cycles cur_ = 0;
  std::deque<Span> spans_;
};

void ExpectSameEpisode(const obs::AnatomyEpisode& got, const obs::AnatomyEpisode& want) {
  EXPECT_EQ(got.truncated, want.truncated);
  for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
    SCOPED_TRACE(obs::AnatomyStageName(static_cast<obs::AnatomyStage>(s)));
    EXPECT_EQ(got.stage_cycles[s], want.stage_cycles[s]);
    EXPECT_EQ(got.stage_blame[s].module, want.stage_blame[s].module);
    EXPECT_EQ(got.stage_blame[s].function, want.stage_blame[s].function);
    EXPECT_EQ(got.stage_blame[s].cycles, want.stage_blame[s].cycles);
  }
  EXPECT_EQ(got.culprit.module, want.culprit.module);
  EXPECT_EQ(got.culprit.function, want.culprit.function);
  EXPECT_EQ(got.culprit.cycles, want.culprit.cycles);
}

// Seeded random streams, uniprocessor and with SMP spin/IPI relabels (some
// reaching back past the retention window), over a retention of a few
// hundred spans: the storage retires dozens of 256-span blocks. Episodes
// fall inside the window, straddle its start or end before it; each must
// match the eager reference exactly, truncation included.
TEST(AnatomyTest, BlockTrimMatchesEagerTrim) {
  using kernel::TraceEventType;
  constexpr sim::Cycles kRetention = 60000;  // 0.2 ms: some 200-300 spans
  constexpr int kEvents = 40000;
  static constexpr kernel::Label kLabels[] = {
      {"ISRMOD", "_isr"}, {"DPCMOD", "_dpc"}, {"THRMOD", "_thread"}, {"VXD", "_lock"}};
  static constexpr TraceEventType kUpTypes[] = {
      TraceEventType::kIsrAccept,      TraceEventType::kIsrEnter,
      TraceEventType::kIsrExit,        TraceEventType::kSectionStart,
      TraceEventType::kSectionEnd,     TraceEventType::kDpcFetch,
      TraceEventType::kDpcStart,       TraceEventType::kDpcEnd,
      TraceEventType::kContextSwitch,  TraceEventType::kThreadRun,
      TraceEventType::kThreadStop,     TraceEventType::kThreadReady,
      TraceEventType::kDispatchLockout};
  for (const bool smp : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(smp ? "smp" : "up") + " seed " + std::to_string(seed));
      std::mt19937_64 rng(seed);
      const auto below = [&rng](std::uint64_t n) { return rng() % n; };
      obs::LatencyAnatomy::Config config;
      config.retention_ms = sim::CyclesToMs(kRetention);
      config.max_episodes = kEvents;
      ASSERT_EQ(sim::MsToCycles(config.retention_ms), kRetention);
      obs::LatencyAnatomy anatomy(config);
      EagerTrimAnatomy reference(kRetention);
      std::vector<obs::AnatomyEpisode> expected;
      int inside = 0;
      int straddling = 0;
      int before = 0;
      sim::Cycles now = 0;
      for (int n = 0; n < kEvents; ++n) {
        // Mostly short spans, some idle gaps, a few events at the same time.
        const std::uint64_t step = below(50);
        now += step == 0 ? 0 : step == 1 ? 500 + below(3000) : 1 + below(80);
        kernel::TraceEvent event;
        event.tsc = now;
        event.label = kLabels[below(4)];
        event.core = below(40) == 0 ? 1 : 0;
        if (smp && below(6) == 0) {
          event.type = below(2) == 0 ? TraceEventType::kSpinlockWait : TraceEventType::kIpi;
          event.duration = below(8) == 0 ? below(2 * kRetention) : below(400);
        } else {
          event.type = kUpTypes[below(std::size(kUpTypes))];
          event.duration = event.type == TraceEventType::kDispatchLockout ? below(600) : 0;
        }
        anatomy.OnTraceEvent(event);
        reference.OnTraceEvent(event);
        if (below(8) != 0 || now < 4 * kRetention) {
          continue;
        }
        // A window ending up to two retentions before now (or just after it:
        // the open span), spanning up to two.
        const sim::Cycles end = now + 50 - below(2 * kRetention);
        const sim::Cycles begin = end - 1 - below(2 * kRetention);
        const sim::Cycles front = now - kRetention;
        (end <= front ? before : begin < front ? straddling : inside) += 1;
        anatomy.OnEpisode(0.0, begin, end);
        expected.push_back(reference.Episode(begin, end));
      }
      EXPECT_GT(inside, 100);
      EXPECT_GT(straddling, 100);
      EXPECT_GT(before, 100);
      const auto& episodes = anatomy.episodes();
      ASSERT_EQ(episodes.size(), expected.size());
      int truncated = 0;
      for (std::size_t i = 0; i < episodes.size(); ++i) {
        SCOPED_TRACE("episode " + std::to_string(i));
        ExpectSameEpisode(episodes[i], expected[i]);
        truncated += expected[i].truncated ? 1 : 0;
        if (::testing::Test::HasFailure()) {
          return;
        }
      }
      EXPECT_GT(truncated, 0);
      EXPECT_LT(truncated, static_cast<int>(episodes.size()));
    }
  }
}

// The one place block trimming reads differently from a trim done only when
// an event closes a span: an SMP relabel that splits a retained idle span
// can leave a head piece that already ends before the retention window.
// That piece is aged the moment it exists, so no episode sees it: a window
// reaching back into it comes back truncated, and the covered part starts
// at the relabelled piece.
TEST(AnatomyTest, RelabelHeadBeforeTheWindowIsAgedAtOnce) {
  using kernel::TraceEventType;
  obs::LatencyAnatomy::Config config;
  config.retention_ms = sim::CyclesToMs(1000);
  obs::LatencyAnatomy anatomy(config);
  // Idle [0, 5000): one span. A spin [2000, 5000) reported at 5000 splits it
  // into a head [0, 2000), which ends more than 1000 cycles before 5000,
  // and the relabelled [2000, 5000).
  Feed(anatomy, TraceEventType::kSpinlockWait, 5000, kernel::kSpinlockLabel, 3000);
  anatomy.OnEpisode(1.0, 1500, 5000);
  anatomy.OnEpisode(2.0, 2500, 5000);
  const auto& episodes = anatomy.episodes();
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_TRUE(episodes[0].truncated);
  EXPECT_EQ(StageSum(episodes[0]), 3000u);
  EXPECT_EQ(Stage(episodes[0], obs::AnatomyStage::kReadyWait), 0u);
  EXPECT_EQ(Stage(episodes[0], obs::AnatomyStage::kSpinlockWait), 3000u);
  EXPECT_FALSE(episodes[1].truncated);
  EXPECT_EQ(Stage(episodes[1], obs::AnatomyStage::kSpinlockWait), 2500u);
}

}  // namespace
}  // namespace wdmlat
