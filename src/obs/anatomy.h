// LatencyAnatomy: exact causal decomposition of latency episodes.
//
// The paper could only estimate *what a latency is made of* by sampling the
// instruction pointer on PIT ticks (Table 4). The simulator is omniscient:
// the dispatcher's trace stream contains every privilege transition, so the
// CPU timeline can be partitioned — exactly, in integer cycles — into causal
// stages. This sink mirrors the dispatcher's state machine from trace events
// alone (it is a passive TraceSink: attaching it never perturbs the
// simulation) and maintains a trailing timeline of spans
//
//   isr_dispatch    trap-dispatch overhead (kIsrAccept -> kIsrEnter)
//   masked_window   ISR bodies and raised-IRQL kernel sections
//   dpc_queue_wait  DPC dequeue/dispatch overhead (kDpcFetch -> kDpcStart)
//   dpc_run         DPC bodies
//   lockout         CPU idle but thread dispatch is locked out (Win16Mutex
//                   style windows) — the ready thread cannot be scheduled
//   ready_wait      CPU idle or context-switching with the wake pending
//   thread_run      a thread body on the CPU
//   spinlock_wait   (SMP) the core spinning at DISPATCH on a held simulated
//                   spinlock — blamed on the holder's label
//   ipi_latency     (SMP) cross-core IPI flight delaying a wake or DPC
//                   targeted at this core
//
// The mirror is a single-core state machine: it follows core 0 (where the
// measurement driver's devices interrupt) and ignores events stamped with
// another core id. The SMP stages arrive as retrospective kSpinlockWait/kIpi
// events whose duration covers already-recorded ready_wait/lockout time; the
// covered spans are relabelled in place (with splitting), so the exact
// integer-cycle partition is preserved.
//
// When the latency driver reports an episode, OnEpisode clips the span
// timeline to the episode's measurement window [dpc_tsc, thread_tsc] and
// produces an AnatomyEpisode whose stage cycles sum *exactly* (integer
// cycles, no epsilon) to the measured latency: the window edges coincide
// with kDpcStart / kThreadRun span boundaries, and the spans partition the
// timeline by construction. Per-stage and overall blame labels give the
// ground truth the Table-4 IP-sampling estimates are graded against.

#ifndef SRC_OBS_ANATOMY_H_
#define SRC_OBS_ANATOMY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/label.h"
#include "src/kernel/trace.h"
#include "src/sim/time.h"

namespace wdmlat::obs {

struct EpisodeSummary;

enum class AnatomyStage : std::uint8_t {
  kIsrDispatch,
  kMaskedWindow,
  kDpcQueueWait,
  kDpcRun,
  kLockout,
  kReadyWait,
  kThreadRun,
  kSpinlockWait,
  kIpiLatency,
  // Sentinel — keep last; sizes every per-stage array.
  kStageCount,
};

inline constexpr std::size_t kAnatomyStageCount =
    static_cast<std::size_t>(AnatomyStage::kStageCount);

constexpr const char* AnatomyStageName(AnatomyStage stage) {
  switch (stage) {
    case AnatomyStage::kIsrDispatch:
      return "isr_dispatch";
    case AnatomyStage::kMaskedWindow:
      return "masked_window";
    case AnatomyStage::kDpcQueueWait:
      return "dpc_queue_wait";
    case AnatomyStage::kDpcRun:
      return "dpc_run";
    case AnatomyStage::kLockout:
      return "lockout";
    case AnatomyStage::kReadyWait:
      return "ready_wait";
    case AnatomyStage::kThreadRun:
      return "thread_run";
    case AnatomyStage::kSpinlockWait:
      return "spinlock_wait";
    case AnatomyStage::kIpiLatency:
      return "ipi_latency";
    case AnatomyStage::kStageCount:
      break;
  }
  return "?";
}

// One decomposed episode. Plain values only (strings, not Label pointers), so
// records are safe to copy across matrix workers and serialize.
struct AnatomyEpisode {
  double latency_ms = 0.0;
  sim::Cycles window_begin = 0;  // dpc_tsc: the DPC's first instruction
  sim::Cycles window_end = 0;    // thread_tsc: the thread's first instruction
  // Exact partition: sums to window_end - window_begin unless truncated.
  std::array<sim::Cycles, kAnatomyStageCount> stage_cycles{};
  struct Blame {
    std::string module;
    std::string function;
    sim::Cycles cycles = 0;
  };
  // Heaviest label within each stage (empty module when the stage is empty).
  std::array<Blame, kAnatomyStageCount> stage_blame{};
  // Heaviest label over the culpable stages (everything except ready_wait
  // and thread_run): the episode's critical-path culprit.
  Blame culprit;
  // The retention window no longer covered the episode start; stage sums are
  // then partial and conservation does not hold.
  bool truncated = false;
};

class LatencyAnatomy : public kernel::TraceSink {
 public:
  struct Config {
    std::size_t max_episodes = 64;
    // Trailing span retention (virtual time). Must exceed the longest episode
    // latency plus the APC delay between thread_tsc and the driver's
    // RecordSample, or episodes come back truncated.
    double retention_ms = 2000.0;
  };

  explicit LatencyAnatomy(Config config);
  LatencyAnatomy() : LatencyAnatomy(Config{}) {}

  // kernel::TraceSink — mirrors the dispatcher state machine, closing the
  // current span at every transition. Consumes no RNG and never calls back
  // into the kernel: provably passive.
  void OnTraceEvent(const kernel::TraceEvent& event) override;

  // Decompose [window_begin, window_end] (the driver's [dpc_tsc, thread_tsc]
  // sample window) into a stage record. No-op once max_episodes is reached.
  void OnEpisode(double latency_ms, sim::Cycles window_begin, sim::Cycles window_end);

  const std::vector<AnatomyEpisode>& episodes() const { return episodes_; }

  // Aggregate per-stage cycles over all captured episodes.
  std::array<sim::Cycles, kAnatomyStageCount> StageTotals() const;

 private:
  struct Span {
    sim::Cycles begin = 0;
    sim::Cycles end = 0;
    AnatomyStage stage = AnatomyStage::kReadyWait;
    kernel::Label label;
  };
  // The trailing spans, oldest first, in fixed-size blocks. Spans are not
  // trimmed one by one: once the front block's last span has left the
  // retention window, the whole block goes to a spare list and takes the
  // next appends, so the storage grows block by block (no doubling, no
  // copying) to the high-water mark of the window and is then reused. The
  // aged spans still stored ahead of the window are skipped by readers
  // (LatencyAnatomy::RetainedBegin).
  class SpanBlocks {
   public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Span& operator[](std::size_t i) { return blocks_[i / kBlockSpans][i % kBlockSpans]; }
    const Span& operator[](std::size_t i) const {
      return blocks_[i / kBlockSpans][i % kBlockSpans];
    }
    Span& back() { return (*this)[size_ - 1]; }
    void push_back(const Span& span) {
      if (size_ == blocks_.size() * kBlockSpans) {
        AddBlock();
      }
      (*this)[size_++] = span;
    }
    // Retires front blocks while a later block exists and the front one's
    // last span ends before `horizon`. Span ends ascend, so every span in a
    // retired block ended before it too.
    void RetireBlocksEndingBefore(sim::Cycles horizon) {
      while (size_ > kBlockSpans && blocks_.front()[kBlockSpans - 1].end < horizon) {
        RetireFrontBlock();
      }
    }
    // Shifts the spans at and after `pos` up by one. O(size - pos); only the
    // SMP relabels split spans, and then near the back.
    void Insert(std::size_t pos, const Span& span);

   private:
    static constexpr std::size_t kBlockSpans = 256;

    void AddBlock();
    void RetireFrontBlock();

    std::vector<std::unique_ptr<Span[]>> blocks_;  // oldest first
    std::vector<std::unique_ptr<Span[]>> spare_;
    std::size_t size_ = 0;
  };
  struct MirrorFrame {
    bool dispatch = false;  // trap-dispatch overhead vs ISR body / section
    kernel::Label label;
  };
  enum class DpcPhase : std::uint8_t { kNone, kFetch, kBody };
  enum class ThreadPhase : std::uint8_t { kNone, kSwitch, kRun };

  // Innermost stage + blame label at an instant with the current mirror
  // state; `at` resolves the idle lockout-vs-ready split.
  Span Classify(sim::Cycles at) const;
  void CloseSpan(sim::Cycles now);
  // The oldest span still inside the retention window: the first whose
  // end + retention reaches the last event's time (cur_start_). The spans
  // before it have aged out and are only waiting for their block to retire.
  std::size_t RetainedBegin() const;
  // The first span at or after `from` that ends after `t` (size() if none).
  std::size_t FirstEndingAfter(std::size_t from, sim::Cycles t) const;
  void AppendSpan(Span span);
  // Relabel the ready_wait/lockout portions of [from, to) to `stage` —
  // retrospective accounting for SMP spin/IPI windows. Splits spans at the
  // window edges; never changes total coverage.
  void Reclassify(sim::Cycles from, sim::Cycles to, AnatomyStage stage,
                  kernel::Label label);

  Config cfg_;
  sim::Cycles retention_cycles_ = 0;

  std::vector<MirrorFrame> stack_;
  DpcPhase dpc_phase_ = DpcPhase::kNone;
  kernel::Label dpc_label_;
  ThreadPhase thread_phase_ = ThreadPhase::kNone;
  kernel::Label thread_label_;
  sim::Cycles lock_until_ = 0;
  kernel::Label lock_label_;

  sim::Cycles cur_start_ = 0;
  SpanBlocks spans_;
  std::vector<AnatomyEpisode> episodes_;
};

// Stage-share table over a run's episodes — the per-cell "anatomy report"
// counterpart to the paper's cause analysis.
std::string RenderAnatomyReport(const std::vector<AnatomyEpisode>& episodes);

// JSON export for --anatomy-out: {"episodes": [...], "stage_totals_ms": {...}}.
std::string AnatomyToJson(const std::vector<AnatomyEpisode>& episodes);

// Grade the cause tool's IP-sampling verdicts against the anatomy ground
// truth. Episodes pair by index (both record in driver-callback order; the
// cause tool and recorder must be registered before the anatomy so counts
// line up — extra entries on either side are ignored).
struct AnatomyAgreement {
  std::uint64_t episodes = 0;          // pairs examined
  std::uint64_t attributed = 0;        // the tool dumped at least one sample
  std::uint64_t culprit_matches = 0;   // tool module == anatomy culprit module
  double Accuracy() const {
    return attributed == 0
               ? 0.0
               : static_cast<double>(culprit_matches) / static_cast<double>(attributed);
  }
};
AnatomyAgreement ScoreSamplingVsAnatomy(const std::vector<EpisodeSummary>& summaries,
                                        const std::vector<AnatomyEpisode>& anatomy);

}  // namespace wdmlat::obs

#endif  // SRC_OBS_ANATOMY_H_
