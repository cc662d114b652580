#include "src/obs/anatomy.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "src/obs/chrome_trace.h"
#include "src/obs/flight_recorder.h"

namespace wdmlat::obs {

namespace {

// Stages whose time is *caused by* someone (an ISR, a section, a DPC, a
// lockout holder) rather than being the measured thread's own progress.
constexpr bool IsCulpableStage(AnatomyStage stage) {
  return stage == AnatomyStage::kIsrDispatch || stage == AnatomyStage::kMaskedWindow ||
         stage == AnatomyStage::kDpcQueueWait || stage == AnatomyStage::kDpcRun ||
         stage == AnatomyStage::kLockout || stage == AnatomyStage::kSpinlockWait ||
         stage == AnatomyStage::kIpiLatency;
}

std::string FormatMs(double ms) {
  std::string out;
  AppendFixed6(out, ms);
  return out;
}

}  // namespace

LatencyAnatomy::LatencyAnatomy(Config config)
    : cfg_(config), retention_cycles_(sim::MsToCycles(cfg_.retention_ms)) {}

void LatencyAnatomy::SpanBlocks::Insert(std::size_t pos, const Span& span) {
  push_back(span);
  for (std::size_t i = size_ - 1; i > pos; --i) {
    std::swap((*this)[i], (*this)[i - 1]);
  }
}

void LatencyAnatomy::SpanBlocks::AddBlock() {
  if (spare_.empty()) {
    blocks_.push_back(std::make_unique<Span[]>(kBlockSpans));
  } else {
    blocks_.push_back(std::move(spare_.back()));
    spare_.pop_back();
  }
}

void LatencyAnatomy::SpanBlocks::RetireFrontBlock() {
  spare_.push_back(std::move(blocks_.front()));
  blocks_.erase(blocks_.begin());
  size_ -= kBlockSpans;
}

std::size_t LatencyAnatomy::FirstEndingAfter(std::size_t from, sim::Cycles t) const {
  // Span ends ascend (the spans partition the timeline in order).
  std::size_t lo = from;
  std::size_t hi = spans_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (spans_[mid].end > t) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::size_t LatencyAnatomy::RetainedBegin() const {
  // end + retention >= cur_start_  <=>  end > cur_start_ - retention - 1.
  return cur_start_ > retention_cycles_
             ? FirstEndingAfter(0, cur_start_ - retention_cycles_ - 1)
             : 0;
}

LatencyAnatomy::Span LatencyAnatomy::Classify(sim::Cycles at) const {
  Span span;
  if (!stack_.empty()) {
    const MirrorFrame& top = stack_.back();
    span.stage = top.dispatch ? AnatomyStage::kIsrDispatch : AnatomyStage::kMaskedWindow;
    span.label = top.label;
    return span;
  }
  if (dpc_phase_ != DpcPhase::kNone) {
    span.stage = dpc_phase_ == DpcPhase::kFetch ? AnatomyStage::kDpcQueueWait
                                                : AnatomyStage::kDpcRun;
    span.label = dpc_label_;
    return span;
  }
  if (thread_phase_ != ThreadPhase::kNone) {
    span.stage = thread_phase_ == ThreadPhase::kSwitch ? AnatomyStage::kReadyWait
                                                       : AnatomyStage::kThreadRun;
    span.label = thread_label_;
    return span;
  }
  if (at < lock_until_) {
    span.stage = AnatomyStage::kLockout;
    span.label = lock_label_;
    return span;
  }
  span.stage = AnatomyStage::kReadyWait;
  span.label = kernel::kIdleLabel;
  return span;
}

void LatencyAnatomy::AppendSpan(Span span) {
  if (span.end <= span.begin) {
    return;
  }
  if (!spans_.empty()) {
    Span& back = spans_.back();
    if (back.end == span.begin && back.stage == span.stage && back.label == span.label) {
      back.end = span.end;  // coalesce: fewer spans, identical partition
      return;
    }
  }
  spans_.push_back(span);
}

void LatencyAnatomy::CloseSpan(sim::Cycles now) {
  if (now <= cur_start_) {
    return;
  }
  const bool idle =
      stack_.empty() && dpc_phase_ == DpcPhase::kNone && thread_phase_ == ThreadPhase::kNone;
  if (idle && lock_until_ > cur_start_ && lock_until_ < now) {
    // The lockout expired mid-span: the idle time splits at the boundary.
    AppendSpan(Span{cur_start_, lock_until_, AnatomyStage::kLockout, lock_label_});
    AppendSpan(Span{lock_until_, now, AnatomyStage::kReadyWait, kernel::kIdleLabel});
  } else {
    Span span = Classify(cur_start_);
    span.begin = cur_start_;
    span.end = now;
    AppendSpan(span);
  }
  cur_start_ = now;
  if (now > retention_cycles_) {
    spans_.RetireBlocksEndingBefore(now - retention_cycles_);
  }
}

void LatencyAnatomy::Reclassify(sim::Cycles from, sim::Cycles to, AnatomyStage stage,
                                kernel::Label label) {
  if (to <= from) {
    return;
  }
  // Walk the trailing spans that overlap [from, to). Only idle-ish time
  // (ready_wait, lockout) is relabelled: ISR/DPC/thread spans inside the
  // window were genuinely spent that way (interrupts above DISPATCH are
  // still taken while a core spins) and keep their own stage.
  for (std::size_t i = spans_.size(); i-- > 0;) {
    Span& span = spans_[i];
    if (span.end <= from) {
      break;
    }
    if (span.begin >= to || (span.stage != AnatomyStage::kReadyWait &&
                             span.stage != AnatomyStage::kLockout)) {
      continue;
    }
    const sim::Cycles lo = std::max(span.begin, from);
    const sim::Cycles hi = std::min(span.end, to);
    if (hi <= lo) {
      continue;
    }
    const Span mid{lo, hi, stage, label};
    const Span tail{hi, span.end, span.stage, span.label};
    span.end = lo;  // head keeps the old stage (possibly emptied)
    std::size_t at = i;
    if (span.end <= span.begin) {
      span = mid;
    } else {
      spans_.Insert(++at, mid);
    }
    if (tail.end > tail.begin) {
      spans_.Insert(at + 1, tail);
    }
  }
}

void LatencyAnatomy::OnTraceEvent(const kernel::TraceEvent& event) {
  using kernel::TraceEventType;
  if (event.core != 0) {
    return;  // single-core mirror: episodes are measured on core 0
  }
  CloseSpan(event.tsc);
  switch (event.type) {
    case TraceEventType::kIsrAccept:
      stack_.push_back(MirrorFrame{true, event.label});
      break;
    case TraceEventType::kIsrEnter:
      // The accept frame becomes the ISR body (same dispatcher frame).
      if (!stack_.empty()) {
        stack_.back() = MirrorFrame{false, event.label};
      } else {
        stack_.push_back(MirrorFrame{false, event.label});  // attached mid-ISR
      }
      break;
    case TraceEventType::kSectionStart:
      stack_.push_back(MirrorFrame{false, event.label});
      break;
    case TraceEventType::kIsrExit:
    case TraceEventType::kSectionEnd:
      if (!stack_.empty()) {
        stack_.pop_back();
      }
      break;
    case TraceEventType::kDpcFetch:
      dpc_phase_ = DpcPhase::kFetch;
      dpc_label_ = event.label;
      break;
    case TraceEventType::kDpcStart:
      dpc_phase_ = DpcPhase::kBody;
      dpc_label_ = event.label;
      break;
    case TraceEventType::kDpcEnd:
      dpc_phase_ = DpcPhase::kNone;
      break;
    case TraceEventType::kContextSwitch:
      thread_phase_ = ThreadPhase::kSwitch;
      thread_label_ = kernel::kDispatcherLabel;
      break;
    case TraceEventType::kThreadRun:
      thread_phase_ = ThreadPhase::kRun;
      thread_label_ = event.label;
      break;
    case TraceEventType::kThreadStop:
      thread_phase_ = ThreadPhase::kNone;
      break;
    case TraceEventType::kThreadReady:
      break;  // scheduler bookkeeping; the close above keeps boundaries sharp
    case TraceEventType::kDispatchLockout: {
      const sim::Cycles until = event.tsc + event.duration;
      if (until > lock_until_) {  // max-extension, like the dispatcher
        lock_until_ = until;
        lock_label_ = event.label;
      }
      break;
    }
    case TraceEventType::kSpinlockWait: {
      const sim::Cycles from = event.duration > event.tsc ? 0 : event.tsc - event.duration;
      Reclassify(from, event.tsc, AnatomyStage::kSpinlockWait, event.label);
      break;
    }
    case TraceEventType::kIpi: {
      const sim::Cycles from = event.duration > event.tsc ? 0 : event.tsc - event.duration;
      Reclassify(from, event.tsc, AnatomyStage::kIpiLatency, event.label);
      break;
    }
    case TraceEventType::kTraceEventTypeCount:
      break;
  }
}

void LatencyAnatomy::OnEpisode(double latency_ms, sim::Cycles window_begin,
                               sim::Cycles window_end) {
  if (episodes_.size() >= cfg_.max_episodes || window_end <= window_begin) {
    return;
  }
  AnatomyEpisode episode;
  episode.latency_ms = latency_ms;
  episode.window_begin = window_begin;
  episode.window_end = window_end;

  struct LabelCycles {
    AnatomyStage stage;
    kernel::Label label;
    sim::Cycles cycles = 0;
  };
  std::vector<LabelCycles> per_label;
  const auto add = [&](AnatomyStage stage, kernel::Label label, sim::Cycles cycles) {
    if (cycles == 0) {
      return;
    }
    episode.stage_cycles[static_cast<std::size_t>(stage)] += cycles;
    for (LabelCycles& entry : per_label) {
      if (entry.stage == stage && entry.label == label) {
        entry.cycles += cycles;
        return;
      }
    }
    per_label.push_back(LabelCycles{stage, label, cycles});
  };

  const std::size_t retained = RetainedBegin();
  for (std::size_t i = FirstEndingAfter(retained, window_begin);
       i < spans_.size() && spans_[i].begin < window_end; ++i) {
    const Span& span = spans_[i];
    add(span.stage, span.label,
        std::min(span.end, window_end) - std::max(span.begin, window_begin));
  }
  // The open span: state since the last event, clipped to the window.
  if (cur_start_ < window_end) {
    const sim::Cycles from = std::max(cur_start_, window_begin);
    const bool idle = stack_.empty() && dpc_phase_ == DpcPhase::kNone &&
                      thread_phase_ == ThreadPhase::kNone;
    if (idle && lock_until_ > from && lock_until_ < window_end) {
      add(AnatomyStage::kLockout, lock_label_, lock_until_ - from);
      add(AnatomyStage::kReadyWait, kernel::kIdleLabel, window_end - lock_until_);
    } else {
      const Span span = Classify(from);
      add(span.stage, span.label, window_end - from);
    }
  }

  const sim::Cycles coverage_begin =
      retained == spans_.size() ? cur_start_ : spans_[retained].begin;
  episode.truncated = coverage_begin > window_begin;

  // Per-stage top blame and the overall culprit (culpable stages only).
  std::vector<LabelCycles> culprit_totals;
  for (const LabelCycles& entry : per_label) {
    const std::size_t stage = static_cast<std::size_t>(entry.stage);
    if (entry.cycles > episode.stage_blame[stage].cycles) {
      episode.stage_blame[stage] =
          AnatomyEpisode::Blame{entry.label.module, entry.label.function, entry.cycles};
    }
    if (IsCulpableStage(entry.stage)) {
      bool found = false;
      for (LabelCycles& total : culprit_totals) {
        if (total.label == entry.label) {
          total.cycles += entry.cycles;
          found = true;
          break;
        }
      }
      if (!found) {
        culprit_totals.push_back(LabelCycles{entry.stage, entry.label, entry.cycles});
      }
    }
  }
  for (const LabelCycles& total : culprit_totals) {
    if (total.cycles > episode.culprit.cycles) {
      episode.culprit =
          AnatomyEpisode::Blame{total.label.module, total.label.function, total.cycles};
    }
  }
  episodes_.push_back(std::move(episode));
}

std::array<sim::Cycles, kAnatomyStageCount> LatencyAnatomy::StageTotals() const {
  std::array<sim::Cycles, kAnatomyStageCount> totals{};
  for (const AnatomyEpisode& episode : episodes_) {
    for (std::size_t i = 0; i < kAnatomyStageCount; ++i) {
      totals[i] += episode.stage_cycles[i];
    }
  }
  return totals;
}

std::string RenderAnatomyReport(const std::vector<AnatomyEpisode>& episodes) {
  std::ostringstream out;
  out << "Latency anatomy: " << episodes.size() << " episode(s)\n";
  if (episodes.empty()) {
    return out.str();
  }
  std::array<sim::Cycles, kAnatomyStageCount> totals{};
  std::array<AnatomyEpisode::Blame, kAnatomyStageCount> top{};
  sim::Cycles window_total = 0;
  std::size_t truncated = 0;
  for (const AnatomyEpisode& episode : episodes) {
    window_total += episode.window_end - episode.window_begin;
    truncated += episode.truncated ? 1 : 0;
    for (std::size_t i = 0; i < kAnatomyStageCount; ++i) {
      totals[i] += episode.stage_cycles[i];
      if (episode.stage_blame[i].cycles > top[i].cycles) {
        top[i] = episode.stage_blame[i];
      }
    }
  }
  out << "  stage            share      ms total  top blame\n";
  for (std::size_t i = 0; i < kAnatomyStageCount; ++i) {
    const double share = window_total == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(totals[i]) /
                                   static_cast<double>(window_total);
    char line[160];
    std::string blame = top[i].module.empty()
                            ? std::string("-")
                            : top[i].module + "!" + top[i].function + " (" +
                                  FormatMs(sim::CyclesToMs(top[i].cycles)) + " ms)";
    std::snprintf(line, sizeof(line), "  %-16s %5.1f%%  %10.3f  %s\n",
                  AnatomyStageName(static_cast<AnatomyStage>(i)), share,
                  sim::CyclesToMs(totals[i]), blame.c_str());
    out << line;
  }
  if (truncated > 0) {
    out << "  (" << truncated << " episode(s) truncated by the retention window)\n";
  }
  out << "  episodes:\n";
  for (const AnatomyEpisode& episode : episodes) {
    // Dominant stage for the one-line verdict.
    std::size_t dominant = 0;
    for (std::size_t i = 1; i < kAnatomyStageCount; ++i) {
      if (episode.stage_cycles[i] > episode.stage_cycles[dominant]) {
        dominant = i;
      }
    }
    char line[192];
    std::snprintf(line, sizeof(line), "    %9.3f ms  dominant %-14s culprit %s!%s (%.3f ms)%s\n",
                  episode.latency_ms, AnatomyStageName(static_cast<AnatomyStage>(dominant)),
                  episode.culprit.module.empty() ? "-" : episode.culprit.module.c_str(),
                  episode.culprit.function.empty() ? "-" : episode.culprit.function.c_str(),
                  sim::CyclesToMs(episode.culprit.cycles),
                  episode.truncated ? "  [truncated]" : "");
    out << line;
  }
  return out.str();
}

std::string AnatomyToJson(const std::vector<AnatomyEpisode>& episodes) {
  std::ostringstream out;
  out << "{\"episodes\": [";
  bool first = true;
  for (const AnatomyEpisode& episode : episodes) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << " {\"latency_ms\": " << FormatMs(episode.latency_ms) << ", \"window_begin\": \""
        << episode.window_begin << "\", \"window_end\": \"" << episode.window_end
        << "\", \"truncated\": " << (episode.truncated ? "true" : "false")
        << ", \"stages\": {";
    for (std::size_t i = 0; i < kAnatomyStageCount; ++i) {
      out << (i == 0 ? "" : ", ") << "\""
          << AnatomyStageName(static_cast<AnatomyStage>(i)) << "\": {\"cycles\": \""
          << episode.stage_cycles[i] << "\", \"ms\": "
          << FormatMs(sim::CyclesToMs(episode.stage_cycles[i]));
      const AnatomyEpisode::Blame& blame = episode.stage_blame[i];
      if (!blame.module.empty()) {
        out << ", \"top_module\": \"" << blame.module << "\", \"top_function\": \""
            << blame.function << "\"";
      }
      out << "}";
    }
    out << "}, \"culprit\": {\"module\": \"" << episode.culprit.module
        << "\", \"function\": \"" << episode.culprit.function
        << "\", \"ms\": " << FormatMs(sim::CyclesToMs(episode.culprit.cycles)) << "}}";
  }
  out << "\n], \"stage_totals_ms\": {";
  std::array<sim::Cycles, kAnatomyStageCount> totals{};
  for (const AnatomyEpisode& episode : episodes) {
    for (std::size_t i = 0; i < kAnatomyStageCount; ++i) {
      totals[i] += episode.stage_cycles[i];
    }
  }
  for (std::size_t i = 0; i < kAnatomyStageCount; ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << AnatomyStageName(static_cast<AnatomyStage>(i))
        << "\": " << FormatMs(sim::CyclesToMs(totals[i]));
  }
  out << "}}\n";
  return out.str();
}

AnatomyAgreement ScoreSamplingVsAnatomy(const std::vector<EpisodeSummary>& summaries,
                                        const std::vector<AnatomyEpisode>& anatomy) {
  AnatomyAgreement agreement;
  const std::size_t pairs = std::min(summaries.size(), anatomy.size());
  agreement.episodes = pairs;
  for (std::size_t i = 0; i < pairs; ++i) {
    const EpisodeSummary& summary = summaries[i];
    if (!summary.attributed) {
      continue;
    }
    ++agreement.attributed;
    if (!anatomy[i].culprit.module.empty() &&
        summary.cause_module == anatomy[i].culprit.module) {
      ++agreement.culprit_matches;
    }
  }
  return agreement;
}

}  // namespace wdmlat::obs
