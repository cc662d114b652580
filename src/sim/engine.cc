#include "src/sim/engine.h"

namespace wdmlat::sim {

void Engine::RunUntilIdle() {
  stop_requested_ = false;
  while (!stop_requested_ && Step()) {
  }
}

void Engine::RunUntil(Cycles deadline) {
  stop_requested_ = false;
  QueueEntry entry;
  while (!stop_requested_ && PopNext(deadline, &entry)) {
    Fire(entry);
  }
  if (!stop_requested_ && now_ < deadline) {
    now_ = deadline;
  }
}

void Engine::Reset() {
  // clear() keeps the vector's capacity: the next cell's traffic replays
  // into an already-sized calendar and pool, which is the point of warm
  // reuse.
  calendar_.clear();
  pool_.ResetAll();
  now_ = 0;
  next_seq_ = 0;
  events_processed_ = 0;
  stop_requested_ = false;
}

void Engine::AuditCalendar(std::vector<std::string>* violations) const {
  for (std::size_t i = 0; i < calendar_.size(); ++i) {
    const QueueEntry& entry = calendar_[i];
    if (i > 0 && !FiresLater(calendar_[i - 1], entry)) {
      violations->push_back("engine: calendar out of fire order at entry " + std::to_string(i) +
                            " (when=" + std::to_string(entry.when) +
                            " seq=" + std::to_string(entry.seq) + " fires after when=" +
                            std::to_string(calendar_[i - 1].when) +
                            " seq=" + std::to_string(calendar_[i - 1].seq) + ")");
    }
    if (entry.seq >= next_seq_) {
      violations->push_back("engine: entry seq " + std::to_string(entry.seq) +
                            " was never issued (next_seq=" + std::to_string(next_seq_) + ")");
    }
    if (entry.when < now_) {
      violations->push_back("engine: entry for slot " + std::to_string(entry.slot) +
                            " scheduled at " + std::to_string(entry.when) +
                            " which is before now=" + std::to_string(now_));
    }
    const bool owned = pool_.is_timer(entry.slot)
                           ? pool_.armed(entry.slot) && pool_.when(entry.slot) == entry.when &&
                                 pool_.seq(entry.slot) == entry.seq
                           : pool_.pending(entry.slot);
    if (!owned) {
      violations->push_back("engine: entry when=" + std::to_string(entry.when) +
                            " seq=" + std::to_string(entry.seq) + " for slot " +
                            std::to_string(entry.slot) +
                            " is neither a scheduled one-shot nor its timer's arming");
    }
  }
  // Every pending slot owns exactly one entry, so the counts must match.
  const std::size_t pending = pool_.AuditConsistency(violations);
  if (pending != calendar_.size()) {
    violations->push_back("engine: calendar holds " + std::to_string(calendar_.size()) +
                          " entries but the pool has " + std::to_string(pending) +
                          " scheduled or armed slots");
  }
}

}  // namespace wdmlat::sim
