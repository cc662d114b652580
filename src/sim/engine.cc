#include "src/sim/engine.h"

#include <algorithm>

namespace wdmlat::sim {

void EventPool::Destroy() { delete this; }

void Engine::RunUntilIdle() {
  stop_requested_ = false;
  while (!stop_requested_ && Step()) {
  }
}

void Engine::RunUntil(Cycles deadline) {
  stop_requested_ = false;
  QueueEntry entry;
  while (!stop_requested_ && PopNextLive(deadline, &entry)) {
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
  pool_->ResetAll();
  now_ = 0;
  next_seq_ = 0;
  events_processed_ = 0;
  compactions_ = 0;
  stop_requested_ = false;
}

void Engine::AuditCalendar(std::vector<std::string>* violations) const {
  std::size_t live_entries = 0;
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
    if (pool_->generation(entry.slot) != entry.generation) {
      continue;  // stale entry for a cancelled event: legal until dropped
    }
    ++live_entries;
    if (entry.when < now_) {
      violations->push_back("engine: live event in slot " + std::to_string(entry.slot) +
                            " scheduled at " + std::to_string(entry.when) +
                            " which is before now=" + std::to_string(now_));
    }
  }
  // Every live pool slot owns exactly one calendar entry, so the live-entry
  // count must match the pool's live count exactly.
  if (live_entries != pool_->live()) {
    violations->push_back("engine: calendar holds " + std::to_string(live_entries) +
                          " live entries but the pool reports " +
                          std::to_string(pool_->live()) + " live events");
  }
  pool_->AuditConsistency(violations);
}

void Engine::Compact() {
  // Workloads that disarm constantly (the dispatcher's paused frame and
  // thread timers) would otherwise leave dead entries stored until they
  // reach the back. remove_if keeps the survivors' fire order.
  calendar_.erase(std::remove_if(calendar_.begin(), calendar_.end(),
                                 [this](const QueueEntry& entry) {
                                   return pool_->generation(entry.slot) != entry.generation;
                                 }),
                  calendar_.end());
  ++compactions_;
}

}  // namespace wdmlat::sim
