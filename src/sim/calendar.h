// Fire-order calendar: the one ordered container behind sim::Engine and
// kernel::TimerQueue.
//
// A calendar is a vector of entries kept sorted in reverse fire order,
// descending (when, seq), so the next entry to fire sits at the back and pop
// is pop_back. It holds live entries only: whoever cancels an entry erases
// it at once, found by binary search on the (when, seq) it was inserted
// with, so nothing stale ever reaches the back. Entries are any struct with
// `when` and `seq` members; seqs are unique per calendar.

#ifndef SRC_SIM_CALENDAR_H_
#define SRC_SIM_CALENDAR_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace wdmlat::sim {

// Fire order is ascending (when, seq); the calendar is sorted under "fires
// later".
template <typename Entry>
bool FiresLater(const Entry& a, const Entry& b) {
  if (a.when != b.when) {
    return a.when > b.when;
  }
  return a.seq > b.seq;
}

// Insert `entry`, which carries the largest seq issued so far, so it goes in
// front of (fires after) every entry with the same `when`. Most entries are
// due a short way ahead, so the scan from the back is short and the insert
// moves few entries.
template <typename Entry>
void CalendarInsert(std::vector<Entry>& calendar, const Entry& entry) {
  auto pos = calendar.end();
  while (pos != calendar.begin() && FiresLater(entry, *(pos - 1))) {
    --pos;
  }
  calendar.insert(pos, entry);
}

// Erase the entry inserted with (`when`, `seq`); it must be present.
template <typename Entry>
void CalendarErase(std::vector<Entry>& calendar, Cycles when, std::uint64_t seq) {
  Entry key{};
  key.when = when;
  key.seq = seq;
  const auto pos =
      std::lower_bound(calendar.begin(), calendar.end(), key, FiresLater<Entry>);
  assert(pos != calendar.end() && pos->when == when && pos->seq == seq &&
         "erasing an entry the calendar does not hold");
  calendar.erase(pos);
}

}  // namespace wdmlat::sim

#endif  // SRC_SIM_CALENDAR_H_
