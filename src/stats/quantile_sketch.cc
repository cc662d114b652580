#include "src/stats/quantile_sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <utility>

namespace wdmlat::stats {

void QuantileSketch::RecordMs(double ms) {
  assert(ms >= 0.0);
  if (count_ == 0) {
    min_ms_ = max_ms_ = ms;
  } else {
    min_ms_ = std::min(min_ms_, ms);
    max_ms_ = std::max(max_ms_, ms);
  }
  ++count_;
  sum_ms_ += ms;
  if (levels_.empty()) {
    levels_.emplace_back();
    parities_.push_back(0);
    levels_.front().reserve(kCompactorCapacity);
  }
  levels_.front().push_back(ms);
  if (levels_.front().size() >= kCompactorCapacity) {
    CompactCascade();
  }
  TailInsert(ms);
}

void QuantileSketch::TailInsert(double ms) {
  // Min-heap of the largest samples: the root is the smallest retained value,
  // so most samples are rejected with a single compare.
  if (tail_.size() < kTailCapacity) {
    tail_sorted_ = false;
    tail_.push_back(ms);
    std::push_heap(tail_.begin(), tail_.end(), std::greater<>());
    return;
  }
  if (ms > tail_.front()) {
    tail_sorted_ = false;
    std::pop_heap(tail_.begin(), tail_.end(), std::greater<>());
    tail_.back() = ms;
    std::push_heap(tail_.begin(), tail_.end(), std::greater<>());
  }
}

void QuantileSketch::CompactLevel(std::size_t level) {
  // Grow the stack before binding any level reference: emplace_back can
  // reallocate levels_ and would dangle a reference taken earlier.
  if (levels_.size() <= level + 1) {
    levels_.emplace_back();
    parities_.push_back(0);
  }
  std::vector<double>& buf = levels_[level];
  std::sort(buf.begin(), buf.end());
  std::size_t n = buf.size();
  const bool carry = (n % 2) == 1;
  if (carry) {
    --n;  // the largest element stays behind, preserving the observed tail
  }
  if (n == 0) {
    return;
  }
  // Derandomized KLL: promote every other element, alternating the starting
  // parity per level instead of flipping a coin. Weight is conserved exactly:
  // n items of weight 2^l leave, n/2 items of weight 2^(l+1) arrive.
  const std::size_t offset = parities_[level];
  parities_[level] ^= 1;
  std::vector<double>& up = levels_[level + 1];
  for (std::size_t i = offset; i < n; i += 2) {
    up.push_back(buf[i]);
  }
  if (carry) {
    buf.front() = buf.back();
    buf.resize(1);
  } else {
    buf.clear();
  }
}

void QuantileSketch::CompactCascade() {
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    while (levels_[l].size() >= kCompactorCapacity) {
      CompactLevel(l);
    }
  }
}

double QuantileSketch::QuantileMs(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  if (q >= 1.0) {
    return max_ms_;
  }
  // 1-based rank of the target sample in ascending order, matching the
  // LatencyHistogram convention (target position q * count).
  std::uint64_t target_rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  target_rank = std::max<std::uint64_t>(1, std::min(target_rank, count_));
  const std::uint64_t above = count_ - target_rank;  // samples above the target
  if (above < tail_.size()) {
    // The reservoir holds the top min(count, kTailCapacity) samples, so this
    // rank is answered with the exact recorded value: read by index from a
    // sorted (merged or record-decoded) tail, selected from a heap-ordered one.
    if (tail_sorted_) {
      return tail_[tail_.size() - 1 - above];
    }
    std::vector<double> selected(tail_);
    const auto kth = selected.end() - 1 - static_cast<std::ptrdiff_t>(above);
    std::nth_element(selected.begin(), kth, selected.end());
    return *kth;
  }
  // Weighted-rank estimate over the compactor items (their weights sum to
  // count by the conservation invariant).
  struct Item {
    double value;
    std::uint64_t weight;
  };
  std::vector<Item> items;
  std::size_t total_items = 0;
  for (const std::vector<double>& level : levels_) {
    total_items += level.size();
  }
  items.reserve(total_items);
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const std::uint64_t weight = std::uint64_t{1} << l;
    for (const double value : levels_[l]) {
      items.push_back(Item{value, weight});
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.value != b.value ? a.value < b.value : a.weight < b.weight;
  });
  std::uint64_t cumulative = 0;
  for (const Item& item : items) {
    cumulative += item.weight;
    if (cumulative >= target_rank) {
      return item.value;
    }
  }
  return max_ms_;
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  assert(&other != this);
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ms_ = other.min_ms_;
    max_ms_ = other.max_ms_;
  } else {
    min_ms_ = std::min(min_ms_, other.min_ms_);
    max_ms_ = std::max(max_ms_, other.max_ms_);
  }
  count_ += other.count_;
  sum_ms_ += other.sum_ms_;
  // Compactors: append level-wise, then restore the capacity invariant. The
  // result depends only on the two operand states, so grid-order folds are
  // bit-reproducible.
  while (levels_.size() < other.levels_.size()) {
    levels_.emplace_back();
    parities_.push_back(other.parities_[levels_.size() - 1]);
  }
  for (std::size_t l = 0; l < other.levels_.size(); ++l) {
    levels_[l].insert(levels_[l].end(), other.levels_[l].begin(), other.levels_[l].end());
  }
  CompactCascade();
  // Tail: top-K of a multiset union — exact and order-independent. An
  // ascending array is a valid min-heap, and a merged or record-decoded tail
  // is ascending, so in a grid-order fold neither operand needs a sort. A
  // tail that Record or ImportState left in heap order is sorted first.
  if (!tail_sorted_ && !std::is_sorted(tail_.begin(), tail_.end())) {
    std::sort(tail_.begin(), tail_.end());
  }
  tail_sorted_ = true;
  if (other.tail_sorted_ || std::is_sorted(other.tail_.begin(), other.tail_.end())) {
    FoldSortedTail(other.tail_);
  } else {
    std::vector<double> incoming(other.tail_);
    std::sort(incoming.begin(), incoming.end());
    FoldSortedTail(incoming);
  }
}

void QuantileSketch::FoldSortedTail(const std::vector<double>& incoming) {
  // The result is what std::merge of the two ascending arrays (the
  // accumulator's value first among equals), cut to its top kTailCapacity,
  // gives: the same values in the same order, so the same bits. First walk
  // past the values that fall out of the top K, from the low end with that
  // tie rule.
  const double* const in = incoming.data();
  const std::size_t n = tail_.size();
  const std::size_t m = incoming.size();
  std::size_t from_tail = 0;
  std::size_t from_in = 0;
  for (std::size_t drop = n + m > kTailCapacity ? n + m - kTailCapacity : 0; drop > 0; --drop) {
    if (from_in < m && (from_tail == n || in[from_in] < tail_[from_tail])) {
      ++from_in;
    } else {
      ++from_tail;
    }
  }
  // Then move the accumulator's survivors to the front and merge from the
  // high end in place. Every write lands at or above the next unread
  // survivor, and once the incoming values run out the rest are in place.
  if (from_tail > 0) {
    std::copy(tail_.begin() + static_cast<std::ptrdiff_t>(from_tail), tail_.end(),
              tail_.begin());
  }
  std::size_t i = n - from_tail;
  std::size_t j = m;
  std::size_t w = i + (m - from_in);
  tail_.resize(w);
  while (j > from_in) {
    if (i > 0 && in[j - 1] < tail_[i - 1]) {
      tail_[--w] = tail_[--i];
    } else {
      tail_[--w] = in[--j];
    }
  }
}

void QuantileSketch::Reset() { *this = QuantileSketch(); }

std::size_t QuantileSketch::retained() const {
  std::size_t items = tail_.size();
  for (const std::vector<double>& level : levels_) {
    items += level.size();
  }
  return items;
}

QuantileSketch::State QuantileSketch::ExportState() const {
  State state;
  state.levels = levels_;
  state.parities = parities_;
  state.tail = tail_;
  state.count = count_;
  state.sum_ms = sum_ms_;
  state.min_ms = min_ms_;
  state.max_ms = max_ms_;
  return state;
}

bool QuantileSketch::ImportState(State state) {
  Reset();
  // 48 levels supports counts past 2^55 while keeping the weight sum safely
  // inside 64 bits below.
  if (state.levels.size() != state.parities.size() || state.levels.size() > 48 ||
      state.tail.size() > kTailCapacity ||
      state.tail.size() != std::min<std::uint64_t>(state.count, kTailCapacity)) {
    return false;
  }
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < state.levels.size(); ++l) {
    if (state.levels[l].size() > kCompactorCapacity) {
      return false;
    }
    for (const double value : state.levels[l]) {
      if (!std::isfinite(value) || value < 0.0) {
        return false;
      }
    }
    total += static_cast<std::uint64_t>(state.levels[l].size()) << l;
  }
  // Weight conservation: the compactor items must account for every recorded
  // sample, or the snapshot is corrupt and must not enter a merge.
  if (total != state.count) {
    return false;
  }
  for (const std::uint8_t parity : state.parities) {
    if (parity > 1) {
      return false;
    }
  }
  for (const double value : state.tail) {
    if (!std::isfinite(value) || value < 0.0) {
      return false;
    }
  }
  // TailInsert's heap operations keep the right top-K only on a min-heap,
  // which an ascending tail (as a fleet record spells it) is.
  const bool sorted = std::is_sorted(state.tail.begin(), state.tail.end());
  if (!sorted && !std::is_heap(state.tail.begin(), state.tail.end(), std::greater<>())) {
    return false;
  }
  levels_ = std::move(state.levels);
  parities_ = std::move(state.parities);
  tail_ = std::move(state.tail);
  tail_sorted_ = sorted;
  count_ = state.count;
  sum_ms_ = state.sum_ms;
  min_ms_ = state.min_ms;
  max_ms_ = state.max_ms;
  return true;
}

}  // namespace wdmlat::stats
