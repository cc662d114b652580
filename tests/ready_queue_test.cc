// kernel::ReadyQueue against a brute-force model. The queue answers
// top_priority, Peek and Pop from a 32-bit summary of non-empty priorities;
// a seeded storm of front/back pushes, pops and removes over priorities
// 1-31 checks after every op that those answers, empty() and size() agree
// with a scan of plain per-priority lists.

#include "src/kernel/ready_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/thread.h"
#include "src/sim/rng.h"

namespace wdmlat::kernel {
namespace {

// The model: one FIFO list per priority, scanned from the top every time.
class ReferenceQueue {
 public:
  void Push(KThread* thread, bool front) {
    std::vector<KThread*>& list = lists_[thread->priority()];
    list.insert(front ? list.begin() : list.end(), thread);
  }

  KThread* Peek() const {
    const int prio = TopPriority();
    return prio < 0 ? nullptr : lists_[prio].front();
  }

  KThread* Pop() {
    const int prio = TopPriority();
    if (prio < 0) {
      return nullptr;
    }
    KThread* thread = lists_[prio].front();
    lists_[prio].erase(lists_[prio].begin());
    return thread;
  }

  bool Remove(KThread* thread) {
    for (std::vector<KThread*>& list : lists_) {
      auto it = std::find(list.begin(), list.end(), thread);
      if (it != list.end()) {
        list.erase(it);
        return true;
      }
    }
    return false;
  }

  int TopPriority() const {
    for (int prio = kMaxPriority; prio >= kMinPriority; --prio) {
      if (!lists_[prio].empty()) {
        return prio;
      }
    }
    return -1;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const std::vector<KThread*>& list : lists_) {
      total += list.size();
    }
    return total;
  }

  std::vector<KThread*> InOrder() const {
    std::vector<KThread*> order;
    for (int prio = kMaxPriority; prio >= kMinPriority; --prio) {
      order.insert(order.end(), lists_[prio].begin(), lists_[prio].end());
    }
    return order;
  }

 private:
  std::array<std::vector<KThread*>, kMaxPriority + 1> lists_;
};

// Compares every observer of `queue` with the model; returns the first
// disagreement, or an empty string.
std::string Disagreement(const ReadyQueue& queue, const ReferenceQueue& model) {
  if (queue.top_priority() != model.TopPriority()) {
    return "top_priority " + std::to_string(queue.top_priority()) + " vs model " +
           std::to_string(model.TopPriority());
  }
  if (queue.Peek() != model.Peek()) {
    return "Peek differs";
  }
  if (queue.size() != model.size()) {
    return "size " + std::to_string(queue.size()) + " vs model " + std::to_string(model.size());
  }
  if (queue.empty() != (model.size() == 0)) {
    return "empty differs";
  }
  std::vector<KThread*> order;
  queue.ForEach([&](KThread* thread) { order.push_back(thread); });
  if (order != model.InOrder()) {
    return "ForEach order differs";
  }
  return "";
}

class ReadyQueueStormTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadyQueueStormTest, EveryOpAgreesWithABruteForceScan) {
  sim::Rng rng(GetParam());
  // More threads than priorities, so priorities share queues and some
  // priorities stay empty for long stretches.
  std::vector<std::unique_ptr<KThread>> threads;
  for (int i = 0; i < 48; ++i) {
    const int prio = static_cast<int>(rng.UniformInt(kMinPriority, kMaxPriority));
    threads.push_back(std::make_unique<KThread>(std::string("t").append(std::to_string(i)), prio));
  }
  std::vector<bool> queued(threads.size(), false);
  ReadyQueue queue;
  ReferenceQueue model;
  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t kind = rng.UniformInt(0, 99);
    const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(0, threads.size() - 1));
    KThread* thread = threads[pick].get();
    if (kind < 45) {
      if (!queued[pick]) {
        const bool front = rng.UniformInt(0, 2) == 0;
        queue.Push(thread, front);
        model.Push(thread, front);
        queued[pick] = true;
      }
    } else if (kind < 80) {
      KThread* popped = queue.Pop();
      ASSERT_EQ(popped, model.Pop()) << "Pop differs at op " << op;
      if (popped != nullptr) {
        const auto it = std::find_if(threads.begin(), threads.end(),
                                     [&](const auto& t) { return t.get() == popped; });
        queued[static_cast<std::size_t>(it - threads.begin())] = false;
      }
    } else {
      // Removes both queued and unqueued threads: both must answer alike.
      const bool removed = queue.Remove(thread);
      ASSERT_EQ(removed, model.Remove(thread)) << "Remove differs at op " << op;
      ASSERT_EQ(removed, static_cast<bool>(queued[pick]));
      queued[pick] = false;
    }
    const std::string failure = Disagreement(queue, model);
    ASSERT_TRUE(failure.empty()) << failure << " at op " << op;
  }
  // Drain: pops come out in the model's order and leave both empty.
  while (KThread* popped = model.Pop()) {
    ASSERT_EQ(queue.Pop(), popped);
  }
  EXPECT_EQ(queue.Pop(), nullptr);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.top_priority(), -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadyQueueStormTest, ::testing::Values(1ull, 1999ull, 0xC0FFEEull));

// The summary's edge bits: priority 1 and priority 31 alone, together, and
// emptied by Remove rather than Pop.
TEST(ReadyQueueStormTest, SummaryEdgesAtPriorityOneAndThirtyOne) {
  ReadyQueue queue;
  KThread low("low", kMinPriority);
  KThread high("high", kMaxPriority);
  queue.Push(&low);
  EXPECT_EQ(queue.top_priority(), kMinPriority);
  queue.Push(&high);
  EXPECT_EQ(queue.top_priority(), kMaxPriority);
  EXPECT_EQ(queue.Peek(), &high);
  EXPECT_TRUE(queue.Remove(&high));
  EXPECT_EQ(queue.top_priority(), kMinPriority);
  EXPECT_EQ(queue.Peek(), &low);
  EXPECT_TRUE(queue.Remove(&low));
  EXPECT_EQ(queue.top_priority(), -1);
  EXPECT_EQ(queue.Peek(), nullptr);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace wdmlat::kernel
