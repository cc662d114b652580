// QuantileSketch: accuracy against exact order statistics, deep-tail
// exactness, merge determinism (the grid-order contract the matrix relies
// on), resume round-trips, and snapshot hardening.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/matrix.h"
#include "src/stats/quantile_sketch.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_path.h"

namespace wdmlat {
namespace {

// Deterministic 64-bit generator (SplitMix64) — no std:: RNG, so the sample
// streams below are identical on every platform and run.
class DetRng {
 public:
  explicit DetRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1].
  double NextUnit() {
    return (static_cast<double>(Next() >> 11) + 1.0) / 9007199254740992.0;
  }
  // Heavy-tailed latency-like value in milliseconds: lognormal-ish body with
  // a Pareto tail, the shape the paper's distributions actually have.
  double NextLatencyMs() {
    const double u = NextUnit();
    const double body = 0.05 * std::exp(2.0 * NextUnit());
    const double tail = (u < 0.001) ? 5.0 / std::pow(NextUnit(), 0.5) : 0.0;
    return body + tail;
  }

 private:
  std::uint64_t state_;
};

double ExactQuantile(std::vector<double> sorted_ascending, double q) {
  // Same 1-based ceil-rank convention as QuantileSketch::QuantileMs.
  const std::uint64_t n = sorted_ascending.size();
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::max<std::uint64_t>(1, std::min(rank, n));
  return sorted_ascending[rank - 1];
}

TEST(QuantileSketchTest, BodyQuantilesWithinHistogramBucketResolution) {
  stats::QuantileSketch sketch;
  DetRng rng(2026);
  std::vector<double> samples;
  constexpr std::size_t kCount = 200000;
  samples.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    const double ms = rng.NextLatencyMs();
    samples.push_back(ms);
    sketch.RecordMs(ms);
  }
  std::sort(samples.begin(), samples.end());
  // LatencyHistogram resolves ~2.2% per bucket (32 buckets per octave);
  // the sketch must do at least that well through the body.
  constexpr double kBucketRatio = 1.0219;  // 2^(1/32)
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    const double exact = ExactQuantile(samples, q);
    const double approx = sketch.QuantileMs(q);
    EXPECT_LE(approx, exact * kBucketRatio) << "q=" << q;
    EXPECT_GE(approx, exact / kBucketRatio) << "q=" << q;
  }
  EXPECT_EQ(sketch.count(), kCount);
  EXPECT_DOUBLE_EQ(sketch.min_ms(), samples.front());
  EXPECT_DOUBLE_EQ(sketch.max_ms(), samples.back());
}

TEST(QuantileSketchTest, DeepTailIsExactOnTenMillionSamples) {
  // The acceptance bar: P99.9 of 10M samples within one histogram bucket of
  // the exact order statistic. The exceedance rank (10,000) fits in the
  // 16384-deep tail reservoir, so the sketch actually answers *exactly*.
  stats::QuantileSketch sketch;
  DetRng rng(7);
  constexpr std::size_t kCount = 10000000;
  std::vector<double> samples;
  samples.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    const double ms = rng.NextLatencyMs();
    samples.push_back(ms);
    sketch.RecordMs(ms);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.999, 0.9999, 0.99999}) {
    EXPECT_EQ(sketch.QuantileMs(q), ExactQuantile(samples, q)) << "q=" << q;
  }
  EXPECT_EQ(sketch.QuantileMs(1.0), samples.back());
}

// Bitwise equality of two sketch states — the determinism the grid-order
// merge and the record-log resume promise.
void ExpectSameBits(const stats::QuantileSketch& a, const stats::QuantileSketch& b) {
  const stats::QuantileSketch::State sa = a.ExportState();
  const stats::QuantileSketch::State sb = b.ExportState();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.levels, sb.levels);
  EXPECT_EQ(sa.parities, sb.parities);
  EXPECT_EQ(sa.tail, sb.tail);
  EXPECT_EQ(sa.sum_ms, sb.sum_ms);
  EXPECT_EQ(sa.min_ms, sb.min_ms);
  EXPECT_EQ(sa.max_ms, sb.max_ms);
}

TEST(QuantileSketchTest, GridOrderMergeIsAPureFunctionOfOperands) {
  // Build 8 per-cell sketches, then fold them in grid order twice from
  // scratch: the folded bits must be identical (this is what makes the
  // merged result independent of --jobs, which only changes completion
  // order, never merge order).
  std::vector<stats::QuantileSketch> cells(8);
  DetRng rng(99);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int i = 0; i < 40000; ++i) {
      cells[c].RecordMs(rng.NextLatencyMs());
    }
  }
  stats::QuantileSketch fold1;
  stats::QuantileSketch fold2;
  for (const stats::QuantileSketch& cell : cells) {
    fold1.Merge(cell);
  }
  for (const stats::QuantileSketch& cell : cells) {
    fold2.Merge(cell);
  }
  ExpectSameBits(fold1, fold2);
}

TEST(QuantileSketchTest, TailMergeIsExactAndOrderIndependent) {
  stats::QuantileSketch a;
  stats::QuantileSketch b;
  DetRng rng(3);
  std::vector<double> all;
  for (int i = 0; i < 30000; ++i) {
    const double ms = rng.NextLatencyMs();
    all.push_back(ms);
    a.RecordMs(ms);
  }
  for (int i = 0; i < 50000; ++i) {
    const double ms = rng.NextLatencyMs();
    all.push_back(ms);
    b.RecordMs(ms);
  }
  stats::QuantileSketch ab = a;
  ab.Merge(b);
  stats::QuantileSketch ba = b;
  ba.Merge(a);
  // The compactor stacks are sequence-dependent, but the exact tail — and
  // therefore every deep quantile — must commute.
  std::sort(all.begin(), all.end());
  for (const double q : {0.999, 0.9999}) {
    const double exact = ExactQuantile(all, q);
    EXPECT_EQ(ab.QuantileMs(q), exact) << "q=" << q;
    EXPECT_EQ(ba.QuantileMs(q), exact) << "q=" << q;
  }
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.max_ms(), ba.max_ms());
}

TEST(QuantileSketchTest, ExportImportRoundTripIsLossless) {
  stats::QuantileSketch original;
  DetRng rng(11);
  for (int i = 0; i < 123457; ++i) {
    original.RecordMs(rng.NextLatencyMs());
  }
  stats::QuantileSketch restored;
  ASSERT_TRUE(restored.ImportState(original.ExportState()));
  ExpectSameBits(original, restored);
  // A restored sketch must keep merging identically to the original.
  stats::QuantileSketch extra;
  for (int i = 0; i < 5000; ++i) {
    extra.RecordMs(rng.NextLatencyMs());
  }
  stats::QuantileSketch merged_orig = original;
  merged_orig.Merge(extra);
  restored.Merge(extra);
  ExpectSameBits(merged_orig, restored);
}

TEST(QuantileSketchTest, ImportRejectsCorruptSnapshots) {
  stats::QuantileSketch source;
  DetRng rng(13);
  for (int i = 0; i < 10000; ++i) {
    source.RecordMs(rng.NextLatencyMs());
  }
  const stats::QuantileSketch::State good = source.ExportState();
  stats::QuantileSketch target;
  ASSERT_TRUE(target.ImportState(good));

  // Weight conservation broken: count no longer matches the level items.
  stats::QuantileSketch::State bad = good;
  bad.count += 1;
  EXPECT_FALSE(target.ImportState(bad));
  EXPECT_EQ(target.count(), 0u);  // failed import leaves the sketch reset

  // Parity vector out of step with the levels.
  bad = good;
  bad.parities.push_back(0);
  EXPECT_FALSE(target.ImportState(bad));

  // Non-finite sample value in the tail.
  bad = good;
  ASSERT_FALSE(bad.tail.empty());
  bad.tail.front() = std::nan("");
  EXPECT_FALSE(target.ImportState(bad));

  // Tail size inconsistent with the recorded count (weight still conserved).
  bad = good;
  bad.tail.pop_back();
  EXPECT_FALSE(target.ImportState(bad));

  // Tail reordered so it is no longer a min-heap: TailInsert would keep a
  // wrong top-K on it.
  bad = good;
  std::iter_swap(bad.tail.begin(), std::max_element(bad.tail.begin(), bad.tail.end()));
  ASSERT_NE(bad.tail.front(), good.tail.front());
  EXPECT_FALSE(target.ImportState(bad));
}

// --- Tail merge against a reference ------------------------------------------
//
// Merge keeps the tail sorted and merges it linearly. The reference below is
// the tail merge as first written — sort the union, keep the top
// kTailCapacity, re-heap — plus the unchanged TailInsert for RecordMs. The
// two must agree bit for bit on every exported state.

constexpr std::size_t kTail = stats::QuantileSketch::kTailCapacity;

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double value : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(value));
  }
  return bits;
}

// A sketch and, beside it, the state the reference algorithm gives after the
// same operations. The tail merge does not touch the compactor levels
// (GridOrderMergeIsAPureFunctionOfOperands covers them), so the reference
// tracks the tail and the scalar fields.
struct Tracked {
  stats::QuantileSketch sketch;
  stats::QuantileSketch::State reference;

  void RecordMs(double ms) {
    sketch.RecordMs(ms);
    reference.min_ms = reference.count == 0 ? ms : std::min(reference.min_ms, ms);
    reference.max_ms = reference.count == 0 ? ms : std::max(reference.max_ms, ms);
    ++reference.count;
    reference.sum_ms += ms;
    std::vector<double>& tail = reference.tail;
    if (tail.size() < kTail) {
      tail.push_back(ms);
      std::push_heap(tail.begin(), tail.end(), std::greater<>());
    } else if (ms > tail.front()) {
      std::pop_heap(tail.begin(), tail.end(), std::greater<>());
      tail.back() = ms;
      std::push_heap(tail.begin(), tail.end(), std::greater<>());
    }
  }

  void Merge(const Tracked& other) {
    sketch.Merge(other.sketch);
    const stats::QuantileSketch::State& in = other.reference;
    if (in.count == 0) {
      return;
    }
    reference.min_ms = reference.count == 0 ? in.min_ms : std::min(reference.min_ms, in.min_ms);
    reference.max_ms = reference.count == 0 ? in.max_ms : std::max(reference.max_ms, in.max_ms);
    reference.count += in.count;
    reference.sum_ms += in.sum_ms;
    std::vector<double> merged = reference.tail;
    merged.insert(merged.end(), in.tail.begin(), in.tail.end());
    std::sort(merged.begin(), merged.end());
    if (merged.size() > kTail) {
      merged.erase(merged.begin(), merged.end() - kTail);
    }
    std::make_heap(merged.begin(), merged.end(), std::greater<>());
    reference.tail = std::move(merged);
  }

  // Export and re-import, as a resumed run does.
  void RoundTrip() {
    stats::QuantileSketch restored;
    ASSERT_TRUE(restored.ImportState(sketch.ExportState()));
    sketch = restored;
  }

  void ExpectMatchesReference(const std::string& where) const {
    const stats::QuantileSketch::State got = sketch.ExportState();
    EXPECT_EQ(got.count, reference.count) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sum_ms),
              std::bit_cast<std::uint64_t>(reference.sum_ms))
        << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.min_ms),
              std::bit_cast<std::uint64_t>(reference.min_ms))
        << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_ms),
              std::bit_cast<std::uint64_t>(reference.max_ms))
        << where;
    EXPECT_TRUE(Bits(got.tail) == Bits(reference.tail)) << where;
  }
};

// A cell of `count` samples. With `distinct` > 0 the values come from that
// many levels only, so the tail is full of equal values.
Tracked MakeCell(DetRng& rng, std::size_t count, std::uint64_t distinct) {
  Tracked cell;
  for (std::size_t i = 0; i < count; ++i) {
    cell.RecordMs(distinct == 0 ? rng.NextLatencyMs()
                                : 0.125 * static_cast<double>(1 + rng.Next() % distinct));
  }
  return cell;
}

TEST(QuantileSketchTest, TailMergeMatchesTheSortUnionReference) {
  const std::size_t sizes[] = {1, 37, 1400, kTail - 1, kTail, kTail + 1, 2 * kTail + 5};
  const std::uint64_t distinct[] = {0, 1, 3, 40};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DetRng rng(seed);
    Tracked acc;
    for (int step = 0; step < 14; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      switch (rng.Next() % 5) {
        case 0:
        case 1: {  // a grid-order fold of one cell, below or above the tail size
          const std::size_t size = sizes[rng.Next() % std::size(sizes)];
          acc.Merge(MakeCell(rng, size, distinct[rng.Next() % std::size(distinct)]));
          break;
        }
        case 2: {  // a merge of merged sketches
          Tracked left = MakeCell(rng, sizes[rng.Next() % std::size(sizes)], 0);
          left.Merge(MakeCell(rng, sizes[rng.Next() % std::size(sizes)], 3));
          Tracked right = MakeCell(rng, 1400, 0);
          right.Merge(MakeCell(rng, kTail + 1, 0));
          left.Merge(right);
          acc.Merge(left);
          break;
        }
        case 3: {  // RecordMs after a Merge leaves the tail in heap order
          const std::size_t count = 1 + rng.Next() % 3000;
          for (std::size_t i = 0; i < count; ++i) {
            acc.RecordMs(rng.NextLatencyMs());
          }
          break;
        }
        case 4:  // an imported sketch, its tail as exported
          acc.RoundTrip();
          break;
      }
      acc.ExpectMatchesReference(where);
    }
  }
}

TEST(QuantileSketchTest, TailMergeIntoAnImportedHeapOrderedTail) {
  DetRng rng(77);
  for (const std::size_t size : {std::size_t{500}, kTail, 3 * kTail}) {
    Tracked acc = MakeCell(rng, size, size == kTail ? 2 : 0);
    acc.RoundTrip();
    const std::vector<double> tail = acc.sketch.ExportState().tail;
    ASSERT_TRUE(std::is_heap(tail.begin(), tail.end(), std::greater<>()));
    ASSERT_FALSE(std::is_sorted(tail.begin(), tail.end())) << size;
    acc.Merge(MakeCell(rng, 1400, 0));
    acc.ExpectMatchesReference("size " + std::to_string(size));
    acc.Merge(MakeCell(rng, kTail + 7, 0));
    acc.ExpectMatchesReference("size " + std::to_string(size) + ", second merge");
  }
}

// QuantileMs answers a rank inside the exact tail by selecting the k-th
// value, not by sorting the tail. The selection must return the very double
// a full sort of the tail puts at that index: with duplicate values, with
// counts below, at and above the tail size, for tails in heap order (after
// RecordMs) and sorted (after a Merge), and at the edge quantiles.
TEST(QuantileSketchTest, ExactTailQuantileMatchesFullSort) {
  const std::size_t sizes[] = {1, 2, 37, kTail - 1, kTail, kTail + 1, 3 * kTail};
  const std::uint64_t distinct[] = {0, 1, 3, 40};
  const double quantiles[] = {0.0, 1e-9, 0.5, 0.99, 0.9999, 1.0};
  DetRng rng(29);
  int exact_answers = 0;
  for (const std::size_t size : sizes) {
    for (const std::uint64_t levels : distinct) {
      const Tracked recorded = MakeCell(rng, size, levels);
      Tracked merged = MakeCell(rng, size / 2 + 1, levels);
      merged.Merge(recorded);
      for (const stats::QuantileSketch* sketch :
           std::vector<const stats::QuantileSketch*>{&recorded.sketch, &merged.sketch}) {
        std::vector<double> sorted = sketch->ExportState().tail;
        std::sort(sorted.begin(), sorted.end());
        for (const double q : quantiles) {
          const std::string where = "size " + std::to_string(size) + " levels " +
                                    std::to_string(levels) + " q " + std::to_string(q);
          const double got = sketch->QuantileMs(q);
          if (q >= 1.0) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(sketch->max_ms()))
                << where;
            continue;
          }
          const std::uint64_t count = sketch->count();
          std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
          rank = std::max<std::uint64_t>(1, std::min(rank, count));
          const std::uint64_t above = count - rank;
          if (above >= sorted.size()) {
            continue;  // answered by the compactor estimate
          }
          ++exact_answers;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(sorted[sorted.size() - 1 - above]))
              << where;
        }
      }
    }
  }
  EXPECT_GT(exact_answers, 200);
}

// Merge folds a sorted incoming tail into the sorted accumulator in place.
// The reference is the fold it replaced: std::merge of the two ascending
// arrays into a new one, the accumulator's value first among equals, then
// erase all but the top kTailCapacity. Tails hold many duplicates, and +0.0
// and -0.0 (equal, with other bits) so a tie taken from the wrong side
// shows; the union straddles the tail size on both sides.
TEST(QuantileSketchTest, InPlaceTailFoldMatchesTheStdMergePath) {
  const std::size_t accumulators[] = {0, 1, 700, kTail - 1, kTail};
  DetRng rng(41);
  const auto cell = [&rng](std::size_t count, std::uint64_t distinct) {
    stats::QuantileSketch sketch;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t level = rng.Next() % distinct;
      sketch.RecordMs(level == 0 ? (rng.Next() % 2 == 0 ? 0.0 : -0.0)
                                 : 0.125 * static_cast<double>(level));
    }
    return sketch;
  };
  int folds = 0;
  for (const std::size_t n : accumulators) {
    // Incoming sizes that bring the union to K - 1, K and K + 1, one at
    // random and one past K.
    for (const std::size_t m : {kTail - 1 - n, kTail - n, kTail + 1 - n,
                                std::size_t{1} + rng.Next() % 3000, kTail + 5}) {
      if (m == 0 || m > kTail + 5) {
        continue;  // no union of that size with this accumulator
      }
      for (const bool sorted_incoming : {true, false}) {
        const std::uint64_t distinct = 2 + rng.Next() % 40;
        stats::QuantileSketch acc;
        if (n > 0) {
          acc.Merge(cell(n, distinct));  // a merged tail is ascending
        }
        stats::QuantileSketch incoming;
        if (sorted_incoming) {
          incoming.Merge(cell(m, distinct));
        } else {
          incoming = cell(m, distinct);  // heap order, sorted by Merge
        }
        const std::vector<double> a = acc.ExportState().tail;
        std::vector<double> b = incoming.ExportState().tail;
        ASSERT_TRUE(std::is_sorted(a.begin(), a.end()));
        ASSERT_TRUE(!sorted_incoming || std::is_sorted(b.begin(), b.end()));
        if (!std::is_sorted(b.begin(), b.end())) {
          std::sort(b.begin(), b.end());  // as Merge does: sorting moves equal values
        }
        std::vector<double> expected(a.size() + b.size());
        std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
        if (expected.size() > kTail) {
          expected.erase(expected.begin(), expected.end() - kTail);
        }
        acc.Merge(incoming);
        EXPECT_TRUE(Bits(acc.ExportState().tail) == Bits(expected))
            << "n " << n << " m " << m << " sorted " << sorted_incoming;
        ++folds;
      }
    }
  }
  EXPECT_EQ(folds, 44);
}

// A sorted tail answers a quantile by index; a heap-ordered one selects
// with nth_element. The same values in either order give the same bits.
TEST(QuantileSketchTest, SortedTailQuantileMatchesTheSelectionPath) {
  DetRng rng(53);
  for (const std::size_t size : {std::size_t{1}, std::size_t{37}, kTail - 1, kTail, 3 * kTail}) {
    for (const std::uint64_t distinct : {std::uint64_t{0}, std::uint64_t{3}}) {
      stats::QuantileSketch sorted;
      sorted.Merge(MakeCell(rng, size, distinct).sketch);
      stats::QuantileSketch::State state = sorted.ExportState();
      ASSERT_TRUE(std::is_sorted(state.tail.begin(), state.tail.end()));
      std::reverse(state.tail.begin(), state.tail.end());
      std::make_heap(state.tail.begin(), state.tail.end(), std::greater<>());
      stats::QuantileSketch heaped;
      ASSERT_TRUE(heaped.ImportState(state));
      const std::vector<double> tail = heaped.ExportState().tail;
      // With three distinct values a full tail can hold one value only.
      ASSERT_TRUE(distinct != 0 || size < 3 || !std::is_sorted(tail.begin(), tail.end()))
          << size;
      for (int k = 0; k <= 1000; ++k) {
        const double q = 1.0 - static_cast<double>(k) / 1e6;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sorted.QuantileMs(q)),
                  std::bit_cast<std::uint64_t>(heaped.QuantileMs(q)))
            << "size " << size << " q " << q;
      }
    }
  }
}

// End-to-end: the matrix's merged sketch is bit-identical across --jobs and
// through an interrupted, checkpointed, resumed run — the same contract the
// histograms already keep, now for the sketch's serialized state.
TEST(QuantileSketchTest, MatrixMergedSketchIsJobsAndResumeInvariant) {
  lab::MatrixSpec spec;
  spec.oses = {kernel::MakeNt4Profile(), kernel::MakeWin98Profile()};
  spec.workloads = {workload::GamesStress()};
  spec.priorities = {28};
  spec.trials = 2;
  spec.cell.stress_minutes = 0.05;
  spec.cell.warmup_seconds = 1.0;
  spec.master_seed = 1999;
  spec.cell.obs.sketch = true;
  const lab::ExperimentMatrix matrix(spec);

  lab::MatrixRunOptions jobs1;
  jobs1.jobs = 1;
  const lab::MatrixResult r1 = matrix.Run(jobs1);
  ASSERT_TRUE(r1.complete()) << r1.run.error;

  lab::MatrixRunOptions jobs4;
  jobs4.jobs = 4;
  const lab::MatrixResult r4 = matrix.Run(jobs4);
  ASSERT_TRUE(r4.complete()) << r4.run.error;

  ASSERT_EQ(r1.merged.size(), r4.merged.size());
  for (std::size_t i = 0; i < r1.merged.size(); ++i) {
    EXPECT_GT(r1.merged[i].thread_sketch.count(), 0u);
    ExpectSameBits(r1.merged[i].thread_sketch, r4.merged[i].thread_sketch);
  }

  // Interrupt after 2 cells, resume at a different --jobs: still identical.
  lab::MatrixRunOptions first;
  first.jobs = 1;
  first.journal_path = testutil::TempFileFor("sketch_resume.jsonl");
  first.max_cells = 2;
  (void)matrix.Run(first);

  lab::MatrixRunOptions second;
  second.jobs = 4;
  second.journal_path = first.journal_path;
  const lab::MatrixResult resumed = matrix.Run(second);
  ASSERT_TRUE(resumed.complete()) << resumed.run.error;
  EXPECT_EQ(resumed.run.cells_restored, 2u);

  ASSERT_EQ(resumed.merged.size(), r1.merged.size());
  for (std::size_t i = 0; i < r1.merged.size(); ++i) {
    ExpectSameBits(r1.merged[i].thread_sketch, resumed.merged[i].thread_sketch);
  }
}

}  // namespace
}  // namespace wdmlat
