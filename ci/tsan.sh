#!/usr/bin/env bash
# ThreadSanitizer job for the parallel experiment-matrix runner.
#
# Builds the tree with -fsanitize=thread into a separate build directory and
# runs the concurrency-sensitive suites: the thread pool, the histogram-merge
# algebra, the quantile-sketch merge algebra, and the jobs=1-vs-jobs=4 matrix
# determinism contract. Any data race in the parallel runner fails the job.
# The batched-dispatch reentrancy fuzz rides along so the engine's drain
# loop gets an instrumented shakeout in the same build, and the fleet
# determinism suite covers the shard runner's parallel cells funneling into
# the ordered record writer. The fleet chaos suite covers the shard merge:
# worker threads decode records ahead while the coordinator thread folds
# them, sketches included, in grid order. The SMP determinism + cross-core
# fuzz suites run here too: SMP matrix cells exercise the parallel runner
# with per-core dispatcher state, the most state-rich payload the workers
# carry.
#
#   ci/tsan.sh              # from the repo root
#   BUILD_DIR=... ci/tsan.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$BUILD_DIR" -j \
  --target thread_pool_test histogram_merge_test matrix_determinism_test \
  batch_dispatch_fuzz_test quantile_sketch_test fleet_determinism_test \
  fleet_chaos_test smp_determinism_test

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'ThreadPoolTest|HistogramMergeTest|SampleCountersTest|MatrixDeterminismTest|BatchDispatchFuzzTest|QuantileSketchTest|FleetDeterminism|FleetChaosMerge|SmpDeterminismTest|SmpFuzzTest'
