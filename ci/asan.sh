#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer job for the simulation core.
#
# Builds the tree with -fsanitize=address,undefined into a separate build
# directory and runs the suites that drive the dispatcher and the engine
# hardest: the kernel unit and object suites, the dispatcher tests and fuzz,
# the invariant auditor, the engine allocation and hot-path budget suite, the
# golden checksums and the SMP determinism and cross-core fuzz suites — plus
# the Chrome trace writer (its records index a side table and it serializes
# through its own buffer) and the traced lab runs that feed it — plus the
# callable the per-event layers share (sim::InplaceFunction: placement-new
# storage, relocation and the heap fallback) and the APC and I/O manager
# suites that move continuations and completion routines through it — plus
# the engine calendar's own suites: the engine, event-pool and timer units,
# the differential check against a reference calendar (timers armed,
# re-armed and disarmed among one-shots), and the reentrant dispatch fuzz,
# which drive the sorted calendar vector's inserts, lazy drops and
# compaction and a timer's persistent slot, which its owner may destroy
# before or after the engine or from inside its own callable — plus the
# ready queue's summary-mask storm against a brute-force scan — plus the
# obs sinks' suites: the metrics registry (series references held across
# inserts and merges), the anatomy (its span blocks retired whole, reused
# and split by SMP relabels, against an eager-trim reference), the flight
# recorder and its attribution scores, and the trace ring and TopBlame
# (the ring's wrap and the per-label accounting) — plus the record codec: the
# report_io writers and their strict direct reader, the deterministic mutation fuzz of record lines,
# record payloads and cell reports, and the fleet chaos merge that decodes
# damaged shard files on its decode-ahead pool — plus the same mutation fuzz
# of the hand-written-input parsers: obs::ParseJson, the fault-plan reader
# and the fleet-spec reader — plus the supervised matrix path: resume from a
# record log, the failure fixtures thrown inside a cell's run and the
# failed-cell exclusions from the merged reports and metrics — plus the two
# runners that fold cells into pools through lab::CellPool: the fleet's
# record, spec and merge suites (fleet_test, fleet_determinism_test) and the
# matrix's grid and jobs-determinism suite (matrix_determinism_test).
#
# The build keeps assert() live: RelWithDebInfo's flags are overridden so
# NDEBUG is not defined, unlike the default build, where the dispatcher's
# asserts are compiled out. -D_GLIBCXX_ASSERTIONS bounds-checks std::array
# and std::vector indexing, which covers the dispatcher's fixed frame stack.
# Any sanitizer report fails the job.
#
#   ci/asan.sh              # from the repo root
#   BUILD_DIR=... JOBS=2 ci/asan.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$BUILD_DIR" -j"${JOBS:-$(nproc)}" \
  --target kernel_units_test kernel_objects_test kernel_dispatcher_test dispatcher_fuzz_test \
  invariant_auditor_test engine_alloc_test golden_run_test smp_determinism_test \
  chrome_trace_test obs_lab_test inplace_callback_test apc_test io_manager_test \
  sim_engine_test event_pool_test timer_test calendar_differential_test \
  batch_dispatch_fuzz_test ready_queue_test \
  metrics_registry_test anatomy_test flight_recorder_test trace_test \
  report_io_test fleet_chaos_test record_codec_fuzz_test json_fuzz_test \
  resume_determinism_test fleet_test fleet_determinism_test matrix_determinism_test

ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'DpcQueueTest|ReadyQueueTest|TimerQueueTest|EventTest|IrpTest|ThreadTest|TimerTest|WorkItemTest|DispatcherTest|DispatcherFuzzTest|InvariantAuditorTest|EngineAllocTest|HotPathBudget|GoldenRunTest|SmpDeterminismTest|SmpFuzzTest|ChromeTraceTest|ObsLabTest|InplaceCallbackTest|InplaceFunctionTest|ApcTest|IoManagerTest|EngineTest|EventPoolTest|EngineTimerTest|CalendarDifferentialTest|ReadyQueueStormTest|BatchDispatchFuzzTest|MetricsRegistryTest|AnatomyTest|FlightRecorderTest|AttributionScoreTest|TraceTest|ReportIoTest|FleetChaosMerge|RecordCodecFuzzTest|JsonFuzzTest|ResumeDeterminismTest|EngineReset|FleetCells|FleetDeterminism|FleetRecords|FleetSpec|WarmCellRunner|MatrixDeterminismTest'
