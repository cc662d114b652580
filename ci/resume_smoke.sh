#!/usr/bin/env bash
# Smoke test for supervised, resumable matrix runs:
#
#   * a run interrupted by --max-cells exits 4 and leaves a resumable
#     record log (one JSON-checked record line per finished cell)
#   * re-running the same command restores the finished cells bit-exactly
#     and re-runs the rest: the merged table is byte-identical to an
#     uninterrupted run, at --jobs=1 and --jobs=4 alike
#   * a re-run under a different --minutes (another spec) exits 2 and
#     leaves the record log untouched, and so does a re-run under a fault
#     plan that differs from the log's in one duration
#   * the --audit-fail-cell fixture degrades exactly one cell to a
#     structured [invariant_violation] failure (exit 3) while every other
#     cell completes, and the --throw-cell fixture does the same through
#     the exception barrier ([exception]); both throw inside the cell's
#     run, so each diagnostic lists the black box's most recent events
#   * a cell that keeps no latency samples fails the run (exit 3), as a
#     single cell and as every cell of a matrix
#
# Registered as the `resume_smoke` ctest; also runnable standalone from the
# repo root:
#
#   ci/resume_smoke.sh                # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/resume_smoke.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
RUN="${BUILD_DIR}/cli/wdmlat_run"
CHECK="${BUILD_DIR}/cli/wdmlat_json_check"

if [[ ! -x "${RUN}" || ! -x "${CHECK}" ]]; then
  echo "resume_smoke: missing ${RUN} or ${CHECK}; build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_resume_smoke.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

GRID=(--matrix --minutes 0.05 --seed 1999)

# Reference: the uninterrupted 16-cell grid. Its merged table (the lines
# naming an OS) is the byte-exact target every resumed run must reproduce.
"${RUN}" "${GRID[@]}" --jobs 1 > "${OUT}/ref.log"
grep '^  Windows' "${OUT}/ref.log" > "${OUT}/ref.rows"
[[ "$(wc -l < "${OUT}/ref.rows")" -eq 16 ]] \
  || { echo "resume_smoke: expected 16 merged rows in reference run" >&2; exit 1; }

# Interrupt: --max-cells 6 runs cells [0, 6) of 16 — exit code 4, and the
# record log holds exactly 6 lines.
status=0
"${RUN}" "${GRID[@]}" --jobs 1 --journal "${OUT}/run.jsonl" --max-cells 6 \
  > "${OUT}/interrupt.log" || status=$?
[[ "${status}" -eq 4 ]] \
  || { echo "resume_smoke: interrupted run exited ${status}, want 4" >&2; exit 1; }
grep -q 'interrupted after 6 cell(s)' "${OUT}/interrupt.log" \
  || { echo "resume_smoke: missing interruption notice" >&2; exit 1; }
[[ "$(wc -l < "${OUT}/run.jsonl")" -eq 6 ]] \
  || { echo "resume_smoke: record log should hold 6 records" >&2; exit 1; }
[[ ! -e "${OUT}/run.jsonl.cells" ]] \
  || { echo "resume_smoke: record log must not leave an artifact directory" >&2; exit 1; }

# Every line is one JSON record: {cell, seed, spec, checksum, payload}.
n=0
while IFS= read -r line; do
  n=$((n + 1))
  printf '%s\n' "${line}" > "${OUT}/record.json"
  "${CHECK}" "${OUT}/record.json" --require-key=cell --require-key=seed \
    --require-key=spec --require-key=checksum --require-key=payload > /dev/null \
    || { echo "resume_smoke: record ${n} failed json check" >&2; exit 1; }
done < "${OUT}/run.jsonl"

# Resume = re-run the same command (without the cap) on the same log. Keep a
# pristine copy so the --jobs 4 resume starts from the same checkpoint.
cp "${OUT}/run.jsonl" "${OUT}/run4.jsonl"
for jobs in 1 4; do
  log="${OUT}/run.jsonl"
  [[ "${jobs}" -eq 4 ]] && log="${OUT}/run4.jsonl"
  "${RUN}" "${GRID[@]}" --jobs "${jobs}" --journal "${log}" \
    > "${OUT}/resume${jobs}.log"
  grep -q 'resumed: 6 cell(s) restored' "${OUT}/resume${jobs}.log" \
    || { echo "resume_smoke: --jobs=${jobs} resume did not restore 6 cells" >&2; exit 1; }
  grep '^  Windows' "${OUT}/resume${jobs}.log" > "${OUT}/resume${jobs}.rows"
  cmp -s "${OUT}/ref.rows" "${OUT}/resume${jobs}.rows" \
    || { echo "resume_smoke: --jobs=${jobs} resumed merge differs from fresh run" >&2; exit 1; }
done
cmp -s "${OUT}/run.jsonl" "${OUT}/run4.jsonl" \
  || { echo "resume_smoke: resumed record logs differ across --jobs" >&2; exit 1; }

# Spec binding: the same log under a different --minutes is refused with
# exit 2 before any cell runs, and the log is left untouched.
cp "${OUT}/run.jsonl" "${OUT}/before.jsonl"
status=0
"${RUN}" --matrix --minutes 0.06 --seed 1999 --jobs 1 --journal "${OUT}/run.jsonl" \
  > "${OUT}/edited.log" 2> "${OUT}/edited.err" || status=$?
[[ "${status}" -eq 2 ]] \
  || { echo "resume_smoke: edited-spec resume exited ${status}, want 2" >&2; exit 1; }
grep -q 'refusing to resume' "${OUT}/edited.err" \
  || { echo "resume_smoke: missing spec-mismatch diagnostic" >&2; exit 1; }
! grep -q '^  ok:' "${OUT}/edited.log" \
  || { echo "resume_smoke: edited-spec run executed cells" >&2; exit 1; }
cmp -s "${OUT}/before.jsonl" "${OUT}/run.jsonl" \
  || { echo "resume_smoke: refused resume modified the record log" >&2; exit 1; }

# The fault plan binds the spec to its last field: a log written under one
# plan is refused (exit 2, log untouched) under a plan that differs only in
# its lockout's duration.
for us in 200 20000; do
  cat > "${OUT}/plan${us}.json" <<EOF
{"name": "agg", "seed": 7, "faults": [
  {"kind": "lockout_hold", "trigger": "poisson", "rate_per_s": 5.0, "duration_us": ${us}}]}
EOF
done
status=0
"${RUN}" "${GRID[@]}" --jobs 2 --faults "${OUT}/plan200.json" --journal "${OUT}/plan.jsonl" \
  --max-cells 2 > /dev/null || status=$?
[[ "${status}" -eq 4 ]] \
  || { echo "resume_smoke: fault-plan run exited ${status}, want 4" >&2; exit 1; }
cp "${OUT}/plan.jsonl" "${OUT}/plan_before.jsonl"
status=0
"${RUN}" "${GRID[@]}" --jobs 2 --faults "${OUT}/plan20000.json" --journal "${OUT}/plan.jsonl" \
  > "${OUT}/plan_edited.log" 2> "${OUT}/plan_edited.err" || status=$?
[[ "${status}" -eq 2 ]] \
  || { echo "resume_smoke: edited-plan resume exited ${status}, want 2" >&2; exit 1; }
grep -q 'refusing to resume' "${OUT}/plan_edited.err" \
  || { echo "resume_smoke: missing edited-plan diagnostic" >&2; exit 1; }
cmp -s "${OUT}/plan_before.jsonl" "${OUT}/plan.jsonl" \
  || { echo "resume_smoke: refused edited-plan resume modified the record log" >&2; exit 1; }

# Crash isolation: a forced invariant violation in cell 2 fails exactly that
# cell with its taxonomy and a diagnostic bundle; the other 15 complete and
# the process exits 3.
status=0
"${RUN}" "${GRID[@]}" --jobs 2 --audit-fail-cell 2 \
  > "${OUT}/fixture.log" 2> "${OUT}/fixture.err" || status=$?
[[ "${status}" -eq 3 ]] \
  || { echo "resume_smoke: fixture run exited ${status}, want 3" >&2; exit 1; }
grep -q '\[invariant_violation\]' "${OUT}/fixture.err" \
  || { echo "resume_smoke: failure lacks invariant_violation taxonomy" >&2; exit 1; }
grep -q 'cell 2 ' "${OUT}/fixture.err" \
  || { echo "resume_smoke: failure does not name cell 2" >&2; exit 1; }
[[ "$(grep -c '^  ok:' "${OUT}/fixture.log")" -eq 15 ]] \
  || { echo "resume_smoke: expected the other 15 cells to complete" >&2; exit 1; }
grep -q '1 cell(s) failed out of 16' "${OUT}/fixture.err" \
  || { echo "resume_smoke: missing failure summary" >&2; exit 1; }
grep -q 'Most recent events:' "${OUT}/fixture.err" \
  || { echo "resume_smoke: audit failure diagnostic lists no events" >&2; exit 1; }

# Exception barrier: a cell that throws (cell 5) fails with the [exception]
# taxonomy, is never retried, and the other 15 cells complete (exit 3). It
# throws after its first virtual second, so its black box holds events.
status=0
"${RUN}" "${GRID[@]}" --jobs 2 --throw-cell 5 \
  > "${OUT}/throw.log" 2> "${OUT}/throw.err" || status=$?
[[ "${status}" -eq 3 ]] \
  || { echo "resume_smoke: --throw-cell run exited ${status}, want 3" >&2; exit 1; }
grep -q '\[exception\]' "${OUT}/throw.err" \
  || { echo "resume_smoke: failure lacks exception taxonomy" >&2; exit 1; }
grep -q 'cell 5 ' "${OUT}/throw.err" \
  || { echo "resume_smoke: failure does not name cell 5" >&2; exit 1; }
[[ "$(grep -c '^  ok:' "${OUT}/throw.log")" -eq 15 ]] \
  || { echo "resume_smoke: expected the other 15 cells to complete" >&2; exit 1; }
grep -q '1 cell(s) failed out of 16' "${OUT}/throw.err" \
  || { echo "resume_smoke: missing failure summary for --throw-cell" >&2; exit 1; }
grep -q 'Most recent events:' "${OUT}/throw.err" \
  || { echo "resume_smoke: --throw-cell diagnostic lists no events" >&2; exit 1; }

# Empty cells: a run too short to keep one sample is a failure, not an
# all-zero table. The single cell says so and exits 3; the matrix names
# every such cell and exits 3.
status=0
"${RUN}" --minutes 0.00001 --seed 1 > "${OUT}/empty.log" 2> "${OUT}/empty.err" || status=$?
[[ "${status}" -eq 3 ]] \
  || { echo "resume_smoke: sampleless cell exited ${status}, want 3" >&2; exit 1; }
grep -q 'the run kept no latency samples' "${OUT}/empty.err" \
  || { echo "resume_smoke: sampleless cell lacks its diagnostic" >&2; exit 1; }
status=0
"${RUN}" --matrix --minutes 0.00001 --seed 1 --jobs 2 \
  > "${OUT}/empty_matrix.log" 2> "${OUT}/empty_matrix.err" || status=$?
[[ "${status}" -eq 3 ]] \
  || { echo "resume_smoke: sampleless matrix exited ${status}, want 3" >&2; exit 1; }
[[ "$(grep -c 'kept no latency samples' "${OUT}/empty_matrix.err")" -eq 16 ]] \
  || { echo "resume_smoke: sampleless matrix should name all 16 cells" >&2; exit 1; }
grep -q '16 cell(s) kept no samples out of 16' "${OUT}/empty_matrix.err" \
  || { echo "resume_smoke: missing sampleless-cell summary" >&2; exit 1; }

echo "resume_smoke: OK"
