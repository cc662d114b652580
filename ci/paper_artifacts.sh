#!/usr/bin/env bash
# The paper's artifacts under test: every reproduction program under bench/
# (at WDMLAT_MINUTES=0.1, WDMLAT_JOBS=1, seed 1999) and every example under
# examples/ (at its smallest argument; most take none) must print exactly the
# bytes they print today. Each program runs in a temp directory of its own,
# and every file it leaves there is an artifact too (table4_cause_analysis
# writes table4_sampling_sweep.csv). Host-timing lines are dropped before
# hashing: the `Wall clock:` speedup line and the "N parallel jobs" header of
# the matrix-driven programs. Each artifact's sha256 (first 16 hex digits) is
# compared with its pin below, and an artifact without a pin fails too.
#
# figure4_latency_distributions and table3_worst_case also run at
# WDMLAT_JOBS=4 and must match their jobs=1 pins: merged matrix results are
# bit-identical at any job count.
#
# A change that means to move simulated bits re-pins here in the same diff.
# To print new values, run the script: it prints a `pin:` line for every
# jobs=1 artifact that differs, in the format of the PINS table, and fails. Copy
# those lines (without `pin: `) over the old ones.
#
# Registered as the `paper_artifacts` ctest; also runnable standalone from
# the repo root:
#
#   ci/paper_artifacts.sh              # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/paper_artifacts.sh

set -euo pipefail

BUILD_DIR="$(cd "${BUILD_DIR:-build}" && pwd)"

PINS='
audio_glitch_predictor               e78e50da40f46fc2
custom_workload                      6daf07ab0b59e9fb
driver_schedulability                845d94c577cc6839
figure4_latency_distributions        153a39d4b75763a4
figure5_virus_scanner                075e042c768f0718
figure6_mttf_dpc                     4190e3fb9b007b73
figure7_mttf_thread                  66d8f8a8ec5a67a4
filter_driver                        a0321de9b523ef24
latency_cause_analysis               ab4abc1cc8c60d36
microbench_comparison                f0704b198db8a2c8
quickstart                           f4f4f6e2759e95f1
section52_schedulability             a601f6d52ffbb1ad
soft_dvd_future                      01bc44782f73bd68
softmodem_qos                        cb2e7e43d0d5778d
table1_tolerances                    17d152b6c80e877a
table3_worst_case                    3927527273dac443
table4_cause_analysis                8e2d0aa4472c27b3
table4_cause_analysis/table4_sampling_sweep.csv 0ff7d13d8413b5f5
trace_inspector                      6cb0342042624e91
validation_periodic_tool             69687bf508281943
what_if_no_win16mutex                6dffcd5e2d0a5908
win2000_preview                      7ba478b0153eb196
winstone_throughput                  15afa3b34ff5c939
'

# jobs | command line (relative to the build directory), slowest first. An
# artifact is named after its program's file name.
RUNS=(
  "1|examples/softmodem_qos"
  "1|examples/driver_schedulability"
  "1|examples/audio_glitch_predictor"
  "1|examples/what_if_no_win16mutex 0.2"
  "1|examples/custom_workload"
  "1|examples/latency_cause_analysis"
  "1|examples/soft_dvd_future"
  "1|bench/winstone_throughput"
  "1|bench/table1_tolerances"
  "1|bench/table3_worst_case"
  "4|bench/table3_worst_case"
  "1|bench/table4_cause_analysis"
  "1|bench/figure4_latency_distributions"
  "4|bench/figure4_latency_distributions"
  "1|bench/figure5_virus_scanner"
  "1|bench/figure6_mttf_dpc"
  "1|bench/figure7_mttf_thread"
  "1|bench/section52_schedulability"
  "1|bench/validation_periodic_tool"
  "1|bench/win2000_preview"
  "1|bench/microbench_comparison"
  "1|examples/quickstart"
  "1|examples/trace_inspector"
  "1|examples/filter_driver"
)
PARALLEL=4

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_paper_artifacts.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

# The artifact name of a command line: its program's file name.
run_name() {
  local program="${1%% *}"
  echo "${program##*/}"
}

# Runs one program in ${OUT}/<name>@<jobs>/run and leaves its stdout and
# stderr beside that directory.
run_one() {
  local jobs="$1" cmd="$2"
  local dir="${OUT}/$(run_name "${cmd}")@${jobs}"
  mkdir -p "${dir}/run"
  local status=0 argv
  read -r -a argv <<< "${cmd}"
  (cd "${dir}/run" && WDMLAT_MINUTES=0.1 WDMLAT_JOBS="${jobs}" WDMLAT_SEED=1999 \
     "${BUILD_DIR}/${argv[0]}" "${argv[@]:1}" > "${dir}/stdout" 2> "${dir}/stderr") \
    || status=$?
  echo "${status}" > "${dir}/status"
}

running=0
for run in "${RUNS[@]}"; do
  IFS='|' read -r jobs cmd <<< "${run}"
  if [[ ! -x "${BUILD_DIR}/${cmd%% *}" ]]; then
    echo "paper_artifacts: missing ${BUILD_DIR}/${cmd%% *}; build the tree first" >&2
    exit 1
  fi
  if [[ "${running}" -ge "${PARALLEL}" ]]; then
    wait -n
    running=$((running - 1))
  fi
  run_one "${jobs}" "${cmd}" &
  running=$((running + 1))
done
wait

hash16() { sha256sum | cut -c1-16; }

# Prints "<artifact> <hash>" for every artifact of one run.
artifacts() {
  local name="$1" dir="$2"
  echo "${name} $(grep -v -e '^Wall clock:' -e ' parallel jobs' "${dir}/stdout" | hash16)"
  local file
  while IFS= read -r file; do
    echo "${name}/${file} $(hash16 < "${dir}/run/${file}")"
  done < <(cd "${dir}/run" && find . -type f -printf '%P\n' | LC_ALL=C sort)
}

fail=0
declare -A seen
for run in "${RUNS[@]}"; do
  IFS='|' read -r jobs cmd <<< "${run}"
  name="$(run_name "${cmd}")"
  dir="${OUT}/${name}@${jobs}"
  status="$(cat "${dir}/status")"
  if [[ "${status}" -ne 0 || -s "${dir}/stderr" ]]; then
    echo "paper_artifacts: ${cmd} (WDMLAT_JOBS=${jobs}) exited ${status}:" >&2
    cat "${dir}/stderr" >&2
    fail=1
    continue
  fi
  while read -r artifact hash; do
    seen["${artifact}"]=1
    pin="$(awk -v a="${artifact}" '$1 == a { print $2 }' <<< "${PINS}")"
    if [[ "${hash}" != "${pin}" ]]; then
      echo "paper_artifacts: ${artifact} at WDMLAT_JOBS=${jobs} hashes ${hash}, pinned ${pin:-nothing}" >&2
      [[ "${jobs}" -eq 1 ]] && printf 'pin: %-36s %s\n' "${artifact}" "${hash}"
      fail=1
    fi
  done < <(artifacts "${name}" "${dir}")
done

# A pin whose artifact no run produced is stale.
while read -r artifact _; do
  if [[ -n "${artifact}" && -z "${seen[${artifact}]:-}" ]]; then
    echo "paper_artifacts: pinned ${artifact} was not produced" >&2
    fail=1
  fi
done <<< "${PINS}"

if [[ "${fail}" -ne 0 ]]; then
  exit 1
fi
echo "paper_artifacts: OK (${#seen[@]} artifacts)"
