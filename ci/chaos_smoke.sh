#!/usr/bin/env bash
# Smoke test for the self-healing fleet supervisor (wdmlat_run --fleet with
# chaos and quarantine flags):
#
#   * a clean 120-cell, 2-cohort, 3-shard run establishes the reference
#     fleet.json
#   * --chaos-seed runs (SIGKILLed workers, torn/bit-flipped shard files,
#     stalled spawns) self-heal to a byte-identical fleet.json for three
#     different seeds — fault tolerance must not perturb the science
#   * re-running a chaos command over its healed artifacts restores every
#     cell (0 executed) and re-merges byte-identically
#   * --poison-cell forces a deterministically crashing cell: the supervisor
#     bisects it into <out>/quarantine.jsonl, the merge degrades gracefully
#     (exit 0) and fleet.json carries the explicit coverage gap
#   * the CLI contract holds: supervisor flags demand --fleet and refuse
#     --shard, and --help documents them
#
# Registered as the `chaos_smoke` ctest; also runnable standalone from the
# repo root:
#
#   ci/chaos_smoke.sh                 # builds nothing, expects build/ to exist
#   BUILD_DIR=build-foo ci/chaos_smoke.sh

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
RUN="${BUILD_DIR}/cli/wdmlat_run"
CHECK="${BUILD_DIR}/cli/wdmlat_json_check"

if [[ ! -x "${RUN}" || ! -x "${CHECK}" ]]; then
  echo "chaos_smoke: missing ${RUN} or ${CHECK}; build the tree first" >&2
  exit 1
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/wdmlat_chaos_smoke.XXXXXX")"
trap 'rm -rf "${OUT}"' EXIT

# 120 screening-length cells across 2 cohorts and 3 shards: 40-cell shard
# windows sit square in HostChaos's 1-24 executed-cell kill range, so a
# chaos seed reliably murders workers mid-window instead of after the fact.
cat > "${OUT}/population.json" <<'EOF'
{
  "name": "chaos-population",
  "master_seed": 1999,
  "cohorts": [
    {
      "name": "nt-office",
      "os": "nt4",
      "workloads": ["office", "web"],
      "workload_weights": [3, 1],
      "count": 64,
      "stress_minutes": 0.0002,
      "warmup_seconds": 0.005,
      "pit_hz": 8000,
      "speed_mhz": [133, 450]
    },
    {
      "name": "98-games",
      "os": "win98",
      "workloads": ["games"],
      "count": 56,
      "stress_minutes": 0.0002,
      "warmup_seconds": 0.005,
      "pit_hz": 8000,
      "speed_mhz": [200, 400],
      "fault_plan": "irq_storm",
      "fault_prob": 0.3,
      "sketch": true
    }
  ]
}
EOF

BASE=(--fleet "${OUT}/population.json" --shards 3 --jobs 2)

# Reference: a clean supervised run.
"${RUN}" "${BASE[@]}" --fleet-out "${OUT}/clean" > "${OUT}/clean.log"
[[ -s "${OUT}/clean/fleet.json" ]] \
  || { echo "chaos_smoke: clean run left no fleet.json" >&2; exit 1; }
clean_sum="$(cksum < "${OUT}/clean/fleet.json")"

# Chaos determinism: three seeds, each self-healing to the reference bytes.
# At least one seed must actually perturb the run (supervisor stats line) —
# three all-clean draws would smoke-test nothing.
perturbed=0
for seed in 7 19 23; do
  "${RUN}" "${BASE[@]}" --fleet-out "${OUT}/chaos_${seed}" \
    --chaos-seed "${seed}" --shard-timeout-s 30 \
    > "${OUT}/chaos_${seed}.log"
  chaos_sum="$(cksum < "${OUT}/chaos_${seed}/fleet.json")"
  [[ "${chaos_sum}" == "${clean_sum}" ]] \
    || { echo "chaos_smoke: seed ${seed} fleet.json differs from clean run" >&2
         exit 1; }
  if grep -q '^supervisor:' "${OUT}/chaos_${seed}.log"; then
    perturbed=$((perturbed + 1))
  fi
done
[[ "${perturbed}" -ge 1 ]] \
  || { echo "chaos_smoke: no chaos seed perturbed the fleet" >&2; exit 1; }

# Resume over healed artifacts: same chaos command, everything restores
# (chaos kills count executed cells, and nothing executes), bytes hold.
"${RUN}" "${BASE[@]}" --fleet-out "${OUT}/chaos_7" \
  --chaos-seed 7 --shard-timeout-s 30 > "${OUT}/chaos_resume.log"
[[ "$(grep -c 'restored, 0 executed' "${OUT}/chaos_resume.log")" -eq 3 ]] \
  || { echo "chaos_smoke: chaos resume should restore all 3 shards" >&2
       exit 1; }
resume_sum="$(cksum < "${OUT}/chaos_7/fleet.json")"
[[ "${resume_sum}" == "${clean_sum}" ]] \
  || { echo "chaos_smoke: chaos resume re-merge differs" >&2; exit 1; }

# Poisoned cell: a deterministic per-cell crash is bisected into the
# quarantine manifest, the merge degrades gracefully, and the report
# carries the coverage gap explicitly. Exit 0 — degraded is a result.
"${RUN}" "${BASE[@]}" --fleet-out "${OUT}/poison" --poison-cell 13 \
  > "${OUT}/poison.log"
grep -q 'QUARANTINED 1 cell' "${OUT}/poison.log" \
  || { echo "chaos_smoke: poison run should report the quarantined cell" >&2
       exit 1; }
[[ -s "${OUT}/poison/quarantine.jsonl" ]] \
  || { echo "chaos_smoke: poison run left no quarantine manifest" >&2; exit 1; }
"${CHECK}" "${OUT}/poison/quarantine.jsonl" \
  --require-key=cell --require-key=seed --require-key=taxonomy \
  --require-key=attempts > /dev/null \
  || { echo "chaos_smoke: quarantine manifest failed json check" >&2; exit 1; }
grep -q '"cell": "13"' "${OUT}/poison/quarantine.jsonl" \
  || { echo "chaos_smoke: manifest should quarantine cell 13" >&2; exit 1; }
grep -q '"cells_quarantined": "1"' "${OUT}/poison/fleet.json" \
  || { echo "chaos_smoke: fleet.json should carry the coverage gap" >&2
       exit 1; }
"${CHECK}" "${OUT}/poison/fleet.json" \
  --require-key=format --require-key=fingerprint --require-key=cohorts \
  --require-key=quarantine \
  || { echo "chaos_smoke: degraded fleet.json failed json check" >&2; exit 1; }

# Poison resume: the manifest declares the gap, so the re-run restores the
# 119 completed cells, executes nothing, and re-merges byte-identically.
poison_sum="$(cksum < "${OUT}/poison/fleet.json")"
"${RUN}" "${BASE[@]}" --fleet-out "${OUT}/poison" --poison-cell 13 \
  > "${OUT}/poison_resume.log"
[[ "$(grep -c 'restored, 0 executed' "${OUT}/poison_resume.log")" -eq 3 ]] \
  || { echo "chaos_smoke: poison resume should restore all 3 shards" >&2
       exit 1; }
resume_poison_sum="$(cksum < "${OUT}/poison/fleet.json")"
[[ "${poison_sum}" == "${resume_poison_sum}" ]] \
  || { echo "chaos_smoke: poison resume re-merge differs" >&2; exit 1; }

# CLI contract: supervisor flags demand --fleet (usage error 2) and refuse
# to ride a worker invocation.
status=0
"${RUN}" --chaos-seed 7 2> /dev/null || status=$?
[[ "${status}" -eq 2 ]] \
  || { echo "chaos_smoke: --chaos-seed without --fleet exited ${status}, want 2" >&2
       exit 1; }
status=0
"${RUN}" "${BASE[@]}" --fleet-out "${OUT}/bad" --shard 0/3 --shard-timeout-s 5 \
  2> /dev/null || status=$?
[[ "${status}" -eq 2 ]] \
  || { echo "chaos_smoke: --shard-timeout-s with --shard exited ${status}, want 2" >&2
       exit 1; }
# Read the help once: piping it into `grep -q`, which exits at its first
# match, can kill wdmlat_run with SIGPIPE, and pipefail makes that a failure.
help="$("${RUN}" --help)"
for flag in --shard-timeout-s --shard-retries --chaos-seed \
            --poison-cell --quarantine; do
  grep -q -- "${flag}" <<< "${help}" \
    || { echo "chaos_smoke: --help does not document ${flag}" >&2; exit 1; }
done

echo "chaos_smoke: OK (3 chaos seeds byte-stable, poisoned cell quarantined)"
