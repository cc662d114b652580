#!/usr/bin/env bash
# Hot-path callable lint: the per-event layers (src/sim, src/kernel, src/hw,
# src/drivers, src/workload) have one callable type, sim::InplaceFunction
# (src/sim/inplace_callback.h). Fails, printing the offending lines, if
# std::function or <functional> appears anywhere under them, comments
# included.
#
# Registered as the `hot_path_lint` ctest; also runnable standalone from the
# repo root (it needs no build):
#
#   ci/hot_path_lint.sh

set -euo pipefail
cd "$(dirname "$0")/.."

status=0
grep -rnE 'std::function|<functional>' src/sim src/kernel src/hw src/drivers src/workload ||
  status=$?
case "$status" in
  0)
    echo "hot_path_lint: FAIL: use sim::InplaceFunction in the per-event layers" >&2
    exit 1
    ;;
  1)
    echo "hot_path_lint: ok"
    ;;
  *)
    echo "hot_path_lint: grep failed (status $status)" >&2
    exit 2
    ;;
esac
