#!/usr/bin/env bash
# Hot-path lint. Fails, printing the offending lines, if
#
#  - std::function or <functional> appears anywhere under the per-event
#    layers (src/sim, src/kernel, src/hw, src/drivers, src/workload): they
#    have one callable type, sim::InplaceFunction (src/sim/inplace_callback.h);
#  - std::deque or <deque> appears anywhere under src/obs: the sinks run once
#    per trace event and keep their trailing storage in reused buffers (the
#    anatomy's span blocks), which a deque's per-block allocation would undo;
#  - EventHandle appears anywhere under src: the type is gone. The engine's
#    calendar holds live entries only, and the one cancellable event is a
#    sim::Timer, whose callable is built once and whose disarm erases its
#    entry; recurring completions (the dispatcher's thread and frame
#    completions, the PIT, UHCI and audio device periods) re-arm one.
#  - snprintf with a "%.6f" format appears on one line under src/obs: the
#    sinks print fixed six-decimal numbers through obs::AppendFixed6
#    (src/obs/chrome_trace.h), one formatter that matches printf("%.6f")
#    byte for byte at any magnitude, without a fixed-size buffer to truncate.
#
# Comments count too. Registered as the `hot_path_lint` ctest; also runnable
# standalone from the repo root (it needs no build):
#
#   ci/hot_path_lint.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Runs grep over the given paths and fails with `message` on any match.
check() {
  local pattern="$1" message="$2"
  shift 2
  local status=0
  grep -rnE "$pattern" "$@" || status=$?
  case "$status" in
    0)
      echo "hot_path_lint: FAIL: $message" >&2
      return 1
      ;;
    1)
      return 0
      ;;
    *)
      echo "hot_path_lint: grep failed (status $status)" >&2
      exit 2
      ;;
  esac
}

failed=0
check 'std::function|<functional>' "use sim::InplaceFunction in the per-event layers" \
  src/sim src/kernel src/hw src/drivers src/workload || failed=1
check 'std::deque|<deque>' "keep obs sink storage in reused buffers, not std::deque" \
  src/obs || failed=1
check 'EventHandle' "arm and disarm a sim::Timer; EventHandle no longer exists" \
  src || failed=1
check 'snprintf.*%\.6f' "format %.6f numbers with obs::AppendFixed6, not snprintf" \
  src/obs || failed=1
if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "hot_path_lint: ok"
