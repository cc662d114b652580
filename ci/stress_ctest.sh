#!/usr/bin/env bash
# Hermeticity stress job: run the whole ctest suite in parallel, three times
# over, stopping at the first failure. Tests that share temp paths or other
# process-global state flake here long before they flake in a serial run.
#
#   ci/stress_ctest.sh                # from the repo root; expects build/
#   BUILD_DIR=build-foo JOBS=8 ci/stress_ctest.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

if [[ ! -f "${BUILD_DIR}/CTestTestfile.cmake" ]]; then
  echo "stress_ctest: no ctest tree in ${BUILD_DIR}; build the tree first" >&2
  exit 1
fi

cd "${BUILD_DIR}"
ctest -j"${JOBS}" --repeat until-fail:3 --output-on-failure
