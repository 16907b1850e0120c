#!/usr/bin/env bash
# CLI metrics regression: runs the cimloop tool with --metrics=FILE on the
# built-in example specs, extracts the deterministic "counters" block from
# the metrics JSON (the same byte-comparable surface tests/regress uses),
# and diffs it against the goldens under tests/regress/golden/.
#
#   scripts/metrics_regress.sh            # compare against goldens
#   UPDATE=1 scripts/metrics_regress.sh   # regenerate the goldens
#
# Counters are deterministic at fixed seed for any --threads, so any diff
# is a real behavior change (different kernel path, different search
# trajectory, different cache economy) — review it like code.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
CLI="${BUILD_DIR}/tools/cimloop"
GOLDEN_DIR=tests/regress/golden

if [ ! -x "${CLI}" ]; then
    echo "error: ${CLI} not built (cmake --build ${BUILD_DIR} --target cimloop_tool)" >&2
    exit 2
fi

status=0

run_case() {
    local name="$1"
    shift
    local tmp
    tmp="$(mktemp /tmp/cimloop_metrics_regress.XXXXXX)"
    "${CLI}" "$@" --metrics="${tmp}.json" >/dev/null
    # Keep this extraction in sync with obs::countersJson's layout.
    sed -n '/^"counters": {$/,/^},$/p' "${tmp}.json" > "${tmp}.counters"
    if [ ! -s "${tmp}.counters" ]; then
        echo "FAIL ${name}: no counters block in metrics JSON" >&2
        status=1
    elif [ "${UPDATE:-0}" = "1" ]; then
        cp "${tmp}.counters" "${GOLDEN_DIR}/cli_${name}.counters"
        echo "updated ${GOLDEN_DIR}/cli_${name}.counters"
    elif diff -u "${GOLDEN_DIR}/cli_${name}.counters" "${tmp}.counters"; then
        echo "ok ${name}"
    else
        echo "FAIL ${name}: counters drifted (UPDATE=1 to regenerate)" >&2
        status=1
    fi
    rm -f "${tmp}" "${tmp}.json" "${tmp}.counters"
}

run_case engine_mvm \
    --macro base --network mvm --mappings 40 --seed 1 --threads 2
run_case engine_mvm_faults \
    --macro base --network mvm --mappings 40 --seed 1 --threads 2 \
    --fault-stuck-rate 0.02 --fault-sigma 0.1
run_case refsim_mvm \
    --refsim --network mvm --refsim-vectors 4 --seed 1 --threads 2
# Cell faults keep the value-level walk on its floating-point levels;
# the fault-free case above runs the 1-bit planes.
run_case refsim_mvm_faults \
    --refsim --network mvm --refsim-vectors 4 --seed 1 --threads 2 \
    --fault-stuck-rate 0.02 --fault-sigma 0.1
# Layout x mapping co-search: pins the candidate count, the search
# counters scaled by the layout enumeration, and the bank-conflict
# cycle total.
run_case engine_mvm_cosearch \
    --macro base --network mvm --mappings 40 --seed 1 --threads 2 \
    --objective delay --layout-search
# The example sweep grid: 50 points including a failing design and
# cross-point per-action cache reuse (dse.cache.hits pins the economy).
run_case sweep_mvm \
    --sweep examples/sweep.yaml --seed 1 --threads 2
# The layout sweep grid: fixed presets vs per-point co-search, sharing
# per-action tables across layout values (layouts never change them).
run_case sweep_mvm_layout \
    --sweep examples/layout_sweep.yaml --seed 1 --threads 2

exit "${status}"
