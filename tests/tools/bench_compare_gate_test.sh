#!/usr/bin/env bash
# Self-test for scripts/bench_compare.sh using fixture snapshots: the
# gate must pass matching runs, fail regressed ones (with REGRESSED in
# the report), tolerate improvements, fail when a gated kernel vanishes
# from the current run (MISSING), error out when no gated kernel is
# present, and gate repetition snapshots on their median aggregate. Registered in tests/CMakeLists.txt as
# `bench_compare_gate`, so tier-1 ctest exercises the gate itself.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
COMPARE="${REPO_ROOT}/scripts/bench_compare.sh"
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

# Minimal google-benchmark-shaped snapshots. BM_RefsimBitWalk is
# gated by the default BENCH_GATE_REGEX; BM_Ungated is context only.
# The aggregate entry and the errored entry must both be ignored.
write_snapshot() { # path gated_ns ungated_ns
    cat > "$1" <<EOF
{
  "context": {
    "cimloop_build_type": "release",
    "library_build_type": "release"
  },
  "benchmarks": [
    {"name": "BM_RefsimBitWalk", "run_type": "iteration",
     "real_time": $2, "time_unit": "ns"},
    {"name": "BM_RefsimBitWalk_mean", "run_type": "aggregate",
     "real_time": 999999, "time_unit": "ns"},
    {"name": "BM_Broken", "run_type": "iteration",
     "error_occurred": true, "real_time": 1, "time_unit": "ns"},
    {"name": "BM_Ungated", "run_type": "iteration",
     "real_time": $3, "time_unit": "us"}
  ]
}
EOF
}

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

write_snapshot "${TMP}/base.json" 1000 5
write_snapshot "${TMP}/same.json" 1000 5
write_snapshot "${TMP}/regressed.json" 2000 5  # gated kernel 2x slower
write_snapshot "${TMP}/improved.json" 400 5000 # gated faster, ungated 1000x slower
write_snapshot "${TMP}/faster_base.json" 500 5

# 1. Identical snapshots pass.
BENCH_REPORT="${TMP}/report_ok.txt" \
    "${COMPARE}" -b "${TMP}/base.json" -c "${TMP}/same.json" >/dev/null ||
    fail "identical snapshots should pass"
grep -q 'OK: all gated kernels within tolerance' "${TMP}/report_ok.txt" ||
    fail "passing report missing OK line"

# 2. A gated 2x slowdown fails with exit 1 and REGRESSED in the report.
if BENCH_REPORT="${TMP}/report_bad.txt" \
    "${COMPARE}" -b "${TMP}/base.json" -c "${TMP}/regressed.json" \
    >/dev/null; then
    fail "regressed snapshot should exit nonzero"
fi
rc=0
BENCH_REPORT="${TMP}/report_bad.txt" \
    "${COMPARE}" -b "${TMP}/base.json" -c "${TMP}/regressed.json" \
    >/dev/null || rc=$?
[ "${rc}" -eq 1 ] || fail "regression should exit 1, got ${rc}"
grep -q 'REGRESSED' "${TMP}/report_bad.txt" ||
    fail "failing report missing REGRESSED verdict"
grep -q 'BM_RefsimBitWalk' "${TMP}/report_bad.txt" ||
    fail "failing report does not name the regressed kernel"

# 3. Improvements pass, and ungated kernels never trip the gate even
#    when wildly slower.
BENCH_REPORT="${TMP}/report_improved.txt" \
    "${COMPARE}" -b "${TMP}/base.json" -c "${TMP}/improved.json" \
    >/dev/null || fail "improvement (+ ungated slowdown) should pass"
grep -q 'improved' "${TMP}/report_improved.txt" ||
    fail "improvement not marked in report"

# 4. A regression below the 50% tolerance passes at the CI-style loose
#    setting: 500ns -> 1000ns is +100%, so it still fails there; but
#    1000 -> regressed 2000 within tolerance 150 passes.
BENCH_TOLERANCE_PCT=150 BENCH_REPORT="${TMP}/report_tol.txt" \
    "${COMPARE}" -b "${TMP}/base.json" -c "${TMP}/regressed.json" \
    >/dev/null || fail "slowdown inside a loose tolerance should pass"

# 5. No gated kernel in either snapshot -> exit 2 (misconfiguration).
rc=0
BENCH_GATE_REGEX='^BM_DoesNotExist$' BENCH_REPORT="${TMP}/report_none.txt" \
    "${COMPARE}" -b "${TMP}/base.json" -c "${TMP}/same.json" \
    >/dev/null || rc=$?
[ "${rc}" -eq 2 ] || fail "empty gate should exit 2, got ${rc}"

# 6. A gated kernel in the baseline but absent from the current run
#    fails with exit 1 and MISSING, even when every kernel that is
#    present is within tolerance.
write_names() { # path names...
    local path="$1" sep="" name
    shift
    {
        echo '{"context": {"cimloop_build_type": "release"}, "benchmarks": ['
        for name in "$@"; do
            printf '%s{"name": "%s", "run_type": "iteration",' \
                "${sep}" "${name}"
            printf ' "real_time": 1000, "time_unit": "ns"}\n'
            sep=","
        done
        echo ']}'
    } > "${path}"
}
write_names "${TMP}/two.json" BM_RefsimBitWalk BM_Evaluate
write_names "${TMP}/one.json" BM_Evaluate
rc=0
BENCH_REPORT="${TMP}/report_missing.txt" \
    "${COMPARE}" -b "${TMP}/two.json" -c "${TMP}/one.json" \
    >/dev/null || rc=$?
[ "${rc}" -eq 1 ] || fail "missing gated kernel should exit 1, got ${rc}"
grep -q 'BM_RefsimBitWalk.*MISSING' "${TMP}/report_missing.txt" ||
    fail "report does not mark the vanished gated kernel MISSING"
# An ungated kernel may come and go freely.
write_names "${TMP}/extra.json" BM_Evaluate BM_Ungated
BENCH_REPORT="${TMP}/report_ungated.txt" \
    "${COMPARE}" -b "${TMP}/extra.json" -c "${TMP}/one.json" \
    >/dev/null || fail "a vanished ungated kernel should pass"

# 7. Repetition snapshots (aggregates only, as bench_snapshot.sh records
#    them) gate on the median: a mean dragged up by one slow repetition
#    does not trip the gate, a slower median does, and an old
#    single-run baseline compares against the current median.
write_aggregates() { # path median_ns mean_ns
    cat > "$1" <<EOF
{
  "context": {"cimloop_build_type": "release"},
  "benchmarks": [
    {"name": "BM_RefsimBitWalk_mean", "run_name": "BM_RefsimBitWalk",
     "run_type": "aggregate", "aggregate_name": "mean",
     "real_time": $3, "time_unit": "ns"},
    {"name": "BM_RefsimBitWalk_median",
     "run_name": "BM_RefsimBitWalk", "run_type": "aggregate",
     "aggregate_name": "median", "real_time": $2, "time_unit": "ns"},
    {"name": "BM_RefsimBitWalk_stddev",
     "run_name": "BM_RefsimBitWalk", "run_type": "aggregate",
     "aggregate_name": "stddev", "real_time": 50, "time_unit": "ns"}
  ]
}
EOF
}
write_aggregates "${TMP}/agg_base.json" 1000 1000
write_aggregates "${TMP}/agg_outlier.json" 1050 9000 # one slow repetition
write_aggregates "${TMP}/agg_slow.json" 2000 2000
BENCH_REPORT="${TMP}/report_agg_ok.txt" \
    "${COMPARE}" -b "${TMP}/agg_base.json" -c "${TMP}/agg_outlier.json" \
    >/dev/null || fail "a median within tolerance should pass"
grep -q 'BM_RefsimBitWalk .* 1000.0 .* 1050.0' \
    "${TMP}/report_agg_ok.txt" ||
    fail "report does not compare the median aggregates"
if grep -q 'BM_RefsimBitWalk_m' "${TMP}/report_agg_ok.txt"; then
    fail "aggregate entries must not appear as kernels of their own"
fi
rc=0
BENCH_REPORT="${TMP}/report_agg_bad.txt" \
    "${COMPARE}" -b "${TMP}/agg_base.json" -c "${TMP}/agg_slow.json" \
    >/dev/null || rc=$?
[ "${rc}" -eq 1 ] || fail "a regressed median should exit 1, got ${rc}"
grep -q 'BM_RefsimBitWalk.*REGRESSED' "${TMP}/report_agg_bad.txt" ||
    fail "report does not mark the regressed median"
rc=0
BENCH_REPORT="${TMP}/report_agg_mixed.txt" \
    "${COMPARE}" -b "${TMP}/faster_base.json" -c "${TMP}/agg_base.json" \
    >/dev/null || rc=$?
[ "${rc}" -eq 1 ] ||
    fail "single-run 500ns vs median 1000ns should exit 1, got ${rc}"

echo "bench_compare_gate: all cases passed"
