#!/usr/bin/env bash
# SIGINT end-to-end test for the cooperative-cancellation layer: a
# journaled sweep interrupted mid-flight must exit 130, keep only whole
# committed chunks in its journal, and — once resumed — reproduce the
# uninterrupted run's artifacts byte-for-byte, at --threads 1 and 8.
# Registered in tests/CMakeLists.txt as `cancel_resume_e2e`; the built
# cimloop_tool binary comes in as $1.
set -euo pipefail

TOOL="${1:?usage: cancel_resume_test.sh /path/to/cimloop_tool}"
[ -x "${TOOL}" ] || { echo "FAIL: '${TOOL}' is not executable" >&2; exit 1; }
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# 32 points at chunk-size 1 gives the signal plenty of chunk boundaries
# to land between, and the mapping budget makes each point slow enough
# (~4 s serial total) that a SIGINT sent as soon as the first chunk
# commits reliably arrives mid-sweep. Deterministic seed: artifacts
# must be byte-stable.
SPEC="${TMP}/sweep.yaml"
cat > "${SPEC}" <<EOF
sweep:
  name: sigint-e2e
  network: mvm
  mappings: 20000
  scaled_adc: true
  axes:
    - field: array
      values: [64, 96, 128, 192, 256, 384, 512, 1024]
    - field: dac_bits
      values: [1, 2, 3, 4]
EOF

run_leg() { # threads journal_dir out_file csv json extra_args...
    local threads="$1" dir="$2" out="$3" csv="$4" json="$5"
    shift 5
    local rc=0
    "${TOOL}" --sweep "${SPEC}" --seed 3 --threads "${threads}" \
        ${dir:+--resume "${dir}"} ${dir:+--chunk-size} ${dir:+1} \
        --csv "${csv}" --json "${json}" "$@" > "${out}" 2>&1 || rc=$?
    return "${rc}"
}

for T in 1 8; do
    DIR="${TMP}/journal_t${T}"

    # Uninterrupted reference run (no journal).
    run_leg "${T}" "" "${TMP}/clean_t${T}.out" \
        "${TMP}/clean_t${T}.csv" "${TMP}/clean_t${T}.json" ||
        fail "clean run (threads ${T}) failed"

    # Interrupted leg: start in the background, wait (polling every
    # 20 ms, at most 30 s) until the journal records its first chunk
    # commit, then SIGINT once. The handler flips the token; the chunk
    # in flight commits; the process exits 130.
    "${TOOL}" --sweep "${SPEC}" --seed 3 --threads "${T}" \
        --resume "${DIR}" --chunk-size 1 \
        --csv "${TMP}/interrupted_t${T}.csv" \
        --json "${TMP}/interrupted_t${T}.json" \
        > "${TMP}/interrupted_t${T}.out" 2>&1 &
    PID=$!
    polls=0
    until grep -q '^{"chunk":' "${DIR}/manifest.jsonl" 2>/dev/null; do
        # A sweep that already exited is handled by the rc checks below.
        kill -0 "${PID}" 2>/dev/null || break
        polls=$((polls + 1))
        if [ "${polls}" -gt 1500 ]; then
            kill -KILL "${PID}" 2>/dev/null || true
            fail "no chunk commit in the journal within 30 s (threads ${T})"
        fi
        sleep 0.02
    done
    kill -INT "${PID}" 2>/dev/null || true
    rc=0
    wait "${PID}" || rc=$?

    if [ "${rc}" -eq 130 ]; then
        grep -q 'sweep cancelled (signal)' "${TMP}/interrupted_t${T}.out" ||
            fail "interrupted run (threads ${T}) missing cancel notice"
        grep -q 'paused after' "${TMP}/interrupted_t${T}.out" ||
            fail "interrupted run (threads ${T}) missing pause hint"
        grep -q -- "--resume ${DIR}" "${TMP}/interrupted_t${T}.out" ||
            fail "interrupted run (threads ${T}) missing resume hint"
        [ -f "${DIR}/manifest.jsonl" ] ||
            fail "interrupted run (threads ${T}) left no journal manifest"
        # Whole chunks only: every committed chunk's records are already
        # durable, so result lines >= commit lines (chunk size 1).
        commits="$(grep -c '^{"chunk":' "${DIR}/manifest.jsonl" || true)"
        records="$(grep -c '^{"i":' "${DIR}/results.jsonl" || true)"
        [ "${records}" -ge "${commits}" ] ||
            fail "journal (threads ${T}) commits chunks it never wrote"
    elif [ "${rc}" -eq 0 ]; then
        # The sweep won the race and finished before the signal landed.
        # Rare but legal; the resume leg below still must reproduce it.
        echo "note: sweep finished before SIGINT (threads ${T})" >&2
    else
        cat "${TMP}/interrupted_t${T}.out" >&2
        fail "interrupted run (threads ${T}) exited ${rc}, want 130 or 0"
    fi

    # Resume and compare: committed chunks are replayed from the
    # journal, the rest evaluated fresh; artifacts must be identical to
    # the uninterrupted run's.
    run_leg "${T}" "${DIR}" "${TMP}/resumed_t${T}.out" \
        "${TMP}/resumed_t${T}.csv" "${TMP}/resumed_t${T}.json" ||
        fail "resumed run (threads ${T}) failed"
    cmp -s "${TMP}/clean_t${T}.csv" "${TMP}/resumed_t${T}.csv" ||
        fail "resumed CSV (threads ${T}) differs from the clean run"
    cmp -s "${TMP}/clean_t${T}.json" "${TMP}/resumed_t${T}.json" ||
        fail "resumed JSON (threads ${T}) differs from the clean run"
    # Reports match too, modulo the artifact paths in the "wrote" lines.
    diff <(grep -v '^wrote ' "${TMP}/clean_t${T}.out") \
         <(grep -v '^wrote ' "${TMP}/resumed_t${T}.out") >/dev/null ||
        fail "resumed report (threads ${T}) differs from the clean run"
done

# Thread counts must not change the numbers either.
cmp -s "${TMP}/clean_t1.csv" "${TMP}/clean_t8.csv" ||
    fail "clean CSVs differ between --threads 1 and 8"

echo "cancel_resume_e2e: all cases passed"
