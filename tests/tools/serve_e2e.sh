#!/usr/bin/env bash
# Black-box end-to-end test for `cimloop serve`: start the real daemon
# on a Unix socket, drive it with the real NDJSON client, and hold it
# to its contracts:
#  - evaluate/sweep responses byte-identical to the one-shot CLI at the
#    same seed, at request threads 1 and 8, cold and warm cache;
#  - malformed lines get structured errors and never kill the daemon;
#  - a timeout_s request exits 124 with a "deadline" error;
#  - metrics exposes cache hit/miss growth across requests;
#  - finished connections are reaped: 200 sequential pings must not
#    grow the daemon's address space by a thread stack each;
#  - a shutdown request stops the daemon with exit 0.
# Registered in tests/CMakeLists.txt as `serve_e2e`; the built cimloop
# and cimloop_client binaries come in as $1 and $2.
set -euo pipefail

TOOL="${1:?usage: serve_e2e.sh /path/to/cimloop /path/to/cimloop_client}"
CLIENT="${2:?usage: serve_e2e.sh /path/to/cimloop /path/to/cimloop_client}"
[ -x "${TOOL}" ] || { echo "FAIL: '${TOOL}' is not executable" >&2; exit 1; }
[ -x "${CLIENT}" ] || { echo "FAIL: '${CLIENT}' is not executable" >&2; exit 1; }
TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "${SERVER_PID}" ] && kill "${SERVER_PID}" 2>/dev/null || true
    rm -rf "${TMP}"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $1" >&2
    [ -f "${TMP}/serve.log" ] && cat "${TMP}/serve.log" >&2
    exit 1
}

# mktemp -d can return a long path; AF_UNIX caps sun_path at ~107 bytes.
SOCK="${TMP}/s.sock"
SPEC="${TMP}/sweep.yaml"
cat > "${SPEC}" <<EOF
sweep:
  name: serve-e2e
  macro: base
  network: mvm
  seed: 3
  axes:
    - field: dac_bits
      values: [1, 2]
    - field: mappings
      values: [6]
EOF

"${TOOL}" serve --listen "${SOCK}" --cache-mb 64 --threads 1 \
    > "${TMP}/serve.out" 2> "${TMP}/serve.log" &
SERVER_PID=$!

# The client retries connect while the daemon binds; confirm liveness.
echo '{"id":0,"kind":"ping"}' | "${CLIENT}" --socket "${SOCK}" \
    > "${TMP}/ping.out" || fail "ping failed"
grep -q '"pong":true' "${TMP}/ping.out" || fail "ping got no pong"

# --- Determinism contract: daemon bytes == one-shot CLI bytes --------
for T in 1 8; do
    "${TOOL}" --macro base --network mvm --mappings 12 --seed 5 \
        --threads "${T}" > "${TMP}/oneshot_eval_t${T}.out" ||
        fail "one-shot evaluate (threads ${T}) failed"
    printf '{"id":1,"kind":"evaluate","macro":"base","network":"mvm","mappings":12,"seed":5,"threads":%s}\n' "${T}" |
        "${CLIENT}" --socket "${SOCK}" --extract-stdout \
        > "${TMP}/daemon_eval_t${T}.out" 2> "${TMP}/daemon_eval_t${T}.err" ||
        fail "daemon evaluate (threads ${T}) failed"
    cmp -s "${TMP}/daemon_eval_t${T}.out" "${TMP}/oneshot_eval_t${T}.out" ||
        fail "daemon evaluate stdout differs from one-shot (threads ${T})"

    "${TOOL}" --sweep "${SPEC}" --threads "${T}" \
        > "${TMP}/oneshot_sweep_t${T}.out" ||
        fail "one-shot sweep (threads ${T}) failed"
    printf '{"id":2,"kind":"sweep","sweep":"%s","threads":%s}\n' "${SPEC}" "${T}" |
        "${CLIENT}" --socket "${SOCK}" --extract-stdout \
        > "${TMP}/daemon_sweep_t${T}.out" 2> /dev/null ||
        fail "daemon sweep (threads ${T}) failed"
    cmp -s "${TMP}/daemon_sweep_t${T}.out" "${TMP}/oneshot_sweep_t${T}.out" ||
        fail "daemon sweep stdout differs from one-shot (threads ${T})"
done

# Warm cache must change counters, never bytes: repeat the threads-1
# evaluate on a fresh connection and byte-compare again.
printf '{"id":3,"kind":"evaluate","macro":"base","network":"mvm","mappings":12,"seed":5,"threads":1}\n' |
    "${CLIENT}" --socket "${SOCK}" --extract-stdout \
    > "${TMP}/daemon_eval_warm.out" 2> /dev/null ||
    fail "warm daemon evaluate failed"
cmp -s "${TMP}/daemon_eval_warm.out" "${TMP}/oneshot_eval_t1.out" ||
    fail "warm-cache evaluate bytes differ from one-shot"

# --- Robustness: garbage on the wire, daemon must keep serving -------
{
    echo 'this is not json'
    echo '{"id":4,"kind":"evaluate","mappings":"ten"}'
    echo '[]'
    echo '{"id":5,"kind":"ping"}'
} | "${CLIENT}" --socket "${SOCK}" > "${TMP}/garbage.out" 2>/dev/null && rc=0 || rc=$?
[ "${rc}" -eq 1 ] || fail "client should exit 1 when any response is not ok"
[ "$(wc -l < "${TMP}/garbage.out")" -eq 4 ] ||
    fail "expected one response line per request line"
grep -q '"kind":"parse"' "${TMP}/garbage.out" || fail "missing parse error"
grep -q '"kind":"protocol"' "${TMP}/garbage.out" || fail "missing protocol error"
tail -1 "${TMP}/garbage.out" | grep -q '"pong":true' ||
    fail "daemon stopped serving after malformed input"
kill -0 "${SERVER_PID}" 2>/dev/null || fail "daemon died on malformed input"

# --- Deadlines: timeout_s maps to exit 124 / "deadline" --------------
printf '{"id":6,"kind":"evaluate","macro":"base","network":"mvm","mappings":4000,"timeout_s":0.000001}\n' |
    "${CLIENT}" --socket "${SOCK}" > "${TMP}/timeout.out" 2>/dev/null && rc=0 || rc=$?
[ "${rc}" -eq 1 ] || fail "timed-out request should make the client exit 1"
grep -q '"exit":124' "${TMP}/timeout.out" || fail "timeout did not exit 124"
grep -q '"kind":"deadline"' "${TMP}/timeout.out" ||
    fail "timeout error kind is not deadline"

# --- Metrics: cross-request cache accounting -------------------------
echo '{"id":7,"kind":"metrics"}' | "${CLIENT}" --socket "${SOCK}" \
    > "${TMP}/metrics.out" || fail "metrics failed"
grep -q '"cache":{"hits":' "${TMP}/metrics.out" || fail "metrics lacks cache block"
grep -q '"budget_bytes":67108864' "${TMP}/metrics.out" ||
    fail "metrics does not report the --cache-mb 64 budget"
# The repeated evaluates above must have produced cross-request hits.
hits="$(sed -n 's/.*"cache":{"hits":\([0-9]*\).*/\1/p' "${TMP}/metrics.out")"
[ "${hits:-0}" -ge 1 ] || fail "no cross-request cache hits recorded"

# --- Connection reaping: VmSize stays flat over 200 pings ------------
vm_kb() {
    sed -n 's/^VmSize:[[:space:]]*\([0-9]*\) kB$/\1/p' \
        "/proc/${SERVER_PID}/status"
}
ping_once() {
    echo '{"id":9,"kind":"ping"}' | "${CLIENT}" --socket "${SOCK}" \
        > "${TMP}/reap_ping.out" || fail "ping $1 of 200 failed"
}
for i in $(seq 1 10); do ping_once "${i}"; done
vm_start="$(vm_kb)"
for i in $(seq 11 200); do ping_once "${i}"; done
vm_end="$(vm_kb)"
[ -n "${vm_start}" ] && [ -n "${vm_end}" ] ||
    fail "cannot read VmSize from /proc/${SERVER_PID}/status"
[ $((vm_end - vm_start)) -lt $((64 * 1024)) ] ||
    fail "VmSize grew from ${vm_start} kB to ${vm_end} kB over 190 pings"

# --- Graceful shutdown: exit 0, socket unlinked ----------------------
echo '{"id":8,"kind":"shutdown"}' | "${CLIENT}" --socket "${SOCK}" \
    > "${TMP}/shutdown.out" || fail "shutdown request failed"
grep -q '"shutting_down":true' "${TMP}/shutdown.out" ||
    fail "shutdown not acknowledged"
rc=0
wait "${SERVER_PID}" || rc=$?
SERVER_PID=""
[ "${rc}" -eq 0 ] || fail "daemon exited ${rc} after shutdown, want 0"
[ ! -e "${SOCK}" ] || fail "daemon left its socket behind"

echo "serve_e2e: all cases passed"
