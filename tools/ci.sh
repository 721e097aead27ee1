#!/usr/bin/env bash
# ci.sh — the one-shot correctness gate: build -> lint -> tier-1 ctest ->
# bench smoke. Exits nonzero on the first failing stage. Also exposed as the
# `ci` CMake target (`cmake --build build --target ci`).
#
# Environment:
#   IMAP_CI_BUILD_DIR  build directory (default: build)
#   IMAP_CI_WERROR     ON/OFF, build with -Werror hardening (default: ON)
#   IMAP_CI_JOBS       parallel build/test jobs (default: nproc)
set -u

cd "$(dirname "$0")/.."
BUILD_DIR="${IMAP_CI_BUILD_DIR:-build}"
WERROR="${IMAP_CI_WERROR:-ON}"
JOBS="${IMAP_CI_JOBS:-$(nproc)}"

stage() { echo; echo "=== ci: $* ==="; }

stage "configure (${BUILD_DIR}, IMAP_WERROR=${WERROR})"
cmake -B "${BUILD_DIR}" -S . -DIMAP_WERROR="${WERROR}" || exit 1

stage "build"
cmake --build "${BUILD_DIR}" -j "${JOBS}" || exit 1

stage "perfbench build (compile the attack-cell benchmark, do not run it)"
# perfbench/ is its own CMake project over this library, configured the way
# perfbench/run.py configures it. Building it here makes a library API
# change that breaks the benchmark fail CI instead of the benchmark run.
cmake -S perfbench -B "${BUILD_DIR}/perfbench" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo || exit 1
cmake --build "${BUILD_DIR}/perfbench" --target perfbench -j "${JOBS}" \
  || exit 1

stage "lint"
python3 tools/lint/imap_lint.py --root . src bench tests || exit 1
python3 tools/lint/test_imap_lint.py || exit 1

stage "check.ast (semantic determinism analyzer + build-flag contract)"
# Hard-fails (exit 2) when compile_commands.json is missing or stale — the
# kernel-flags contract is checked against what the build actually does.
python3 tools/check/imap_check.py --root . \
  --compdb "${BUILD_DIR}/compile_commands.json" || exit 1
python3 tools/check/test_imap_check.py || exit 1

stage "tier-1 ctest"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" || exit 1

stage "checkpoint/resume (cross-process halt -> inspect -> resume)"
# End-to-end drill of the Archive snapshot layer through real process
# boundaries: process 1 halts every attack cell after one PPO iteration
# (leaving resumable .snap files), ckpt_inspect must verify every artifact,
# process 2 resumes the snapshots to completion and caches results.
CKPT_ZOO="$(pwd)/${BUILD_DIR}/ci_ckpt_zoo"
rm -rf "${CKPT_ZOO}"
( cd "${BUILD_DIR}" &&
  IMAP_ZOO_DIR="${CKPT_ZOO}" IMAP_BENCH_SCALE=0.01 IMAP_SNAPSHOT_EVERY=1 \
  IMAP_HALT_AFTER_ITERS=1 ./bench/bench_fig6 > /dev/null ) || exit 1
ls "${CKPT_ZOO}"/snapshots/*.snap > /dev/null 2>&1 \
  || { echo "ci: halted run left no snapshots"; exit 1; }
"${BUILD_DIR}/tools/ckpt_inspect" "${CKPT_ZOO}"/snapshots/*.snap \
  "${CKPT_ZOO}"/*.pol || exit 1
( cd "${BUILD_DIR}" &&
  IMAP_ZOO_DIR="${CKPT_ZOO}" IMAP_BENCH_SCALE=0.01 IMAP_SNAPSHOT_EVERY=1 \
  ./bench/bench_fig6 > /dev/null ) || exit 1
ls "${CKPT_ZOO}"/snapshots/*.snap > /dev/null 2>&1 \
  && { echo "ci: completed run left stale snapshots"; exit 1; }
ls "${CKPT_ZOO}"/results/*.res > /dev/null 2>&1 \
  || { echo "ci: completed run cached no results"; exit 1; }
rm -rf "${CKPT_ZOO}"

stage "fabric (2-process DAG grid + crash drill + randomized scenario cell)"
# End-to-end drill of the multi-process fabric: a 4-cell victim->attack->eval
# grid scheduled over 2 worker processes, with the first attack cell's worker
# killed mid-run (SIGKILL-equivalent _exit without replying). The scheduler
# must detect the death, re-dispatch the cell, resume it from its snapshot,
# and the merged results must be bit-identical to a fresh serial run. The
# fourth cell is a randomized SCENARIO (channel pipeline + seeded DR drawn
# per reset from the slot Rng) — the bit-compare proves procedural
# randomization is factorization-invariant across the process fabric too.
CI_SCENARIO='hopper+obs_perturb:0.075+obs_delay:1+dr[mass:0.9..1.1]@7'
"${BUILD_DIR}/tools/scenario_ls" "${CI_SCENARIO}" \
  || { echo "ci: scenario string failed validation"; exit 1; }
FABRIC_ZOO="$(pwd)/${BUILD_DIR}/ci_fabric_zoo"
rm -rf "${FABRIC_ZOO}" "${FABRIC_ZOO}_serial"
IMAP_BENCH_SCALE=0.001 "${BUILD_DIR}/tools/fabric_grid" \
  --procs 2 --crash-nth 1 --compare --scenario "${CI_SCENARIO}" \
  --zoo "${FABRIC_ZOO}" --serial-zoo "${FABRIC_ZOO}_serial" || exit 1
rm -rf "${FABRIC_ZOO}" "${FABRIC_ZOO}_serial"

stage "bench-smoke (kernel suites, min_time=0.01s, probes skipped)"
# Exercises the batched-kernel benchmarks end to end without the slow
# speedup/kernel probes (those rewrite BENCH_*.json and are run manually —
# see README "Benchmarks"). min_time is a plain double: the bundled
# google-benchmark predates the "0.01s" suffix syntax.
IMAP_BENCH_NO_PROBE=1 "${BUILD_DIR}/bench/bench_micro_ppo" \
  --benchmark_min_time=0.01 \
  --benchmark_filter='BM_MlpForwardBatch|BM_PpoUpdate|BM_RolloutCollect' || exit 1
IMAP_BENCH_NO_PROBE=1 "${BUILD_DIR}/bench/bench_micro_infer" \
  --benchmark_min_time=0.01 \
  --benchmark_filter='BM_VictimQueryBatch' || exit 1
# Fabric scaling probe at smoke scale: runs the 1-vs-N process DAG grid
# probe, asserting trace identity. Runs from the build dir so the
# tracked repo-root BENCH_fabric.json (regenerated manually at full scale,
# see README "Benchmarks") is not clobbered by smoke-scale numbers.
( cd "${BUILD_DIR}" && IMAP_BENCH_SCALE=0.001 ./bench/bench_fabric ) || exit 1
# Serving-coalescer probe at smoke scale: every cell still runs (including
# the bit-identity comparison against direct PolicyHandle queries — the
# probe exits nonzero on any mismatch), just with tiny iteration counts.
# From the build dir so the tracked BENCH_serve.json stays full-scale.
( cd "${BUILD_DIR}" &&
  IMAP_BENCH_SERVE_ITERS=2 IMAP_BENCH_SERVE_REPS=1 ./bench/bench_serve \
  > /dev/null ) || exit 1

stage "bench-diff (rollout steps/s gate vs tracked BENCH_rollout.json)"
# Regenerate the rollout-collection probe in the build dir (min-of-7
# collects, serial vs vectorized, bit-identity asserted) and gate it against
# the tracked baseline: a >10% steps/s regression fails the stage. One warm
# retry absorbs cold-start noise (page cache, CPU frequency ramp); a real
# regression fails both runs.
run_rollout_probe() {
  ( cd "${BUILD_DIR}" &&
    IMAP_BENCH_ROLLOUT_PROBE_ONLY=1 ./bench/bench_micro_ppo > /dev/null )
}
run_rollout_probe || exit 1
if ! python3 tools/bench_diff.py BENCH_rollout.json \
       "${BUILD_DIR}/BENCH_rollout.json"; then
  echo "ci: rollout probe below baseline; retrying once (cold-start noise)"
  run_rollout_probe || exit 1
  python3 tools/bench_diff.py BENCH_rollout.json \
    "${BUILD_DIR}/BENCH_rollout.json" || exit 1
fi

stage "serve (daemon lifecycle: start, concurrent smoke, clean shutdown)"
# End-to-end drill of the imap_serve daemon as a real process: ephemeral
# port, resident victim trained at smoke scale on first /infer, concurrent
# curl clients, Prometheus scrape, then SIGTERM and a clean exit.
SERVE_ZOO="$(pwd)/${BUILD_DIR}/ci_serve_zoo"
SERVE_LOG="$(pwd)/${BUILD_DIR}/ci_serve_port"
rm -rf "${SERVE_ZOO}" "${SERVE_LOG}"
IMAP_ZOO_DIR="${SERVE_ZOO}" IMAP_BENCH_SCALE=0.01 IMAP_SERVE_PORT=0 \
  "${BUILD_DIR}/tools/imap_serve" --print-port > "${SERVE_LOG}" &
SERVE_PID=$!
for _ in $(seq 1 50); do
  [ -s "${SERVE_LOG}" ] && break
  sleep 0.1
done
SERVE_PORT="$(head -n1 "${SERVE_LOG}")"
[ -n "${SERVE_PORT}" ] || { echo "ci: imap_serve printed no port"; exit 1; }
curl -fsS "http://127.0.0.1:${SERVE_PORT}/health" | grep -q '"status":"ok"' \
  || { echo "ci: /health failed"; kill "${SERVE_PID}"; exit 1; }
# Concurrent inference smoke: identical observations must produce identical
# action rows whether or not they shared a coalesced batch.
SERVE_OBS="$(python3 -c 'print(" ".join(["0.01"] * 11))')"
for i in 1 2 3 4; do
  curl -fsS -d "${SERVE_OBS}" \
    "http://127.0.0.1:${SERVE_PORT}/infer?env=Hopper" \
    > "${SERVE_LOG}.${i}" &
done
wait $(jobs -p | grep -v "^${SERVE_PID}$") 2>/dev/null
for i in 2 3 4; do
  cmp -s "${SERVE_LOG}.1" "${SERVE_LOG}.${i}" \
    || { echo "ci: concurrent /infer rows diverged"; kill "${SERVE_PID}"; exit 1; }
done
[ -s "${SERVE_LOG}.1" ] || { echo "ci: /infer empty"; kill "${SERVE_PID}"; exit 1; }
curl -fsS "http://127.0.0.1:${SERVE_PORT}/metrics" \
  | grep -q '^imap_serve_infer_requests_total 4$' \
  || { echo "ci: /metrics did not count 4 infers"; kill "${SERVE_PID}"; exit 1; }
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}"
SERVE_RC=$?
[ "${SERVE_RC}" -eq 0 ] || { echo "ci: imap_serve exit ${SERVE_RC}"; exit 1; }
rm -rf "${SERVE_ZOO}" "${SERVE_LOG}" "${SERVE_LOG}".[1-4]

stage "OK — build, lint, tier-1 tests, bench smoke, and serve drill all clean"
