#!/usr/bin/env bash
# One-shot health check: configure, build, run the full test suite, then
# smoke the trace analyzer against the checked-in golden trace and the
# decision ledger against a controller scenario. Run from anywhere; exits
# non-zero on the first failure.
#
#   tools/check.sh                # plain RelWithDebInfo build, -Werror as CI
#   tools/check.sh --sanitize     # ASan+UBSan build in build-asan/
#   tools/check.sh --ledger-smoke # build + ledger smoke only (fast)
#   tools/check.sh --sweep-smoke  # build + baseline-gated sweep only (fast)
#   tools/check.sh --parity       # build + heap-vs-wheel differential only
#   tools/check.sh --telemetry    # build + time-series/profiler smoke only
#   tools/check.sh --chaos-switch # build + mid-switch crash-point matrix only
#   tools/check.sh --causal       # build + causal blame & overhead gate only
#   tools/check.sh --cotenancy    # build + baseline-gated co-tenant fleet only
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake_args=(-DAUTOPIPE_WERROR=ON)
only=""  # the one smoke a mode flag runs instead of the whole check
case "${1:-}" in
  "") ;;
  --sanitize)
    build="${BUILD_DIR:-$repo/build-asan}"
    cmake_args=(-DAUTOPIPE_SANITIZE=ON)
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
    ;;
  --ledger-smoke) only=ledger_smoke ;;
  --sweep-smoke) only=sweep_smoke ;;
  --parity) only=parity_smoke ;;
  --telemetry) only=telemetry_smoke ;;
  --chaos-switch) only=chaos_switch_smoke ;;
  --causal) only=causal_smoke ;;
  --cotenancy) only=cotenancy_smoke ;;
  *)
    echo "usage: tools/check.sh [--sanitize|--ledger-smoke|--sweep-smoke|--parity|--telemetry|--chaos-switch|--causal|--cotenancy]" >&2
    exit 2
    ;;
esac

# Deterministic controller scenario with the decision ledger on; every
# record must reach a terminal outcome and the text form must round-trip
# through the reader byte-for-byte (autopipe_trace decisions --check).
ledger_smoke() {
  echo "== ledger smoke =="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  "$build/tools/autopipe_sim" --model vgg16 --iterations 150 \
      --bw-drop-iter 60 --bw-drop-gbps 5 \
      --trace "$tmp/run.trace" --ledger "$tmp/run.ledger" > /dev/null
  "$build/tools/autopipe_trace" decisions "$tmp/run.ledger" --check
  "$build/tools/autopipe_trace" calibration \
      "$tmp/run.ledger" "$tmp/run.trace" --json > "$tmp/BENCH_decisions.json"
  "$repo/tools/bench_history.sh" "$tmp/BENCH_decisions.json"
}

# Heap-vs-wheel differential: the same chaos scenarios through the binary
# heap (reference) and the timing wheel (candidate) must produce
# byte-identical traces, ledgers, metrics and iteration timelines. On
# divergence the harness drops per-seed artifacts under
# $build/parity-artifacts (see docs/SIMULATOR.md).
parity_smoke() {
  echo "== parity smoke =="
  "$build/bench/parity_harness" --seeds=12 --jobs=4 \
      --artifacts="$build/parity-artifacts"
}

# The committed smoke sweep gated against its committed baseline,
# bench/baselines/sweep_smoke_baseline.json (the bound and how to regenerate
# the baseline: docs/BENCHMARKS.md, "Gates").
sweep_smoke() {
  echo "== sweep smoke =="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  "$build/tools/autopipe_sweep" --spec="@$repo/bench/sweeps/smoke.sweep" \
      --jobs=4 --out="$tmp/BENCH_sweep.json"
  "$build/tools/autopipe_trace" gate "$tmp/BENCH_sweep.json" \
      "$repo/bench/baselines/sweep_smoke_baseline.json"
  "$repo/tools/bench_history.sh" "$tmp/BENCH_sweep.json"
}

# Co-tenant fleet smoke: the 4-job mixed-model fleets with one injected
# preemption must commit exactly one winning reconfiguration for the
# preempted GPU under every arbiter policy (the bench exits non-zero
# otherwise), and fleet throughput is gated against the committed
# bench/baselines/cotenancy_baseline.json (docs/BENCHMARKS.md, "Gates").
# The ctest invariant suite behind the same subsystem carries the label
# `cotenancy` (ctest -L cotenancy).
cotenancy_smoke() {
  echo "== cotenancy smoke =="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  "$build/bench/cotenancy_fleet" --out="$tmp/BENCH_cotenancy.json"
  "$build/tools/autopipe_trace" gate "$tmp/BENCH_cotenancy.json" \
      "$repo/bench/baselines/cotenancy_baseline.json"
  "$repo/tools/bench_history.sh" "$tmp/BENCH_cotenancy.json"
}

# Mid-switch crash-point matrix: every (switch mode x protocol phase x
# fault kind) cell gets a deterministic fault fired at that phase boundary;
# each run must conserve per-layer weights across abort/rollback/retry,
# land in a consistent layout, resolve every attempt in the ledger, and
# replay byte-identically heap-vs-wheel (see docs/FAULTS.md).
chaos_switch_smoke() {
  echo "== chaos-switch smoke =="
  "$build/bench/chaos_switch" --seeds=5 \
      --artifacts="$build/chaos-switch-artifacts"
}

# Telemetry smoke: a churny run with the metric time-series sampler and the
# host self-profiler on, every `autopipe_trace timeseries`/`profile` surface
# exercised, and planner decide-round time gated against the committed
# bench/baselines/telemetry_planner_baseline.json (docs/BENCHMARKS.md,
# "Gates").
telemetry_smoke() {
  echo "== telemetry smoke =="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  "$build/tools/autopipe_sim" --model vgg16 --iterations 120 \
      --bw-drop-iter 30 --bw-drop-gbps 10 \
      --timeseries "$tmp/run.ts:0.5" --profile "$tmp/run.prof" > /dev/null
  "$build/tools/autopipe_trace" timeseries "$tmp/run.ts"
  "$build/tools/autopipe_trace" timeseries "$tmp/run.ts" --json \
      > "$tmp/BENCH_timeseries.json"
  "$repo/tools/bench_history.sh" "$tmp/BENCH_timeseries.json"
  "$build/tools/autopipe_trace" profile "$tmp/run.prof" --top=5
  "$build/tools/autopipe_trace" profile "$tmp/run.prof" --flame > /dev/null
  "$build/tools/autopipe_trace" profile "$tmp/run.prof" --json \
      > "$tmp/profile.json"
  "$build/tools/autopipe_trace" gate "$tmp/profile.json" \
      "$repo/bench/baselines/telemetry_planner_baseline.json"
}

# Min-of-3 wall time for the fat-capture churn micro-benchmark — the
# simulator hot path the causal bookkeeping rides on.
churn_ns() {
  local exe="$1"
  { for _ in 1 2 3; do
      "$exe" --benchmark_filter='^BM_SimulatorFatCaptureChurn$' 2>/dev/null
    done; } | awk '/^BM_SimulatorFatCaptureChurn /{print $2}' | sort -n \
      | head -1
}

# Causality smoke: `autopipe_trace blame` must walk the event DAG from a
# slow window back to the injected disturbance, and the causal bookkeeping
# must stay off the hot path — the churn bench with tracing compiled in
# (but runtime-disabled) is gated within AUTOPIPE_CAUSAL_TOL (default 10%)
# of an AUTOPIPE_TRACING=OFF build, where the eid/cause fields do not
# exist at all (the 0%-when-off half of the contract). See docs/TRACING.md.
causal_smoke() {
  echo "== causal smoke =="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN

  # The committed golden bandwidth-drop scenario: the injected NIC
  # bandwidth cut must root the dominant delay chain.
  "$build/tools/autopipe_trace" blame \
      "$repo/tests/golden/bandwidth_drop.trace" > "$tmp/golden.blame"
  grep -q "root cause: resource:resource_event" "$tmp/golden.blame"

  # A live instrumented vgg16 bandwidth-drop run with a hard link outage
  # at t=5..7: blame on the recovery window must name the injected link
  # fault and charge the outage in the stall ledger.
  "$build/tools/autopipe_sim" --model vgg16 --system even --iterations 40 \
      --bw-drop-iter 30 --bw-drop-gbps 10 \
      --faults "5.0 link_down 1;7.0 link_up 1" \
      --trace "$tmp/run.trace" > /dev/null
  "$build/tools/autopipe_trace" blame "$tmp/run.trace" --window=7.0..8.5 \
      | tee "$tmp/run.blame"
  grep -q "root cause: fault:link_down" "$tmp/run.blame"
  grep -q "link_outage" "$tmp/run.blame"
  "$build/tools/autopipe_trace" blame "$tmp/run.trace" --iteration=2 \
      > /dev/null
  "$build/tools/autopipe_trace" blame "$tmp/run.trace" --json > /dev/null

  echo "== causal overhead gate =="
  local notrace="${NOTRACE_BUILD_DIR:-$repo/build-notrace}"
  cmake -B "$notrace" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAUTOPIPE_TRACING=OFF > /dev/null
  cmake --build "$notrace" -j "$jobs" --target micro_benchmarks > /dev/null
  local on_ns off_ns tol="${AUTOPIPE_CAUSAL_TOL:-0.10}"
  on_ns="$(churn_ns "$build/bench/micro_benchmarks")"
  off_ns="$(churn_ns "$notrace/bench/micro_benchmarks")"
  echo "fat-capture churn: tracing-on ${on_ns} ns vs compiled-out" \
       "${off_ns} ns (tolerance ${tol})"
  awk -v on="$on_ns" -v off="$off_ns" -v tol="$tol" 'BEGIN {
    if (on == "" || off == "" || off <= 0) {
      print "causal overhead gate: missing benchmark readings"; exit 1
    }
    if (on > off * (1 + tol)) {
      printf "causal overhead gate: %s ns exceeds %s ns by more than %.0f%%\n",
             on, off, tol * 100
      exit 1
    }
  }'
}

echo "== configure =="
cmake -B "$build" -S "$repo" "${cmake_args[@]}"

echo "== build =="
cmake --build "$build" -j "$jobs"

if [[ -n "$only" ]]; then
  "$only"
  echo "OK"
  exit 0
fi

echo "== test =="
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo "== chaos smoke =="
"$build/bench/chaos_faults" --seeds=5 > /dev/null

echo "== chaos-switch smoke =="
"$build/bench/chaos_switch" --seeds=5 \
    --artifacts="$build/chaos-switch-artifacts" > /dev/null

echo "== analyzer smoke =="
"$build/tools/autopipe_trace" summary \
    "$repo/tests/golden/bandwidth_drop.trace" > /dev/null
"$build/tools/autopipe_trace" diff \
    "$repo/tests/golden/bandwidth_drop.trace" \
    "$repo/tests/golden/bandwidth_drop.trace" --json > /dev/null
# A malformed option value is a usage error (exit 2), not a silent zero.
status=0
"$build/tools/autopipe_trace" critical-path --top=abc \
    "$repo/tests/golden/bandwidth_drop.trace" 2> /dev/null || status=$?
[[ "$status" == 2 ]] ||
  { echo "analyzer smoke: --top=abc exited $status" >&2; exit 1; }

ledger_smoke

sweep_smoke

parity_smoke

telemetry_smoke

cotenancy_smoke

causal_smoke

echo "OK"
